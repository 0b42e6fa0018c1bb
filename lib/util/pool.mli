(** Order-preserving parallel map over OCaml 5 domains.

    The hive's symbolic gap queries are pure (no shared mutable state),
    so they can be spread over domains: guidance speculation
    ([Guidance.plan]) and the federation's compute phase run them here.
    No domain outlives a call: {!map} spawns its helpers, works beside
    them, and joins them before it returns.  A spawn and a join cost
    0.2–1.4 ms per helper on a 2-core box (600 in 0.10–0.87 s in a
    standalone loop), so a map pays off only when its elements are
    solver calls, not cheap arithmetic.

    Determinism contract: {!map} preserves input order in its result
    list, so callers that fold over the results observe exactly the
    sequential order regardless of how the work was interleaved across
    domains.  The function itself must be deterministic and must not
    touch shared mutable state; under that contract any [domains]
    computes the same value as [List.map]. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] applies [f] to every element of [xs] on
    [min domains (List.length xs)] domains: the caller and that many
    minus one helper domains, spawned for this call, take elements from
    one shared counter.  With [domains <= 1], or fewer than two
    elements, it is [List.map f xs] on the caller.  Every helper is
    joined before [map] returns or raises.  If any application raises,
    every other element still runs, then the first exception in input
    order is re-raised. *)
