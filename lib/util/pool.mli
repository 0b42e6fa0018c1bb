(** Fixed-size [Domain] worker pool.

    The hive's symbolic gap queries are pure (no shared mutable state),
    so they can be farmed out to OCaml 5 domains: guidance speculation
    ([Guidance.plan]) and the federation's compute phase run them here.
    A pool owns its domains for its whole lifetime — spawning a domain
    costs far more than one solver call, so the workers are created
    once and fed through a queue.

    Determinism contract: {!map} preserves input order in its result
    list, so callers that fold over the results observe exactly the
    sequential order regardless of how the work was interleaved across
    domains.  The function itself must be deterministic and must not
    touch shared mutable state; under that contract a pool of any size
    computes the same value as [List.map]. *)

type t

val create : size:int -> t
(** A pool of [size] workers.  [size <= 1] creates an inert pool: no
    domains are spawned and {!map} runs inline on the caller — the
    zero-cost default. *)

val size : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  [f] runs on worker domains (inline
    when the pool is inert or the list is a singleton); the caller
    blocks until every element has settled.  If any application
    raises, the first exception in input order is re-raised after all
    tasks settle — no task is abandoned mid-flight. *)

val shutdown : t -> unit
(** Stop accepting work, drain the queue, and join the worker domains.
    Idempotent; an inert pool shuts down as a no-op. *)
