(** Path-condition solving front-end: the sliced race plus the verdict
    cache, packaged for symbolic execution.

    Every feasibility check and model search in {!Softborg_symexec}
    funnels through here.  [solve] races the complete interval
    enumeration against a digest-seeded random probe in bounded
    round-robin slices — the probe wins on loosely-constrained
    conditions where enumeration grinds through a large prefix of the
    domain, the enumeration wins on tight or unsatisfiable ones.  Both
    members are deterministic, the schedule is fixed (enumeration gets
    the first slice of each round), and the race is strictly
    sequential, so results are reproducible.

    Soundness: [Sat] models are verified against the condition before
    being reported; [Unsat] only ever comes from the exhaustive
    enumeration; [Timeout] only when the shared step budget is gone.

    With [?cache], answers are memoized in a {!Verdict_cache} keyed by
    (kind, domain, arity, budget, condition digest); a hit costs zero
    solver steps. *)

val check :
  ?cache:Verdict_cache.t ->
  domain:int * int ->
  n_inputs:int ->
  Path_cond.t ->
  [ `Feasible | `Infeasible | `Unknown ]
(** Cached {!Interval.check_interval_only}: pure bound propagation,
    [`Infeasible] is definitive, [`Feasible] means "not refuted". *)

val default_budget : int
(** 2_000_000 steps, matching {!Interval.solve}'s default. *)

val solve :
  ?slice:int ->
  ?budget:int ->
  ?cache:Verdict_cache.t ->
  domain:int * int ->
  n_inputs:int ->
  Path_cond.t ->
  Interval.outcome
(** Decide satisfiability over [domain]^n_inputs by the sliced
    enumeration/probe race under one shared [budget] of executed steps
    (default {!default_budget}); [outcome.steps] is work actually
    performed, 0 on a cache hit.  Complete relative to the domain,
    like {!Interval.solve} — but the model returned for a satisfiable
    condition may differ from pure enumeration's (it is whichever
    member decides first; still deterministic).
    @raise Invalid_argument on an empty domain, negative [n_inputs],
    [slice <= 0], or a condition mentioning program variables. *)
