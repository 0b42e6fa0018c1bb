(** Solver portfolios (paper §4).

    "Choosing the equities with the highest return is undecidable, so
    one invests in several in parallel."  A portfolio runs k
    heterogeneous SAT solvers on the same instance; the race ends when
    the first solver reaches a verdict.  The paper's preliminary
    result — a portfolio of three SAT solvers giving a 10× speedup in
    solving time for a 3× increase in resources — is reproduced by
    experiment E3 on top of this module.

    The race is genuinely preemptive: members expose resumable
    step-sliced searches, {!race} interleaves their slices round-robin
    and stops every loser the moment one member decides, so
    [resource_steps] is work actually performed — not the counterfactual
    accounting of a simulated race ({!race_whole_budget} keeps the
    run-everyone-to-budget behavior as the baseline E3 compares
    against).  Costs are in solver {e steps} (clause examinations), the
    shared machine-independent unit. *)

module Rng := Softborg_util.Rng

type verdict =
  | V_sat
  | V_unsat
  | V_unknown  (** Budget exhausted with no decision. *)

type run = {
  solver : string;
  verdict : verdict;
      (** [V_unknown] for members that were cancelled or exhausted
          their budget. *)
  steps : int;
      (** Steps charged to the member: its count when {!race} last
          visited it (0 if never reached), or its whole run in
          {!race_whole_budget}. *)
}

type member = {
  step : fuel:int -> [ `Done of verdict | `More ];
  steps : unit -> int;
}
(** One racing instance: a paused search plus its step counter.  States
    must be independent: the race interleaves members' slices, and one
    member's slices must not move another's search. *)

type solver = {
  name : string;
  budget : int;  (** Per-member step budget for one race. *)
  start : Cnf.formula -> member;
}

val dpll_solver : ?heuristic:Dpll.heuristic -> budget:int -> string -> solver
(** With [Random_branch], every {!solver.start} splits a fresh child
    generator, so cancellation depth cannot leak into later races. *)

val walksat_solver : budget:int -> seed:int -> string -> solver
(** Each instance draws from its own {!Rng.split} stream — repeated
    races are independent yet the whole sequence replays from
    [seed]. *)

val standard_three : budget:int -> seed:int -> solver list
(** The paper's "three different SAT solvers": DPLL/max-occurrence,
    DPLL/random-branching, and WalkSAT — three genuinely different
    performance profiles. *)

type race_result = {
  verdict : verdict;
  winner : string option;  (** First solver to decide, if any. *)
  wall_steps : int;  (** The winner's steps (max over members if nobody decided). *)
  resource_steps : int;  (** Total steps actually executed across all members. *)
  runs : run list;  (** Per-member accounting, in portfolio order. *)
}

val default_slice : int
(** Steps per slice of the round-robin schedule (4096). *)

val race : ?slice:int -> solver list -> Cnf.formula -> race_result
(** Preemptive race on the calling domain: members advance [slice]
    steps at a time in round-robin portfolio order; the first [`Done]
    in schedule order wins and every other member stops.  Each member
    is charged the steps it had made when the schedule last visited it,
    so a member the race never reached counts 0.
    @raise Invalid_argument on an empty portfolio or [slice <= 0]. *)

val race_whole_budget : solver list -> Cnf.formula -> race_result
(** The pre-preemption baseline: every member runs to its own verdict
    or budget, the winner is the decider with the fewest steps, and
    [resource_steps] is the sum of all members' full runs — the waste
    {!race} eliminates.  Verdict-equivalent to {!race} for sound
    members (property-tested against it and the brute-force oracle).
    @raise Invalid_argument on an empty portfolio. *)

val speedup : single_steps:float -> portfolio_steps:float -> float
(** Ratio, guarding against zero. *)
