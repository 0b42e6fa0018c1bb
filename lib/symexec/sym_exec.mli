(** The symbolic-execution engine.

    Explores the execution tree of a program statically (paper §3.2,
    Fig. 2), forking at every branch whose condition depends on a
    symbol and pruning forks whose path condition interval-propagation
    refutes.  Unlike classic whole-program symbolic execution, SoftBorg
    uses this engine {e around} the collectively-built tree: to decide
    whether an unexplored direction is feasible (and produce the
    concrete inputs that reach it, §3.3), and to close the remaining
    gaps of a cumulative proof. *)

module Ir := Softborg_prog.Ir
module Outcome := Softborg_exec.Outcome
module Path_cond := Softborg_solver.Path_cond
module Verdict_cache := Softborg_solver.Verdict_cache

(** Where each symbol of a path came from — needed to turn a model
    back into an executable test (inputs vs. syscall faults). *)
type sym_origin =
  | From_input of int  (** Program input slot. *)
  | From_syscall of { occurrence : int; kind : Ir.syscall_kind }
  | From_global of string  (** Havoced global (Local consistency). *)

type path_outcome =
  | Completed
  | Crashed of { site : Ir.site; kind : Outcome.crash_kind; message : string }
  | Path_deadlock
  | Step_limit

type path = {
  decisions : (Ir.site * bool) list;  (** Branch decisions along the path. *)
  condition : Path_cond.t;  (** Conjunction over symbols. *)
  outcome : path_outcome;
  origins : sym_origin array;  (** Origin of symbol [i], for all symbols. *)
  model : int array option;  (** Satisfying symbol values, if solved SAT. *)
  solver_verdict : [ `Sat | `Unsat | `Timeout | `Unsolved ];
}

type config = {
  max_paths : int;  (** Fork budget (default 512). *)
  max_steps_per_path : int;  (** Instruction budget per path (default 4000). *)
  solver_budget : int;  (** Steps for each end-of-path solve (default 200_000). *)
  domain : int * int;  (** Symbol domain for solving (default (-64, 255)). *)
  solve_models : bool;
      (** Run end-of-path solves (default true).  Off, {!explore} and
          {!solve_path} leave every path [`Unsolved]. *)
}

val default_config : config

type report = {
  paths : path list;  (** Surviving (not interval-refuted) paths. *)
  pruned_infeasible : int;  (** Forks refuted by interval propagation. *)
  truncated : bool;  (** Hit [max_paths]; the enumeration is partial. *)
  total_steps : int;  (** Interpreter steps across all paths. *)
  solver_steps : int;  (** Constraint-solver steps across all solves. *)
}

val explore : ?config:config -> ?cache:Verdict_cache.t -> Ir.t -> Consistency.level -> report
(** Enumerate paths under the given consistency level, scheduling
    threads round-robin.  With [solve_models], each surviving path is
    solved by {!solve_path}: [`Unsat] paths are over-approximation
    artifacts (possible under [Local] consistency or after conservative
    pruning), [`Sat] paths carry a model.  Without it every path comes
    back [`Unsolved] and [solver_steps] is 0; a caller that reads only
    some verdicts explores so and solves those paths itself.  With
    [cache], feasibility checks and end-of-path solves are memoized
    across calls; cache hits cost zero [solver_steps]. *)

val solve_path : ?config:config -> ?cache:Verdict_cache.t -> path -> path
(** The end-of-path solve {!explore} makes: one budget-bounded search
    for a model of [path.condition] over [config.domain], with
    [config.solver_budget] steps, filling [model] and [solver_verdict].
    [config] defaults to {!default_config}.  With [solve_models] off,
    [path] comes back unchanged.  Solving an [`Unsolved] path this way
    gives exactly the verdict and model an exploration with
    [solve_models] on records for it. *)

type direction_verdict =
  | Feasible of { model : int array; origins : sym_origin array }
  | Infeasible
      (** No input in the domain reaches the direction.  Only claimed
          at [Strict] consistency, for single-threaded programs with
          exhaustive exploration. *)
  | Unknown

val direction_feasible :
  ?config:config ->
  ?cache:Verdict_cache.t ->
  ?level:Consistency.level ->
  Ir.t ->
  site:Ir.site ->
  direction:bool ->
  direction_verdict
(** Directed query: can some execution take branch [site] in
    [direction]?  Returns with the first SAT model found.  A finished
    path's end-of-path solve runs only when it decides between
    [Infeasible] and [Unknown] — nothing found, exploration exhaustive,
    single-threaded, [Strict], no timeout while solving the target —
    and then in path order, up to the first timeout.

    [level] (default [Strict]) is the consistency the search runs at.
    At [Local { thread }] only [thread] runs and every global it reads
    before writing is a fresh [From_global] symbol, so a [Feasible]
    model may hold only under that havoc (check it concretely before
    trusting it) and an empty search answers [Unknown], never
    [Infeasible].  A [cache] may serve both levels: its keys pin the
    whole condition. *)
