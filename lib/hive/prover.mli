(** Cumulative proofs (paper §3.3).

    "A complete exploration of all paths leads to a proof, while a test
    is just a weaker proof that covers a smaller subset of the paths."
    The prover unifies the two on one spectrum: a {!strength} is either
    [Proved] — the execution tree, closed with symbolic analysis, is
    complete and every path satisfies the property — or [Tested], a
    quantified amount of evidence short of completeness.

    Proofs are relative to the analysis domain (symbol values the
    solver enumerates) and to the program version: deploying a fix
    changes behavior, so existing proofs are invalidated (paper §3.3:
    the hive must "decide whether the instrumentation invalidates the
    hive's existing knowledge and proofs"). *)

module Ir := Softborg_prog.Ir
module Env := Softborg_exec.Env
module Interp := Softborg_exec.Interp
module Exec_tree := Softborg_tree.Exec_tree
module Sym_exec := Softborg_symexec.Sym_exec

type property =
  | Assert_safety  (** No assertion failure or arithmetic trap. *)
  | Deadlock_freedom

type strength =
  | Proved of { domain : int * int }  (** Complete over this input domain. *)
  | Tested of { executions : int; schedules : int }
      (** Evidence-only: distinct executions and schedules examined. *)

type proof = {
  id : int;
  property : property;
  strength : strength;
  epoch : int;  (** Fix epoch the proof was established against. *)
  distinct_paths : int;  (** Tree paths backing the claim. *)
  mutable valid : bool;
}

val property_name : property -> string
val strength_name : strength -> string
val pp : Format.formatter -> proof -> unit

val close_gaps :
  ?config:Sym_exec.config ->
  ?cache:Softborg_solver.Verdict_cache.t ->
  ?memo:Gap_memo.t ->
  Ir.t ->
  Exec_tree.t ->
  int
(** Symbolically close the tree's frontier: mark directions that no
    in-domain input reaches as infeasible (paper §3.3, the "incomplete
    tree" hurdle).  Considers at most 24 gaps (each costs a directed
    symbolic exploration), pulled lazily from {!Exec_tree.frontier_seq}
    so the cost does not grow with the frontier, and returns the number
    closed.  [memo] caches verdicts across calls
    (and across the guidance planner, which shares the same table);
    [cache] memoizes the underlying path-condition solver queries.
    Feasible gaps are left open for execution guidance. *)

val attempt_assert_safety :
  ?config:Sym_exec.config ->
  ?cache:Softborg_solver.Verdict_cache.t ->
  program:Ir.t ->
  tree:Exec_tree.t ->
  crash_observations:int ->
  epoch:int ->
  unit ->
  proof option
(** Try to establish assertion safety: requires no observed crashes,
    an exhaustive (untruncated, fully-solved) symbolic exploration in
    which every feasible path completes cleanly, and a single-threaded
    program (thread interleavings would weaken exploration to one
    schedule).  Multi-threaded or incomplete evidence yields a [Tested]
    proof instead — the weaker end of the spectrum — provided at least
    one execution has been observed and none failed.

    The exploration runs without end-of-path solves
    ({!Sym_exec.solve_path} runs them here, at [config] and [cache]).
    A truncated one solves none: its answer is [Tested] or [None]
    whatever the verdicts say.  An exhaustive one solves its paths in
    emission order and stops at the first that rules the proof out (a
    timeout, or a feasible path that crashed or hit the step limit).
    The answer is the one solving every path would give. *)

val attempt_deadlock_freedom :
  ?max_runs:int ->
  program:Ir.t ->
  tree:Exec_tree.t ->
  deadlock_observations:int ->
  lock_cycles:int list list ->
  make_env:(unit -> Env.t) ->
  hooks:Interp.hooks ->
  epoch:int ->
  unit ->
  proof option
(** Deadlock freedom: [Proved] when the program takes no locks at all
    or runs a single thread; otherwise bounded schedule exploration
    evidence yields [Tested] — unless a deadlock was observed or a
    lock-order cycle exists, in which case no proof is produced. *)

val invalidate : proof list -> current_epoch:int -> int
(** Mark proofs established against an older fix epoch invalid;
    returns how many were invalidated. *)

val write_proof : Softborg_util.Codec.Writer.t -> proof -> unit
(** Checkpoint codec for a proof record.  The process-local [id] is
    not serialized: checkpoint bytes stay a pure function of the
    evidence even when a restored hive re-derives its proofs. *)

val read_proof : Softborg_util.Codec.Reader.t -> proof
(** Inverse of {!write_proof}; mints a fresh id for the restored
    proof.
    @raise Softborg_util.Codec.Malformed on invalid input.
    @raise Softborg_util.Codec.Truncated on premature end. *)
