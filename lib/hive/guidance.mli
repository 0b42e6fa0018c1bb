(** Execution guidance (paper §3.3).

    "Instead of waiting for the tree to become complete, SoftBorg uses
    symbolic analysis to identify directions toward which to guide the
    pods to fill in the gaps."  The planner walks the tree frontier in
    most-reached-first order, asks the symbolic engine for concrete
    inputs (and syscall faults) covering each gap, marks infeasible
    gaps so they stop counting against completeness, and packages the
    rest as directives for pods.  Multi-threaded programs additionally
    get schedule probes: instructions to re-run fixed inputs under
    fresh interleavings. *)

module Ir := Softborg_prog.Ir
module Codec := Softborg_util.Codec
module Exec_tree := Softborg_tree.Exec_tree
module Sym_exec := Softborg_symexec.Sym_exec
module Testgen := Softborg_symexec.Testgen

type directive =
  | Cover_direction of {
      site : Ir.site;
      direction : bool;
      test : Testgen.test_case;  (** Inputs + syscall faults to inject. *)
    }
  | Probe_schedules of {
      inputs : int array;  (** Fixed inputs; vary only the interleaving. *)
      seeds : int list;  (** Scheduler seeds to try. *)
    }

val pp_directive : Format.formatter -> directive -> unit

type plan_result = {
  directives : directive list;
  gaps_considered : int;
  gaps_closed_infeasible : int;  (** Marked infeasible in the tree. *)
  gaps_unknown : int;
}

val plan :
  ?config:Sym_exec.config ->
  ?cache:Softborg_solver.Verdict_cache.t ->
  ?max_directives:int ->
  ?exclude:(Ir.site * bool, unit) Hashtbl.t ->
  ?memo:Gap_memo.t ->
  Ir.t ->
  Exec_tree.t ->
  plan_result
(** Produce up to [max_directives] (default 8) directives for the
    tree's most valuable gaps.  Candidates are pulled lazily from
    {!Exec_tree.frontier_seq}, so a planning call touches O(k) gaps
    regardless of tree size.  Gaps whose [(site, direction)] is in the
    [exclude] set (already issued to a pod and not yet covered) are
    skipped in O(1) each.  [memo] caches symbolic verdicts across
    calls (see {!Gap_memo}); [cache] additionally memoizes the
    underlying path-condition solver queries (shared across provers).
    The plan runs on the caller's domain and derives only the verdicts
    its decision fold reads, hottest gap first, stopping once it has
    [max_directives] directives or has considered [3 * max_directives]
    gaps.  Multi-threaded programs whose gaps come back [Unknown] yield
    one [Probe_schedules] directive over scheduler seeds 101, 202, 303
    and 404. *)

val write_directive : Codec.Writer.t -> directive -> unit
val read_directive : Codec.Reader.t -> directive
(** @raise Softborg_util.Codec.Malformed on invalid input. *)
