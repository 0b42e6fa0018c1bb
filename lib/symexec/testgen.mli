(** Concrete test-case generation for execution guidance (paper §3.3).

    The hive "produces specific test cases to guide execution, stated
    in terms of inputs or in terms of system call faults to be
    injected".  This module turns a symbolic model (symbol values from
    {!Sym_exec.direction_feasible}) into exactly that: an input vector
    plus a targeted fault plan a pod can execute. *)

module Ir := Softborg_prog.Ir
module Env := Softborg_exec.Env
module Codec := Softborg_util.Codec

type test_case = {
  inputs : int array;  (** One value per program input slot. *)
  fault_plan : Env.fault_plan;
      (** [Targeted] indices of syscalls (in execution order) whose
          model value was negative — the only aspect of a syscall a
          pod can force. *)
}

val write_test_case : Codec.Writer.t -> test_case -> unit
(** The one test-case codec: inputs as a list of zigzag varints, then
    the fault plan (tag 0 none, 1 random with its probability, 2
    targeted with its indices).  Guidance directives, cooperating
    provers' results and checkpointed gap verdicts all carry test
    cases this way. *)

val read_test_case : Codec.Reader.t -> test_case
(** Inverse of {!write_test_case}.
    @raise Softborg_util.Codec.Malformed on an unknown fault-plan tag.
    @raise Softborg_util.Codec.Truncated on premature end. *)

val of_model :
  n_inputs:int -> model:int array -> origins:Sym_exec.sym_origin array -> test_case
(** Project a symbol model onto the executable test surface. *)

val for_direction :
  ?config:Sym_exec.config ->
  ?cache:Softborg_solver.Verdict_cache.t ->
  Ir.t ->
  site:Ir.site ->
  direction:bool ->
  [ `Test of test_case | `Infeasible | `Unknown ]
(** End-to-end: find inputs (and faults) that drive an execution to
    take branch [site] in [direction], or certify that none exist in
    the domain (single-threaded programs only).

    On a multi-threaded program the search first runs at
    [Local { thread = site.thread }] consistency, with the same
    [config] and [cache]: only the site's thread runs, and the globals
    it reads are havoced.  Its model is projected with {!of_model}
    (havoced-global symbols have no input and are dropped), and the
    test is kept only if {!Softborg_exec.Vm.execute} takes
    [(site, direction)] under [Round_robin] — the schedule a pod runs
    a guidance test under — at each of a fixed, private list of env
    seeds.  Otherwise the strict search answers as it would alone.
    The local step never yields [`Infeasible]: a havoced global stands
    for any value, so an empty local search proves nothing.
    Single-threaded programs never run it.  The result stays a pure
    function of (program, site, direction, config). *)
