(** Engine selection for oracle comparisons.

    Both engines implement the same record/replay semantics.  Production
    code (pods, the hive, the CLI) calls {!Vm} directly; this module
    exists so the equivalence tests, the bug corpus's two-engine
    certification and the benchmarks can run one workload on either
    engine and compare, with the tree-walk {!Interp} as the reference
    semantics. *)

module Bitvec := Softborg_util.Bitvec
module Ir := Softborg_prog.Ir

type t =
  | Tree  (** Tree-walk reference interpreter ({!Interp}). *)
  | Vm  (** Compiled bytecode ({!Bytecode} + {!Vm}). *)

val to_string : t -> string
(** ["tree"] or ["vm"]. *)

val run :
  ?max_steps:int ->
  ?hooks:Interp.hooks ->
  ?cache:Bytecode.cache ->
  engine:t ->
  program:Ir.t ->
  env:Env.t ->
  sched:Sched.policy ->
  unit ->
  Interp.result
(** Dispatch to {!Interp.run} or {!Vm.execute}; [cache] only applies to
    the VM engine. *)

val reconstruct :
  ?hooks:Interp.hooks ->
  ?cache:Bytecode.cache ->
  engine:t ->
  program:Ir.t ->
  bits:Bitvec.t ->
  schedule:int list ->
  total_decisions:int ->
  total_steps:int ->
  unit ->
  (Interp.reconstruction, string) result
(** Dispatch to {!Interp.reconstruct} or {!Vm.reconstruct}. *)
