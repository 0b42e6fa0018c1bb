(** The environment model: the source of all program-external values.

    Inputs and system-call results are the only non-deterministic value
    sources in the IR; fixing them (plus the schedule) makes the rest
    of an execution deterministic — the property the paper exploits to
    record only input-dependent branches (§3.1).  The environment also
    implements {e fault injection}: guidance can ask a pod to make the
    [n]-th syscall of a run fail (the paper's "short socket read",
    §3.3). *)

module Rng := Softborg_util.Rng
module Ir := Softborg_prog.Ir

type fault_plan =
  | No_faults
  | Random_faults of float  (** Each syscall fails with this probability. *)
  | Targeted of int list  (** Zero-based indices of syscalls (in execution order) that fail. *)

type t

val make : ?fault_plan:fault_plan -> seed:int -> inputs:int array -> unit -> t
(** Fresh environment.  [seed] determines syscall return values, so a
    run is replayable from [(inputs, seed, fault_plan, schedule)]. *)

val inputs : t -> int array
val fault_plan : t -> fault_plan

val input : t -> int -> int
(** [input t i] reads input slot [i].
    @raise Invalid_argument if out of range. *)

val syscall : t -> Ir.syscall_kind -> int
(** Next syscall result: a kind-appropriate non-negative value, or -1
    when the fault plan says this call fails.  Advances the syscall
    counter. *)
