(** Memoized symbolic gap verdicts.

    [Sym_exec.direction_feasible] is a pure function of the program,
    the target [(site, direction)] and the symexec configuration — it
    does not depend on which tree node exposed the gap.  The hive asks
    the same questions every tick (guidance planning and gap closing
    both walk the frontier), so one per-knowledge table keyed by
    [(site, direction)] removes all repeat solving.

    The table is semantics-transparent as long as it serves one
    program and all its users pass the same symexec configuration (the
    hive uses [config.symexec_config] for both planner and prover).
    Fixes never enter the query — pods apply them, symbolic analysis
    reads only the program — so {!Knowledge} keeps one table for the
    program's whole life, across fix epochs.  Like the replay cache, it
    is a pure accelerator: never serialized into checkpoints, so a
    restored hive starts it cold. *)

module Ir := Softborg_prog.Ir
module Testgen := Softborg_symexec.Testgen

type verdict =
  [ `Test of Testgen.test_case
  | `Infeasible
  | `Unknown
  ]
(** Exactly {!Testgen.for_direction}'s result, so the planner can
    reuse entries the prover created and vice versa. *)

type t

val create : unit -> t

val find : t -> site:Ir.site -> direction:bool -> verdict option
(** Cached verdict, if any; updates the hit/miss counters. *)

val mem : t -> site:Ir.site -> direction:bool -> bool
(** Membership without touching the counters (used when sizing a
    speculative parallel batch). *)

val add : t -> site:Ir.site -> direction:bool -> verdict -> unit

val length : t -> int
val hits : t -> int
val misses : t -> int
