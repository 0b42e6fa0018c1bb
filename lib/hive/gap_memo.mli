(** Memoized symbolic gap verdicts.

    [Testgen.for_direction] is a pure function of the program, the
    target [(site, direction)] and the symexec configuration — it
    does not depend on which tree node exposed the gap.  The hive asks
    the same questions every tick (guidance planning and gap closing
    both walk the frontier), so one per-knowledge table keyed by
    [(site, direction)] removes all repeat solving.

    The table is semantics-transparent as long as it serves one
    program and all its users pass the same symexec configuration (the
    hive uses [config.symexec_config] for both planner and prover).
    Fixes never enter the query — pods apply them, symbolic analysis
    reads only the program — so {!Knowledge} keeps one table for the
    program's whole life, across fix epochs, and across crashes too:
    {!Hive.checkpoint} writes every program's table through {!write},
    stamped with the symexec configuration, and {!Hive.restore} seeds
    the restored knowledge's table through {!read}.  No knowledge byte
    depends on the table, so it stays a pure accelerator; it is
    checkpointed only so a restored hive does not re-derive verdicts
    it already had.

    A federation derives each verdict once for all its hives, unless
    two shards first need it between the same two supersteps: before
    the coordinator's tick its tables take the shards' bindings, and
    after the tick every shard takes the coordinator's ({!union},
    {!Federation}). *)

module Ir := Softborg_prog.Ir
module Codec := Softborg_util.Codec
module Testgen := Softborg_symexec.Testgen

type verdict =
  [ `Test of Testgen.test_case
  | `Infeasible
  | `Unknown
  ]
(** Exactly {!Testgen.for_direction}'s result, so the planner can
    reuse entries the prover created and vice versa. *)

type binding = (Ir.site * bool) * verdict

type t

val create : unit -> t

val find : t -> site:Ir.site -> direction:bool -> verdict option
(** Cached verdict, if any; updates the hit/miss counters. *)

val add : t -> site:Ir.site -> direction:bool -> verdict -> unit
(** Bind a verdict someone else derived; no counter moves. *)

val iter : t -> (binding -> unit) -> unit
(** Every binding, in no particular order. *)

val union : into:t -> t -> unit
(** Add to [into] every binding of the second table that [into] lacks.
    No counter of either table moves, so verdicts handed between
    tables do not pass for lookups.  Both tables must serve one
    program at one symexec configuration. *)

val derive :
  ?memo:t ->
  ?config:Softborg_symexec.Sym_exec.config ->
  ?cache:Softborg_solver.Verdict_cache.t ->
  Ir.t ->
  site:Ir.site ->
  direction:bool ->
  verdict
(** The one place the hive derives a gap verdict: [memo]'s entry if it
    has one ({!find}, so a hit or a miss is counted), else
    {!Testgen.for_direction}'s answer, which is then {!add}ed.
    Without [memo] it always derives.  The planner and the prover both
    call it, so each reuses the other's entries. *)

val length : t -> int
val hits : t -> int
val misses : t -> int

val write_binding : Codec.Writer.t -> binding -> unit
(** One (site, direction, verdict) binding: the site's thread and pc,
    the direction, then tag 0 and the test case
    ({!Testgen.write_test_case}), tag 1 ([`Infeasible]) or tag 2
    ([`Unknown]).  The one verdict codec: {!write} and the cooperative
    coordinator's job results ({!Coop_symexec.encode_result}) use
    it. *)

val read_binding : Codec.Reader.t -> binding
(** Inverse of {!write_binding}.
    @raise Softborg_util.Codec.Malformed on an unknown verdict tag.
    @raise Softborg_util.Codec.Truncated on premature end. *)

val write : Codec.Writer.t -> t -> unit
(** The bindings ({!write_binding}), sorted by (site, direction) so
    equal tables write equal bytes.  The hit/miss counters are not
    written. *)

val read : Codec.Reader.t -> t -> unit
(** Add the bindings {!write} wrote to a table; its counters do not
    move.
    @raise Softborg_util.Codec.Malformed on an unknown verdict tag.
    @raise Softborg_util.Codec.Truncated on premature end. *)
