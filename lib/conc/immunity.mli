(** Deadlock immunity: the synthesized fix for deadlock bugs.

    Once the hive knows a deadlock pattern, it "synthesizes
    instrumentation that protects P from thread schedules that trigger
    that deadlock, avoiding future occurrences" (paper §3, after Jula
    et al.'s deadlock immunity).  The instrumentation serializes entry
    into each known pattern: a thread about to take its {e first} lock
    of a pattern defers while any other thread holds any lock of that
    pattern.  A thread already inside a pattern always proceeds, so the
    program cannot livelock on the avoidance itself; the cost is
    deferred acquisitions, which the interpreter counts. *)

module Interp := Softborg_exec.Interp

type t

val create : patterns:int list list -> t
(** [create ~patterns] builds an immunizer for the given deadlock
    patterns (each a lock set). *)

val patterns : t -> int list list

val add_pattern : t -> int list -> unit
(** Learn an additional pattern (idempotent). *)

val hooks : t -> Interp.hooks
(** The runtime hooks to pass to {!Softborg_exec.Interp.run}. *)
