(** Lock-order graphs.

    "Traces of lock acquisitions/releases in a program's threads can be
    used to reason about the presence/absence of deadlocks" (paper §2).
    The graph has one node per lock and an edge a→b for every
    observation of a thread acquiring [b] while holding [a]; a cycle is
    a {e potential} deadlock even if no execution has deadlocked yet.
    Graphs from many traces merge monotonically at the hive. *)

module Interp := Softborg_exec.Interp

type t

val create : unit -> t

val add_events : t -> Interp.lock_event list -> unit
(** Fold one execution's lock events into the graph.  An empty list
    (a run that took no lock) allocates nothing. *)

val merge : t -> t -> unit
(** [merge dst src] adds all of [src]'s observations into [dst]. *)

val edge_count : t -> int -> int -> int
(** How often "held [a], acquired [b]" was observed. *)

val edges : t -> (int * int * int) list
(** All [(held, acquired, count)] edges. *)

val locks : t -> int list
(** Locks that appear in the graph, ascending. *)

val cycles : t -> int list list
(** Simple cycles, each as a sorted deduplicated lock list (the cycle's
    lock set).  Distinct lock sets only. *)

val pp : Format.formatter -> t -> unit

val write : Softborg_util.Codec.Writer.t -> t -> unit
(** Checkpoint codec: edges in ascending (held, acquired) order, so
    equal graphs serialize to equal bytes. *)

val read : Softborg_util.Codec.Reader.t -> t
(** @raise Softborg_util.Codec.Malformed on invalid input.
    @raise Softborg_util.Codec.Truncated on premature end. *)
