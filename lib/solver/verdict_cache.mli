(** Path-condition verdict cache.

    Symbolic exploration re-derives the same path conditions over and
    over — sibling directions share prefixes, guidance re-plans over
    the same frontier, cooperating provers chase the same gaps.  Each
    query's answer is a pure function of (query kind, domain, arity,
    budget, condition), so it can be memoized across the whole hive
    tick in one bounded LRU keyed by the condition's canonical digest
    ({!Path_cond.digest}).

    Every cached value equals what recomputation would produce, so a
    hit changes no verdict, only the work done.  Since a key pins down the
    whole query, an entry never goes stale: the hive keeps one cache
    per program for the program's whole life, fix epochs included.
    The cache is not synchronized; like the rest of the hive, it runs
    on one domain. *)

type entry =
  | Check of [ `Feasible | `Infeasible | `Unknown ]
      (** Result of a bound-propagation feasibility check. *)
  | Solved of Interval.verdict
      (** Result of a budget-bounded model search. *)

type t

val create : unit -> t
(** An empty cache holding at most 4096 entries. *)

val check_key : domain:int * int -> n_inputs:int -> Path_cond.t -> string
(** Key for a {!Check} query (budget-independent). *)

val solve_key : domain:int * int -> n_inputs:int -> budget:int -> Path_cond.t -> string
(** Key for a {!Solved} query; the budget is part of the key because a
    bigger budget can turn [Timeout] into a decision. *)

val find : t -> string -> entry option
val add : t -> string -> entry -> unit

val length : t -> int
val hits : t -> int
val misses : t -> int
