(** Bounded least-recently-used cache.

    A polymorphic key/value cache that holds at most [capacity]
    entries; inserting into a full cache evicts the entry that was
    least recently found or added.  All operations are O(1) amortized
    (hash table plus intrusive doubly-linked recency list).

    Keys are compared with structural equality/hashing
    ([Hashtbl.hash]), so keys must not be functions or cyclic. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity] makes an empty cache.  @raise Invalid_argument
    if [capacity < 1]. *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Look up a key, promoting it to most-recently-used on a hit.
    Updates the {!hits}/{!misses} counters. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership test without promotion or counter updates. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite, promoting the key to most-recently-used.
    Evicts the least-recently-used entry if the cache is full. *)

val remove : ('k, 'v) t -> 'k -> unit

val clear : ('k, 'v) t -> unit
(** Drop every entry (counters are kept). *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
