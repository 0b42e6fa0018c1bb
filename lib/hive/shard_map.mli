(** Deterministic partition of the execution-tree key space across
    federation shards.

    A shard map assigns every branch-decision path to exactly one shard
    by interpreting the first [prefix_bits] decisions as an unsigned
    value (most-significant-first, zero-padded for shorter paths) and
    scaling it into [n_shards] contiguous ranges.  Contiguity keeps
    each shard's subtrees path-prefix-coherent; the zero-padding makes
    the owner of a short prefix the rendezvous shard for the LCA of any
    cross-shard path paste.  The map is a pure value — two routers (or
    a router before and after a restart) holding equal maps route
    identically, which the federation's determinism proof relies on. *)

module Bitvec := Softborg_util.Bitvec

type t

val create : ?prefix_bits:int -> n_shards:int -> unit -> t
(** [prefix_bits] defaults to 8 (256 ranges).  Raises [Invalid_argument]
    unless [n_shards >= 1] and [1 <= prefix_bits <= 20]. *)

val n_shards : t -> int
val prefix_bits : t -> int

val owner_of_bits : t -> Bitvec.t -> int
(** Owner of a full branch-decision vector (a trace's path). *)

val owner_of_prefix : t -> bool list -> int
(** Owner of a (possibly short) path prefix under zero-padding — the
    rendezvous owner for the subtree rooted at that prefix. *)

val owner_of_digest : t -> string -> int
(** Owner for path-less work (sampled reports), by a deterministic
    seed-free hash of the program digest. *)

val owner_of_verdict :
  t -> program:string -> thread:int -> pc:int -> direction:bool -> int
(** Owner of one frontier-gap verdict.  Verdicts are path-independent —
    the solver keys its directed exploration by (site, direction), not
    by the prefix the gap appears under — and a hot site recurs in
    every shard's subtree, so verdict work is partitioned by a hash of
    (program digest, site, direction) rather than by path range:
    each distinct verdict is derived on exactly one shard.  Equals
    [owner_of_digest t (Printf.sprintf "%s/%d:%d:%c" program thread pc
    (if direction then 't' else 'f'))], computed without building the
    string. *)

val pp : Format.formatter -> t -> unit
