(** Deterministic partition of the execution-tree key space across
    federation shards.

    A shard map assigns every branch-decision path to exactly one shard
    by interpreting the first [prefix_bits] decisions as an unsigned
    value (most-significant-first, zero-padded for shorter paths) and
    scaling it into [n_shards] contiguous ranges.  Contiguity keeps
    each shard's subtrees path-prefix-coherent.  The map is a pure
    value — two routers (or a router before and after a restart)
    holding equal maps route identically, which the federation's
    determinism proof relies on. *)

module Bitvec := Softborg_util.Bitvec

type t

val create : ?prefix_bits:int -> n_shards:int -> unit -> t
(** [prefix_bits] defaults to 8 (256 ranges).  Raises [Invalid_argument]
    unless [n_shards >= 1] and [1 <= prefix_bits <= 20]. *)

val n_shards : t -> int

val owner_of_bits : t -> Bitvec.t -> int
(** Owner of a branch-decision vector (a trace's path).  A path shorter
    than [prefix_bits] has the owner of its all-false extension. *)

val owner_of_digest : t -> string -> int
(** Owner for path-less work (sampled reports) and whole batch frames,
    by a deterministic seed-free hash of the program digest. *)
