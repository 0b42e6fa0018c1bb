(** Growable bit vectors.

    SoftBorg encodes an execution of a program as a vector of branch
    decisions — one bit per input-dependent branch site traversed (paper
    §3.1).  This module provides the packed, append-oriented bit vector
    used throughout trace capture, wire encoding, and execution-tree
    merging. *)

type t
(** Mutable growable vector of bits.  Bits are indexed from 0 in append
    order. *)

val create : unit -> t
(** [create ()] is an empty bit vector. *)

val of_bools : bool list -> t
(** [of_bools bs] is the vector holding exactly [bs], in order. *)

val length : t -> int
(** Number of bits stored. *)

val push : t -> bool -> unit
(** [push t b] appends bit [b]. *)

val get : t -> int -> bool
(** [get t i] is bit [i].  @raise Invalid_argument if [i] is out of
    range. *)

val set : t -> int -> bool -> unit
(** [set t i b] overwrites bit [i].  @raise Invalid_argument if [i] is
    out of range. *)

val copy : t -> t
(** Independent copy. *)

val append : t -> t -> unit
(** [append dst src] appends all bits of [src] to [dst]. *)

val truncate : t -> int -> unit
(** [truncate t n] keeps only the first [n] bits.
    @raise Invalid_argument if [n] exceeds [length t]. *)

val pop_count : t -> int
(** Number of set bits. *)

val fold : ('a -> bool -> 'a) -> 'a -> t -> 'a
(** Left fold over bits in index order. *)

val equal : t -> t -> bool
(** Structural equality on length and contents. *)

val compare : t -> t -> int
(** Lexicographic order on bits, shorter vectors first on ties. *)

val common_prefix : t -> t -> int
(** [common_prefix a b] is the length of the longest shared prefix.
    This is the primitive behind lowest-common-ancestor path pasting
    (paper Fig. 3). *)

val is_prefix : t -> t -> bool
(** [is_prefix p t] is true iff [p] is a prefix of [t]. *)

val to_bytes : t -> string
(** Packed little-endian-bit representation (8 bits per byte, final
    byte zero-padded).  Pair with [length] for lossless round trips. *)

val of_bytes : string -> int -> t
(** [of_bytes s n] reconstructs a vector of [n] bits from [to_bytes]
    output.  @raise Invalid_argument if [s] is too short for [n]. *)

val to_string : t -> string
(** Human-readable ["0110…"] rendering. *)

val of_string : string -> t
(** Inverse of [to_string].  @raise Invalid_argument on characters
    other than ['0'] and ['1']. *)

val xor : t -> t -> t
(** [xor a b] is the bitwise XOR, with the result's length equal to
    [length a]; [b] is zero-extended or truncated as needed.  Since
    [xor (xor a b) b = a], this is the primitive behind delta wire
    encoding of branch vectors against a shared basis. *)

val hash : t -> int
(** FNV-1a hash of length and contents; equal vectors hash equally. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer, rendering as [to_string]. *)
