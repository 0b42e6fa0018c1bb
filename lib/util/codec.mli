(** Binary wire codec.

    Pods relay trace by-products to the hive over the (simulated)
    Internet; the wire format must be compact because recording
    overhead and upload volume are first-order costs in the paper
    (§3.1).  This module provides an append-only writer and a cursor
    reader over LEB128 varints, raw bytes, and length-prefixed
    strings/lists. *)

exception Truncated
(** Raised by readers on premature end of input. *)

exception Malformed of string
(** Raised by readers on structurally invalid input (e.g. an
    over-long varint). *)

val varint_len : int -> int
(** Encoded size in bytes of [Writer.varint]'s output for the same
    value — the single definition shared by size accounting (e.g. the
    trace store's byte counters).
    @raise Invalid_argument on negative input. *)

module Writer : sig
  type t

  val create : unit -> t
  val length : t -> int

  val byte : t -> int -> unit
  (** Append one byte (low 8 bits of the argument). *)

  val varint : t -> int -> unit
  (** Append a non-negative integer as LEB128.
      @raise Invalid_argument on negative input. *)

  val zigzag : t -> int -> unit
  (** Append a possibly-negative integer, zigzag-encoded then LEB128. *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit

  val bytes : t -> string -> unit
  (** Append raw bytes with a varint length prefix. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** [list w f xs] appends a varint count then each element via [f]. *)

  val contents : t -> string
end

module Reader : sig
  type t

  val of_string : string -> t

  val remaining : t -> int
  (** Bytes left to read. *)

  val byte : t -> int

  val varint : t -> int
  (** @raise Malformed on a value with the sign bit set, which
      [Writer.varint] never writes. *)

  val zigzag : t -> int
  val bool : t -> bool
  val float : t -> float
  val bytes : t -> string
  val list : t -> (t -> 'a) -> 'a list

  val expect_end : t -> unit
  (** Check that the whole input was read: a frame with bytes after its
      last field is as malformed as one cut short.
      @raise Malformed if any bytes remain. *)
end
