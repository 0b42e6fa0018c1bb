(** Typed identifiers.  {!Trace_id}, the id of an uploaded trace, is
    abstract over [int], so it cannot be used where a plain integer is
    expected. *)

module type S = sig
  type t

  val of_int : int -> t
  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit

  val fresh : unit -> t
  (** Process-wide fresh id (monotonic).  Deterministic given call
      order, which the simulator guarantees. *)
end

module Trace_id : S
