module type S = sig
  type t

  val of_int : int -> t
  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
  val fresh : unit -> t
end

module Make (Tag : sig
  val name : string
end) : S = struct
  type t = int

  let of_int i = i
  let to_int i = i
  let equal = Int.equal
  let compare = Int.compare
  let hash i = i
  let pp fmt i = Format.fprintf fmt "%s#%d" Tag.name i

  let counter = ref 0

  let fresh () =
    incr counter;
    !counter
end

module Trace_id = Make (struct let name = "trace" end)
