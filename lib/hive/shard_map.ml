module Bitvec = Softborg_util.Bitvec

type t = { n_shards : int; prefix_bits : int }

let max_prefix_bits = 20

let create ?(prefix_bits = 8) ~n_shards () =
  if n_shards < 1 then invalid_arg "Shard_map.create: n_shards must be >= 1";
  if prefix_bits < 1 || prefix_bits > max_prefix_bits then
    invalid_arg
      (Printf.sprintf "Shard_map.create: prefix_bits %d out of [1,%d]" prefix_bits
         max_prefix_bits);
  { n_shards; prefix_bits }

let n_shards t = t.n_shards

(* The key space is the first [prefix_bits] branch decisions of a path,
   read most-significant-first and zero-padded when the path is
   shorter. *)
let scale t value = value * t.n_shards / (1 lsl t.prefix_bits)

let owner_of_bits t bits =
  let length = Bitvec.length bits in
  let value = ref 0 in
  for i = 0 to t.prefix_bits - 1 do
    let b = i < length && Bitvec.get bits i in
    value := (!value lsl 1) lor if b then 1 else 0
  done;
  scale t !value

(* Path-less work (sampled reports) routes by program digest via a
   seed-free FNV-1a fold, so every router instance — and a restarted
   one — agrees on the owner without shared state. *)
let fnv_offset = 0x811c9dc5
let fnv_byte h c = (h lxor c) * 0x01000193 land 0x3FFFFFFF
let fnv_string h s = String.fold_left (fun h c -> fnv_byte h (Char.code c)) h s

let owner_of_digest t digest =
  scale t (fnv_string fnv_offset digest land ((1 lsl t.prefix_bits) - 1))
