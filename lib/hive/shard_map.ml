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
let prefix_bits t = t.prefix_bits

(* The key space is the first [prefix_bits] branch decisions of a path,
   read most-significant-first and zero-padded when the path is
   shorter.  The zero-pad is what makes short prefixes a rendezvous
   point: any path through a subtree rooted at prefix p extends p, and
   the subtree's *leftmost* extension (all-false) shares the owner of
   the padded prefix, so the owner of [prefix · 0^k] is a fixed,
   locally computable meeting shard for the LCA of any cross-shard
   paste — no negotiation round needed. *)
let scale t value = value * t.n_shards / (1 lsl t.prefix_bits)

let owner_of_key t key ~length ~bit =
  let value = ref 0 in
  for i = 0 to t.prefix_bits - 1 do
    let b = i < length && bit key i in
    value := (!value lsl 1) lor if b then 1 else 0
  done;
  scale t !value

let owner_of_bits t bits =
  owner_of_key t bits ~length:(Bitvec.length bits) ~bit:Bitvec.get

let owner_of_prefix t prefix =
  let arr = Array.of_list prefix in
  owner_of_key t arr ~length:(Array.length arr) ~bit:Array.get

(* Path-less work (sampled reports) routes by program digest via a
   seed-free FNV-1a fold, so every router instance — and a restarted
   one — agrees on the owner without shared state. *)
let fnv_offset = 0x811c9dc5
let fnv_byte h c = (h lxor c) * 0x01000193 land 0x3FFFFFFF
let fnv_string h s = String.fold_left (fun h c -> fnv_byte h (Char.code c)) h s

(* The bytes of [string_of_int n], folded without building it. *)
let rec fnv_decimal h n =
  let h = if n >= 10 then fnv_decimal h (n / 10) else h in
  fnv_byte h (Char.code '0' + (n mod 10))

let fnv_int h n = if n < 0 then fnv_string h (string_of_int n) else fnv_decimal h n
let owner_of_hash t h = scale t (h land ((1 lsl t.prefix_bits) - 1))
let owner_of_digest t digest = owner_of_hash t (fnv_string fnv_offset digest)

(* Gap verdicts are path-independent: the solver's directed exploration
   (and both memo layers above it) key on (site, direction) alone, and a
   hot branch site recurs in every shard's subtree.  Owning verdicts by
   prefix would therefore make each shard re-derive nearly the full
   verdict set; hashing (program, site, direction) instead partitions
   the solver work itself.  The hashed bytes are those of
   ["<program>/<thread>:<pc>:<t|f>"], fed to the fold one piece at a
   time: the ownership test runs once per frontier entry a shard's
   compute phase walks, so it formats no string. *)
let owner_of_verdict t ~program ~thread ~pc ~direction =
  let h = fnv_byte (fnv_string fnv_offset program) (Char.code '/') in
  let h = fnv_byte (fnv_int h thread) (Char.code ':') in
  let h = fnv_byte (fnv_int h pc) (Char.code ':') in
  owner_of_hash t (fnv_byte h (Char.code (if direction then 't' else 'f')))

let pp fmt t = Format.fprintf fmt "shard-map{n=%d bits=%d}" t.n_shards t.prefix_bits
