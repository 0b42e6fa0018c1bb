type t = { mutable state : int64; mutable zipf_cache : (int * float * float array) option }

(* SplitMix64 (Steele, Lea, Flood 2014): tiny state, excellent
   statistical quality for simulation purposes, and trivially
   splittable. *)

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed; zipf_cache = None }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let child_seed = bits64 t in
  { state = mix64 child_seed; zipf_cache = None }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* [land max_int] clears the sign bit of the truncated 63-bit value,
     keeping the result in OCaml's non-negative int range. *)
  let mask = Int64.to_int (bits64 t) land max_int in
  mask mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 uniform mantissa bits in [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int bits /. 9007199254740992.0

let float t x = unit_float t *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  let p = if p < 0. then 0. else if p > 1. then 1. else p in
  unit_float t < p

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. unit_float t in
  -.log u /. rate

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1. then 0
  else
    let u = 1.0 -. unit_float t in
    int_of_float (floor (log u /. log (1. -. p)))

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  let cdf =
    match t.zipf_cache with
    | Some (cached_n, cached_s, cdf) when cached_n = n && cached_s = s -> cdf
    | _ ->
      let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let acc = ref 0.0 in
      let cdf =
        Array.map
          (fun w ->
            acc := !acc +. (w /. total);
            !acc)
          weights
      in
      t.zipf_cache <- Some (n, s, cdf);
      cdf
  in
  let u = unit_float t in
  (* Binary search for the first index with cdf >= u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let weighted_choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.weighted_choice: empty array";
  let total = Array.fold_left (fun acc (_, w) -> acc +. max 0.0 w) 0.0 arr in
  if total <= 0. then invalid_arg "Rng.weighted_choice: zero total weight";
  let target = float t total in
  let rec pick i acc =
    if i = Array.length arr - 1 then fst arr.(i)
    else
      let acc = acc +. max 0.0 (snd arr.(i)) in
      if target < acc then fst arr.(i) else pick (i + 1) acc
  in
  pick 0 0.0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  if k > Array.length arr then invalid_arg "Rng.sample_without_replacement: k too large";
  let pool = Array.copy arr in
  shuffle t pool;
  Array.sub pool 0 k
