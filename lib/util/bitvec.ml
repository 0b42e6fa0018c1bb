type t = { mutable data : Bytes.t; mutable len : int }

let create () = { data = Bytes.make 8 '\000'; len = 0 }

let length t = t.len

let ensure_capacity t bits =
  let needed = (bits + 7) / 8 in
  if needed > Bytes.length t.data then begin
    let cap = max needed (2 * Bytes.length t.data) in
    let data = Bytes.make cap '\000' in
    Bytes.blit t.data 0 data 0 (Bytes.length t.data);
    t.data <- data
  end

let unsafe_get t i =
  let byte = Char.code (Bytes.unsafe_get t.data (i lsr 3)) in
  byte land (1 lsl (i land 7)) <> 0

let unsafe_set t i b =
  let idx = i lsr 3 in
  let mask = 1 lsl (i land 7) in
  let byte = Char.code (Bytes.unsafe_get t.data idx) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set t.data idx (Char.unsafe_chr byte)

let push t b =
  ensure_capacity t (t.len + 1);
  unsafe_set t t.len b;
  t.len <- t.len + 1

let of_bools bs =
  let t = create () in
  List.iter (push t) bs;
  t

let check_index t i op =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Bitvec.%s: index %d out of [0,%d)" op i t.len)

let get t i =
  check_index t i "get";
  unsafe_get t i

let set t i b =
  check_index t i "set";
  unsafe_set t i b

let copy t = { data = Bytes.copy t.data; len = t.len }

let append dst src =
  for i = 0 to src.len - 1 do
    push dst (unsafe_get src i)
  done

let truncate t n =
  if n < 0 || n > t.len then
    invalid_arg (Printf.sprintf "Bitvec.truncate: %d out of [0,%d]" n t.len);
  (* Clear the dropped tail so that to_bytes/equality stay canonical. *)
  for i = n to t.len - 1 do
    unsafe_set t i false
  done;
  t.len <- n

let pop_count t =
  let count = ref 0 in
  for i = 0 to t.len - 1 do
    if unsafe_get t i then incr count
  done;
  !count

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (unsafe_get t i)
  done;
  !acc

let equal a b =
  a.len = b.len
  &&
  let rec loop i = i >= a.len || (unsafe_get a i = unsafe_get b i && loop (i + 1)) in
  loop 0

let compare a b =
  let rec loop i =
    if i >= a.len && i >= b.len then 0
    else if i >= a.len then -1
    else if i >= b.len then 1
    else
      match (unsafe_get a i, unsafe_get b i) with
      | false, true -> -1
      | true, false -> 1
      | _ -> loop (i + 1)
  in
  loop 0

let common_prefix a b =
  let limit = min a.len b.len in
  let rec loop i = if i < limit && unsafe_get a i = unsafe_get b i then loop (i + 1) else i in
  loop 0

let is_prefix p t = p.len <= t.len && common_prefix p t = p.len

let to_bytes t = Bytes.sub_string t.data 0 ((t.len + 7) / 8)

let of_bytes s n =
  if n < 0 || String.length s < (n + 7) / 8 then
    invalid_arg "Bitvec.of_bytes: string too short";
  let t = create () in
  ensure_capacity t n;
  Bytes.blit_string s 0 t.data 0 ((n + 7) / 8);
  t.len <- n;
  (* Zero any padding bits so canonical equality holds. *)
  for i = n to (8 * ((n + 7) / 8)) - 1 do
    if i < 8 * Bytes.length t.data then unsafe_set t i false
  done;
  t

let to_string t = String.init t.len (fun i -> if unsafe_get t i then '1' else '0')

let of_string s =
  let t = create () in
  String.iter
    (function
      | '0' -> push t false
      | '1' -> push t true
      | c -> invalid_arg (Printf.sprintf "Bitvec.of_string: bad char %C" c))
    s;
  t

let xor a b =
  (* Result length follows [a]; [b] is zero-extended (or truncated) to
     match, so [xor (xor a b) b] = [a] for any basis [b] — the property
     delta wire decoding relies on. *)
  let r = create () in
  ensure_capacity r a.len;
  r.len <- a.len;
  let a_bytes = (a.len + 7) / 8 in
  let b_bytes = (b.len + 7) / 8 in
  for i = 0 to a_bytes - 1 do
    let av = Char.code (Bytes.unsafe_get a.data i) in
    let bv = if i < b_bytes then Char.code (Bytes.unsafe_get b.data i) else 0 in
    Bytes.unsafe_set r.data i (Char.unsafe_chr (av lxor bv))
  done;
  (* Zero padding bits that [b]'s tail byte may have leaked past
     [a.len], and any of [b]'s real bits beyond [a.len] inside the
     shared final byte. *)
  for i = a.len to (8 * a_bytes) - 1 do
    if i < 8 * Bytes.length r.data then unsafe_set r i false
  done;
  r

let hash t =
  let fnv_prime = 0x100000001b3 in
  let h = ref 0x3bf29ce484222325 in
  let mix x =
    h := !h lxor x;
    h := !h * fnv_prime land max_int
  in
  mix t.len;
  for i = 0 to (t.len + 7) / 8 - 1 do
    mix (Char.code (Bytes.get t.data i))
  done;
  !h

let pp fmt t = Format.pp_print_string fmt (to_string t)
