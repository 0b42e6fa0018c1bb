exception Truncated
exception Malformed of string

(* The one definition of "how many bytes does this varint take";
   accounting code (trace-store byte counters) must agree with the
   writer below byte-for-byte. *)
let varint_len v =
  if v < 0 then invalid_arg "Codec.varint_len: negative";
  let rec loop v acc = if v < 0x80 then acc else loop (v lsr 7) (acc + 1) in
  loop v 1

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let length = Buffer.length
  let byte t v = Buffer.add_char t (Char.chr (v land 0xff))

  let varint t v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative";
    let rec loop v =
      if v < 0x80 then byte t v
      else begin
        byte t (v land 0x7f lor 0x80);
        loop (v lsr 7)
      end
    in
    loop v

  (* Unsigned encoding of the raw bit pattern; [lsr] keeps the loop
     total even when the zigzag transform wraps into the sign bit. *)
  let uvarint t v =
    let rec loop v =
      if v land lnot 0x7f = 0 then byte t v
      else begin
        byte t (v land 0x7f lor 0x80);
        loop (v lsr 7)
      end
    in
    loop v

  let zigzag t v = uvarint t ((v lsl 1) lxor (v asr (Sys.int_size - 1)))
  let bool t b = byte t (if b then 1 else 0)

  let float t f =
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      byte t (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
    done

  let bytes t s =
    varint t (String.length s);
    Buffer.add_string t s

  let list t f xs =
    varint t (List.length xs);
    List.iter f xs

  let contents = Buffer.contents
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }
  let remaining t = String.length t.data - t.pos

  let byte t =
    if t.pos >= String.length t.data then raise Truncated;
    let v = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    v

  (* The raw bit pattern, which [Writer.uvarint] may have written with
     the sign bit set. *)
  let uvarint t =
    let rec loop shift acc =
      if shift >= Sys.int_size then raise (Malformed "varint too long");
      let b = byte t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else loop (shift + 7) acc
    in
    loop 0 0

  (* [Writer.varint] writes no negative value, so one that decodes
     negative (a count or length, most often) is garbage. *)
  let varint t =
    let v = uvarint t in
    if v < 0 then raise (Malformed "varint overflows into the sign bit");
    v

  let zigzag t =
    let v = uvarint t in
    (v lsr 1) lxor (-(v land 1))

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Malformed (Printf.sprintf "bool byte %d" n))

  let float t =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte t)) (8 * i))
    done;
    Int64.float_of_bits !bits

  let bytes t =
    let n = varint t in
    if remaining t < n then raise Truncated;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let list t f =
    let n = varint t in
    List.init n (fun _ -> f t)

  let expect_end t =
    let n = remaining t in
    if n > 0 then raise (Malformed (Printf.sprintf "%d trailing bytes" n))
end
