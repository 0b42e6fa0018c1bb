module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Bitvec = Softborg_util.Bitvec
module Codec = Softborg_util.Codec

type entry = {
  mutable count : int;
  size : int;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable received : int;
  mutable bytes_received : int;
  mutable bytes_stored : int;
  (* Admissions that had to re-encode because the caller did not hand
     over prepared canonical bytes.  The hive's serving paths prepare
     every trace exactly once at decode time, so this stays 0 there —
     a regression guard against the double-encode creeping back in.
     Not checkpointed: knowledge bytes are a pure function of the
     ingested evidence, not of which code path delivered it. *)
  mutable fallback_encodes : int;
}

let create () =
  {
    entries = Hashtbl.create 64;
    received = 0;
    bytes_received = 0;
    bytes_stored = 0;
    fallback_encodes = 0;
  }

(* Content digest input: everything except the per-upload identifiers
   (trace id and reporting pod) — two pods reporting the same execution
   content deduplicate. *)
let encode_content (trace : Trace.t) =
  Wire.encode { trace with Trace.trace_id = Softborg_util.Ids.Trace_id.of_int 0; pod = 0 }

let content_key trace = Digest.to_hex (Digest.string (encode_content trace))

type prepared = {
  p_trace : Trace.t;
  p_encoded : string;
  p_key : string;
  p_size : int;
}

(* One encode serves everything downstream: the canonical wire bytes
   (federation superstep deltas re-ship them verbatim), the content
   digest, and the byte accounting.  The content buffer differs from
   the real encoding only in the pod varint — spliced to a single zero
   byte instead of encoding the whole trace a second time.  The size
   recorded is the content buffer's, not the upload's: the pod varint
   takes two bytes from pod 128 on, and the store keeps the size of a
   content's first copy, so sizing the upload would make the stored
   bytes depend on which pod's copy arrived first. *)
let prepare (trace : Trace.t) =
  let encoded = Wire.encode trace in
  let dlen = String.length trace.Trace.program_digest in
  let off = Codec.varint_len dlen + dlen in
  let plen = Codec.varint_len trace.Trace.pod in
  let content =
    String.concat ""
      [
        String.sub encoded 0 off;
        "\x00";
        String.sub encoded (off + plen) (String.length encoded - off - plen);
      ]
  in
  {
    p_trace = trace;
    p_encoded = encoded;
    p_key = Digest.to_hex (Digest.string content);
    p_size = String.length content;
  }

let with_trace prepared trace = { prepared with p_trace = trace }

type admission =
  | Novel
  | Duplicate of int

let record t key size =
  t.received <- t.received + 1;
  t.bytes_received <- t.bytes_received + size;
  match Hashtbl.find_opt t.entries key with
  | Some entry ->
    entry.count <- entry.count + 1;
    (key, Duplicate entry.count)
  | None ->
    Hashtbl.replace t.entries key { count = 1; size };
    t.bytes_stored <- t.bytes_stored + size;
    (key, Novel)

let admit_keyed ?prepared t (trace : Trace.t) =
  match prepared with
  | Some p -> record t p.p_key p.p_size
  | None ->
    (* No prepared bytes: encode the content here (the same buffer
       [prepare] hashes and sizes). *)
    t.fallback_encodes <- t.fallback_encodes + 1;
    let encoded = encode_content trace in
    record t (Digest.to_hex (Digest.string encoded)) (String.length encoded)

let admit t trace = snd (admit_keyed t trace)
let fallback_encodes t = t.fallback_encodes

let distinct t = Hashtbl.length t.entries
let received t = t.received
let bytes_received t = t.bytes_received
let bytes_stored t = t.bytes_stored

let dedup_ratio t =
  if t.bytes_stored = 0 then 1.0
  else float_of_int t.bytes_received /. float_of_int t.bytes_stored

let multiplicity t trace =
  match Hashtbl.find_opt t.entries (content_key trace) with
  | Some entry -> entry.count
  | None -> 0

let heaviest t ~n =
  Hashtbl.fold (fun key entry acc -> (key, entry.count) :: acc) t.entries []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  |> List.filteri (fun i _ -> i < n)

(* Entries sorted by digest so equal stores serialize to equal bytes
   regardless of hashtable history. *)
let write w t =
  Codec.Writer.varint w t.received;
  Codec.Writer.varint w t.bytes_received;
  Codec.Writer.varint w t.bytes_stored;
  Codec.Writer.list w
    (fun (key, entry) ->
      Codec.Writer.bytes w key;
      Codec.Writer.varint w entry.count;
      Codec.Writer.varint w entry.size)
    (Hashtbl.fold (fun key entry acc -> (key, entry) :: acc) t.entries []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let read r =
  let received = Codec.Reader.varint r in
  let bytes_received = Codec.Reader.varint r in
  let bytes_stored = Codec.Reader.varint r in
  let entries = Hashtbl.create 64 in
  List.iter
    (fun (key, entry) -> Hashtbl.replace entries key entry)
    (Codec.Reader.list r (fun r ->
         let key = Codec.Reader.bytes r in
         let count = Codec.Reader.varint r in
         let size = Codec.Reader.varint r in
         (key, { count; size })));
  { entries; received; bytes_received; bytes_stored; fallback_encodes = 0 }
