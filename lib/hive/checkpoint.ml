module Codec = Softborg_util.Codec

let magic = "SBCP"

(* v2: Exec_tree node ids and Knowledge.replay_cache_hits left the wire
   — knowledge bytes became a pure function of the ingested evidence
   (the federation merge-equality invariant).
   v3: staged-rollout state appended to each knowledge base (retracted
   fix ids + the fix-lifecycle ledger), so a restored hive cannot
   resurrect a retracted fix. *)
let format_version = 3

let encode_knowledge knowledge =
  let w = Codec.Writer.create () in
  Knowledge.write w knowledge;
  Codec.Writer.contents w

let decode_knowledge data =
  let r = Codec.Reader.of_string data in
  match
    let knowledge = Knowledge.read r in
    Codec.Reader.expect_end r;
    knowledge
  with
  | knowledge -> Ok knowledge
  | exception Codec.Truncated -> Error "truncated knowledge snapshot"
  | exception Codec.Malformed msg -> Error (Printf.sprintf "malformed knowledge snapshot: %s" msg)

(* Knowledge bases sorted by program digest, so the checkpoint bytes do
   not depend on the hive's hashtable iteration history. *)
let encode knowledge_list =
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.byte w (Char.code c)) magic;
  Codec.Writer.varint w format_version;
  Codec.Writer.list w
    (Knowledge.write w)
    (List.sort
       (fun a b -> String.compare (Knowledge.digest a) (Knowledge.digest b))
       knowledge_list);
  Codec.Writer.contents w

let read_magic r = String.init (String.length magic) (fun _ -> Char.chr (Codec.Reader.byte r))

let decode data =
  let r = Codec.Reader.of_string data in
  match
    let seen = read_magic r in
    if seen <> magic then Error (Printf.sprintf "bad checkpoint magic %S" seen)
    else
      let version = Codec.Reader.varint r in
      if version <> format_version then
        Error (Printf.sprintf "unsupported checkpoint version %d" version)
      else begin
        let knowledge = Codec.Reader.list r Knowledge.read in
        Codec.Reader.expect_end r;
        Ok knowledge
      end
  with
  | result -> result
  | exception Codec.Truncated -> Error "truncated checkpoint"
  | exception Codec.Malformed msg -> Error (Printf.sprintf "malformed checkpoint: %s" msg)
