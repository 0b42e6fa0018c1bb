module Codec = Softborg_util.Codec
module Ir_codec = Softborg_prog.Ir_codec
module Sampling = Softborg_trace.Sampling
module Wire = Softborg_trace.Wire

type message =
  | Trace_upload of string
  | Sampled_report of { program_digest : string; report : Sampling.t }
  | Fix_update of {
      program_digest : string;
      epoch : int;
      fixes : Fixgen.fix list;
      canary : int list;
      canary_mils : int;
      pressure : int;
    }
  | Guidance_update of {
      program_digest : string;
      directives : Guidance.directive list;
      pressure : int;
    }
  | Pressure_update of { level : int }
  | Knowledge_delta of {
      shard : int;
      seq : int;
      payloads : (string * int) list;
    }
  | Batch_upload of { program_digest : string; records : string list }

let message_name = function
  | Trace_upload _ -> "trace-upload"
  | Sampled_report _ -> "sampled-report"
  | Fix_update _ -> "fix-update"
  | Guidance_update _ -> "guidance-update"
  | Pressure_update _ -> "pressure-update"
  | Knowledge_delta _ -> "knowledge-delta"
  | Batch_upload _ -> "batch-upload"

let write_sampled w (report : Sampling.t) =
  Codec.Writer.varint w report.Sampling.rate;
  Codec.Writer.varint w report.Sampling.observed;
  Codec.Writer.varint w report.Sampling.total;
  Codec.Writer.list w
    (fun ({ Sampling.site; direction }, count) ->
      Ir_codec.write_dir w (site, direction);
      Codec.Writer.varint w count)
    report.Sampling.counts;
  Wire.encode_outcome w report.Sampling.outcome

let read_sampled ?caps r =
  let rate = Codec.Reader.varint r in
  let observed = Codec.Reader.varint r in
  let total = Codec.Reader.varint r in
  let counts =
    Codec.Reader.list r (fun r ->
        let site, direction = Ir_codec.read_dir r in
        let count = Codec.Reader.varint r in
        ({ Sampling.site; direction }, count))
  in
  (match caps with
  | Some c when List.length counts > c.Wire.max_predicates ->
    raise
      (Codec.Malformed
         (Printf.sprintf "predicate rows %d exceed cap %d" (List.length counts)
            c.Wire.max_predicates))
  | _ -> ());
  let outcome = Wire.decode_outcome ?caps r in
  { Sampling.rate; counts; observed; total; outcome }

let encode message =
  let w = Codec.Writer.create () in
  (match message with
  | Trace_upload payload ->
    Codec.Writer.byte w 0;
    Codec.Writer.bytes w payload
  | Sampled_report { program_digest; report } ->
    Codec.Writer.byte w 1;
    Codec.Writer.bytes w program_digest;
    write_sampled w report
  | Fix_update { program_digest; epoch; fixes; canary; canary_mils; pressure } ->
    Codec.Writer.byte w 2;
    Codec.Writer.bytes w program_digest;
    Codec.Writer.varint w epoch;
    Codec.Writer.varint w pressure;
    Codec.Writer.list w (Fixgen.write_fix w) fixes;
    Codec.Writer.list w (Codec.Writer.varint w) canary;
    Codec.Writer.varint w canary_mils
  | Guidance_update { program_digest; directives; pressure } ->
    Codec.Writer.byte w 3;
    Codec.Writer.bytes w program_digest;
    Codec.Writer.varint w pressure;
    Codec.Writer.list w (Guidance.write_directive w) directives
  | Pressure_update { level } ->
    Codec.Writer.byte w 4;
    Codec.Writer.varint w level
  | Knowledge_delta { shard; seq; payloads } ->
    Codec.Writer.byte w 6;
    Codec.Writer.varint w shard;
    Codec.Writer.varint w seq;
    Codec.Writer.list w
      (fun (payload, copies) ->
        Codec.Writer.bytes w payload;
        Codec.Writer.varint w copies)
      payloads
  | Batch_upload { program_digest; records } ->
    Codec.Writer.byte w 8;
    Codec.Writer.bytes w program_digest;
    Codec.Writer.list w (Codec.Writer.bytes w) records);
  Codec.Writer.contents w

(* Frame rows share the pod-facing row cap: a Knowledge_delta's payload
   count and a Fix_update's canary ids are bounded like sampled-report
   predicate rows, so a poison frame cannot force unbounded allocation
   either. *)
let check_rows ?caps ~what n =
  match caps with
  | Some c when n > c.Wire.max_predicates ->
    raise (Codec.Malformed (Printf.sprintf "%s %d exceed cap %d" what n c.Wire.max_predicates))
  | _ -> ()

let read_message ?caps r =
  match Codec.Reader.byte r with
  | 0 -> Trace_upload (Codec.Reader.bytes r)
  | 1 ->
    let program_digest = Codec.Reader.bytes r in
    let report = read_sampled ?caps r in
    Sampled_report { program_digest; report }
  | 2 ->
    let program_digest = Codec.Reader.bytes r in
    let epoch = Codec.Reader.varint r in
    let pressure = Codec.Reader.varint r in
    let fixes = Codec.Reader.list r Fixgen.read_fix in
    let canary = Codec.Reader.list r Codec.Reader.varint in
    check_rows ?caps ~what:"canary ids" (List.length canary);
    let canary_mils = Codec.Reader.varint r in
    Fix_update { program_digest; epoch; fixes; canary; canary_mils; pressure }
  | 3 ->
    let program_digest = Codec.Reader.bytes r in
    let pressure = Codec.Reader.varint r in
    let directives = Codec.Reader.list r Guidance.read_directive in
    Guidance_update { program_digest; directives; pressure }
  | 4 -> Pressure_update { level = Codec.Reader.varint r }
  | 6 ->
    let shard = Codec.Reader.varint r in
    let seq = Codec.Reader.varint r in
    let payloads =
      Codec.Reader.list r (fun r ->
          let payload = Codec.Reader.bytes r in
          let copies = Codec.Reader.varint r in
          if copies < 1 then raise (Codec.Malformed "delta payload with no copies");
          (payload, copies))
    in
    check_rows ?caps ~what:"delta payloads" (List.length payloads);
    Knowledge_delta { shard; seq; payloads }
  | 8 ->
    let program_digest = Codec.Reader.bytes r in
    let records = Codec.Reader.list r Codec.Reader.bytes in
    (match caps with
    | Some c when List.length records > c.Wire.max_batch_records ->
      raise
        (Codec.Malformed
           (Printf.sprintf "batch records %d exceed cap %d" (List.length records)
              c.Wire.max_batch_records))
    | _ -> ());
    Batch_upload { program_digest; records }
  (* Tags 5, 7, 9 and 10 are retired: they named frames no receiver
     needs.  Like any unknown tag they are malformed, and must not be
     reused for a new frame. *)
  | n -> raise (Codec.Malformed (Printf.sprintf "message tag %d" n))

let decode ?caps s =
  match
    (match caps with
    | Some c when String.length s > c.Wire.max_message_bytes ->
      raise
        (Codec.Malformed
           (Printf.sprintf "frame of %d bytes exceeds cap %d" (String.length s)
              c.Wire.max_message_bytes))
    | _ -> ());
    let r = Codec.Reader.of_string s in
    let message = read_message ?caps r in
    Codec.Reader.expect_end r;
    message
  with
  | message -> Ok message
  | exception Codec.Truncated -> Error "truncated message"
  | exception Codec.Malformed msg -> Error msg
