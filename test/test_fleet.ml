(* Fleet-scale ingestion: the delta/prefix record codec, batched upload
   frames, batch-aware dead-letter accounting, and the central
   invariant — the hive's knowledge bytes are a pure
   function of the trace multiset, independent of how the pods framed
   it (singles, batches, deltas). *)

module Rng = Softborg_util.Rng
module Bitvec = Softborg_util.Bitvec
module Codec = Softborg_util.Codec
module Ids = Softborg_util.Ids
module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Outcome = Softborg_exec.Outcome
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Sim = Softborg_net.Sim
module Link = Softborg_net.Link
module Transport = Softborg_net.Transport
module Hive = Softborg_hive.Hive
module Knowledge = Softborg_hive.Knowledge
module Checkpoint = Softborg_hive.Checkpoint
module Trace_store = Softborg_hive.Trace_store
module Protocol = Softborg_hive.Protocol
module Pod = Softborg_pod.Pod
module Workload = Softborg_pod.Workload

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let trace_of ?(pod = 1) ?(sched = Sched.Round_robin) prog inputs =
  let env = Env.make ~seed:7 ~inputs () in
  let r = Interp.run ~program:prog ~env ~sched () in
  Trace.of_result ~program_digest:(Ir.digest prog) ~pod ~fix_epoch:0 r

(* A synthetic trace with a chosen branch vector, carried on a real
   trace's chassis so every other field stays wire-legal. *)
let with_bits base ~pod bits =
  {
    base with
    Trace.trace_id = Ids.Trace_id.fresh ();
    pod;
    bits;
    n_decisions = Bitvec.length bits;
  }

let random_bits rng n =
  let bits = Bitvec.create () in
  for _ = 1 to n do
    Bitvec.push bits (Rng.bool rng)
  done;
  bits

let decode_record_exn ?caps ?basis ~program_digest s =
  match Wire.decode_record ?caps ?basis ~program_digest s with
  | Ok t -> t
  | Error e -> Alcotest.failf "decode_record failed: %a" Wire.pp_error e

(* ---- Record codec ------------------------------------------------------- *)

let test_record_roundtrip_full () =
  List.iter
    (fun (prog, inputs) ->
      let t = trace_of prog inputs in
      let s = Wire.encode_record t in
      checkb "full tag" true (s.[0] = '\x00');
      let t' = decode_record_exn ~program_digest:t.Trace.program_digest s in
      checkb "roundtrip equal" true (Trace.equal t t'))
    [
      (Corpus.fig2_write, [| 5 |]);
      (Corpus.parser, Corpus.parser_trigger);
      (Corpus.checksum, [| 200; 3 |]);
    ]

let test_record_roundtrip_delta () =
  let rng = Rng.create 42 in
  let base = trace_of Corpus.parser [| 1; 2; 3 |] in
  for n = 0 to 80 do
    let basis = with_bits base ~pod:1 (random_bits rng (max n 1)) in
    let t = with_bits base ~pod:2 (random_bits rng n) in
    let s = Wire.encode_record ~basis t in
    (* Never worse: the delta candidate ships only when smaller. *)
    checkb "never larger than full" true
      (String.length s <= String.length (Wire.encode_record t));
    let t' = decode_record_exn ~basis ~program_digest:t.Trace.program_digest s in
    checkb "roundtrip equal" true (Trace.equal t t')
  done

let test_record_shared_prefix_shrinks () =
  (* The motivating case: a fleet running the same inputs produces
     near-identical branch vectors.  1024 shared bits with a 16-bit
     tail difference must collapse to a fraction of the full record. *)
  let rng = Rng.create 7 in
  let base = trace_of Corpus.parser [| 1; 2; 3 |] in
  let bits = random_bits rng 1024 in
  let basis = with_bits base ~pod:1 bits in
  let tail = Bitvec.copy bits in
  for i = 1008 to 1023 do
    Bitvec.set tail i (not (Bitvec.get tail i))
  done;
  let t = with_bits base ~pod:2 tail in
  let full = Wire.encode_record t in
  let delta = Wire.encode_record ~basis t in
  checkb "delta tag" true (delta.[0] = '\x01');
  checkb
    (Printf.sprintf "delta at least 2x smaller (%d vs %d)" (String.length delta)
       (String.length full))
    true
    (2 * String.length delta <= String.length full);
  checkb "roundtrip equal" true
    (Trace.equal t (decode_record_exn ~basis ~program_digest:t.Trace.program_digest delta))

let test_record_foreign_basis_falls_back () =
  let t = trace_of Corpus.parser [| 1; 2; 3 |] in
  let foreign = trace_of Corpus.fig2_write [| 5 |] in
  let s = Wire.encode_record ~basis:foreign t in
  checkb "full despite basis" true (s.[0] = '\x00');
  checkb "decodes without basis" true
    (Trace.equal t (decode_record_exn ~program_digest:t.Trace.program_digest s))

let test_delta_without_basis_is_malformed () =
  let rng = Rng.create 9 in
  let base = trace_of Corpus.parser [| 1; 2; 3 |] in
  let bits = random_bits rng 512 in
  let basis = with_bits base ~pod:1 bits in
  let t = with_bits base ~pod:2 (Bitvec.copy bits) in
  let delta = Wire.encode_record ~basis t in
  checkb "delta chosen" true (delta.[0] = '\x01');
  (match Wire.decode_record ~program_digest:t.Trace.program_digest delta with
  | Error (Wire.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "delta without basis decoded"
  | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_error e);
  (* A basis for the wrong program is as useless as none. *)
  let foreign = trace_of Corpus.fig2_write [| 5 |] in
  match Wire.decode_record ~basis:foreign ~program_digest:t.Trace.program_digest delta with
  | Error (Wire.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "delta against a foreign basis decoded"
  | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_error e

let test_record_truncations_total () =
  (* Every proper prefix of a valid record must decode to an error —
     never an exception, never a bogus Ok. *)
  let rng = Rng.create 11 in
  let base = trace_of Corpus.parser [| 1; 2; 3 |] in
  let basis = with_bits base ~pod:1 (random_bits rng 256) in
  let t = with_bits base ~pod:2 (random_bits rng 256) in
  List.iter
    (fun s ->
      for len = 0 to String.length s - 1 do
        match
          Wire.decode_record ~basis ~program_digest:t.Trace.program_digest
            (String.sub s 0 len)
        with
        | Error _ -> ()
        | Ok t' ->
          (* A prefix that still decodes must decode to the same trace
             (trailing bytes it never read were dropped). *)
          checkb "prefix Ok only if equal" true (Trace.equal t t')
      done)
    [ Wire.encode_record t; Wire.encode_record ~basis t ]

let test_record_byte_fuzz_total () =
  (* Single-byte corruption at every offset: the decoder must return,
     not raise; Ok results must stay within the caps' budget. *)
  let rng = Rng.create 13 in
  let base = trace_of Corpus.parser [| 1; 2; 3 |] in
  let basis = with_bits base ~pod:1 (random_bits rng 128) in
  let t = with_bits base ~pod:2 (random_bits rng 128) in
  let caps = Wire.default_caps in
  List.iter
    (fun s ->
      for i = 0 to String.length s - 1 do
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr ((Char.code s.[i] + 1 + (i * 37)) land 0xff));
        match
          Wire.decode_record ~caps ~basis ~program_digest:t.Trace.program_digest
            (Bytes.to_string b)
        with
        | Ok _ | Error _ -> ()
      done)
    [ Wire.encode_record t; Wire.encode_record ~basis t ]

let test_record_caps_enforced () =
  let rng = Rng.create 17 in
  let base = trace_of Corpus.parser [| 1; 2; 3 |] in
  let t = with_bits base ~pod:2 (random_bits rng 2048) in
  let s = Wire.encode_record t in
  (match Wire.declared_bits s with
  | Ok n -> checki "declared bits" 2048 n
  | Error e -> Alcotest.failf "declared_bits failed: %a" Wire.pp_error e);
  let caps = { Wire.default_caps with Wire.max_branch_bits = 1024 } in
  (match Wire.decode_record ~caps ~program_digest:t.Trace.program_digest s with
  | Error (Wire.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "oversized bits decoded"
  | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_error e);
  let caps = { Wire.default_caps with Wire.max_message_bytes = 16 } in
  match Wire.decode_record ~caps ~program_digest:t.Trace.program_digest s with
  | Error (Wire.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "oversized frame decoded"
  | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_error e

(* ---- Batch protocol frames ---------------------------------------------- *)

let test_batch_protocol_roundtrip () =
  let t1 = trace_of Corpus.parser [| 1; 2; 3 |] in
  let t2 = trace_of ~pod:2 Corpus.parser [| 4; 5; 6 |] in
  let records = [ Wire.encode_record t1; Wire.encode_record ~basis:t1 t2 ] in
  let digest = Ir.digest Corpus.parser in
  let msg = Protocol.Batch_upload { program_digest = digest; records } in
  (match Protocol.decode (Protocol.encode msg) with
  | Ok (Protocol.Batch_upload { program_digest; records = records' }) ->
    checks "digest" digest program_digest;
    checki "records" 2 (List.length records');
    checkb "records byte-equal" true (List.for_all2 String.equal records records')
  | Ok _ -> Alcotest.fail "wrong constructor"
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* The layout that carried an announced basis's id and fingerprint
     between the digest and the records is rejected, not misread. *)
  let w = Codec.Writer.create () in
  Codec.Writer.byte w 8;
  Codec.Writer.bytes w digest;
  Codec.Writer.varint w 0;
  Codec.Writer.varint w 0;
  Codec.Writer.list w (Codec.Writer.bytes w) records;
  match Protocol.decode (Codec.Writer.contents w) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a batch in the layout with a basis"

let test_batch_record_count_capped () =
  let t = trace_of Corpus.parser [| 1; 2; 3 |] in
  let record = Wire.encode_record t in
  let msg n =
    Protocol.encode
      (Protocol.Batch_upload
         { program_digest = t.Trace.program_digest; records = List.init n (fun _ -> record) })
  in
  let caps = Wire.default_caps in
  (match Protocol.decode ~caps (msg 256) with
  | Ok (Protocol.Batch_upload _) -> ()
  | _ -> Alcotest.fail "a full batch should decode");
  match Protocol.decode ~caps (msg 257) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-long batch decoded"

(* ---- Frame-agnostic knowledge (the central invariant) ------------------- *)

let fleet_traces ?(n = 24) ?(prog = Corpus.parser) ?(hi = 40) () =
  let rng = Rng.create 23 in
  List.init n (fun i ->
      let inputs = Array.init prog.Ir.n_inputs (fun _ -> Rng.int rng hi) in
      trace_of ~pod:(1 + (i mod 5)) prog inputs)

let knowledge_bytes hive = Checkpoint.encode (Hive.knowledge_list hive)

let make_hive ?(prog = Corpus.parser) () =
  let hive = Hive.create ~sim:(Sim.create ()) () in
  ignore (Hive.register_program hive prog);
  hive

let single_frames traces =
  List.map (fun t -> Protocol.encode (Protocol.Trace_upload (Wire.encode t))) traces

let inject hive frames = List.iter (Hive.inject hive ~slot:0) frames

(* Batch the traces [size] at a time, first record full, rest
   delta-encoded against it — the self-anchored frame shape. *)
let batch_frames ?(delta = true) ~size traces =
  let rec chunks = function
    | [] -> []
    | ts ->
      List.filteri (fun i _ -> i < size) ts :: chunks (List.filteri (fun i _ -> i >= size) ts)
  in
  List.map
    (fun chunk ->
      let first = List.hd chunk in
      let encode t = if delta then Wire.encode_record ~basis:first t else Wire.encode_record t in
      Protocol.encode
        (Protocol.Batch_upload
           {
             program_digest = first.Trace.program_digest;
             records = Wire.encode_record first :: List.map encode (List.tl chunk);
           }))
    (chunks traces)

let test_knowledge_frame_agnostic () =
  (* Parser traces seldom share a prefix.  Checksum traces share their
     whole deterministic mixing loop and step count (the fleet shape),
     so their delta records actually ship.  Every hive path prepares
     each trace once, so no admission falls back to re-encoding. *)
  let check_program (prog : Ir.t) traces framings =
    let ingest frames =
      let h = make_hive ~prog () in
      inject h frames;
      checki (prog.Ir.name ^ " ingested all") (List.length traces)
        (Hive.stats h).Hive.traces_received;
      List.iter
        (fun k ->
          checki "no fallback encode" 0 (Trace_store.fallback_encodes (Knowledge.store k)))
        (Hive.knowledge_list h);
      h
    in
    let baseline = knowledge_bytes (ingest (single_frames traces)) in
    checkb "knowledge not empty" true (String.length baseline > 0);
    List.iter
      (fun (size, delta) ->
        let label =
          Printf.sprintf "%s batch-%d %s" prog.Ir.name size (if delta then "delta" else "full")
        in
        let h = ingest (batch_frames ~delta ~size traces) in
        checkb (label ^ " frames counted") true ((Hive.stats h).Hive.batch_frames_received > 0);
        checks (label ^ " knowledge byte-identical") baseline (knowledge_bytes h))
      framings
  in
  check_program Corpus.parser (fleet_traces ()) [ (4, true); (4, false); (7, true) ];
  let traces = fleet_traces ~n:48 ~prog:Corpus.checksum ~hi:200 () in
  check_program Corpus.checksum traces [ (16, true); (16, false); (5, true) ];
  let bytes frames = List.fold_left (fun n f -> n + String.length f) 0 frames in
  let delta16 = bytes (batch_frames ~size:16 traces) in
  let singles = bytes (single_frames traces) in
  checkb "checksum delta records ship" true
    (delta16 < bytes (batch_frames ~delta:false ~size:16 traces));
  checkb
    (Printf.sprintf "batch-16+delta at least 2x smaller than singles (%d vs %d bytes)" delta16
       singles)
    true
    (2 * delta16 <= singles)

let test_batch_total_bits_budget () =
  (* Per-record bits pass the per-frame cap, but the batch total is
     held to the same budget — batching must not smuggle volume past
     quarantine accounting.  The poison batch delta-encodes its tail
     against its anchor, and a rejected batch must not count as a
     decoded one. *)
  let rng = Rng.create 29 in
  let base = trace_of Corpus.parser [| 1; 2; 3 |] in
  let overload = { Hive.default_overload_config with Hive.service_interval = 0.0 } in
  let caps = overload.Hive.caps in
  let per_record = caps.Wire.max_branch_bits / 2 in
  let n_records = (caps.Wire.max_batch_total_bits / per_record) + 2 in
  let shared = random_bits rng per_record in
  let anchor = with_bits base ~pod:1 shared in
  let records =
    Wire.encode_record anchor
    :: List.init (n_records - 1) (fun i ->
           Wire.encode_record ~basis:anchor (with_bits base ~pod:(2 + i) (Bitvec.copy shared)))
  in
  checkb "poison batch carries delta records" true (List.exists Wire.is_delta_record records);
  let sim = Sim.create () in
  let config =
    { (Hive.default_config Hive.Full) with Hive.overload = Some overload }
  in
  let hive = Hive.create ~config ~sim () in
  ignore (Hive.register_program hive Corpus.parser);
  (* One honest single first, which the poison batch must not disturb. *)
  Hive.inject hive ~slot:0 (Protocol.encode (Protocol.Trace_upload (Wire.encode base)));
  Hive.inject hive ~slot:0
    (Protocol.encode
       (Protocol.Batch_upload { program_digest = base.Trace.program_digest; records }));
  Sim.run sim;
  let s = Hive.stats hive in
  checki "budget-violating batch quarantined" 1 s.Hive.quarantined_frames;
  checki "nothing ingested from it" 1 s.Hive.traces_received;
  checki "not counted as decoded" 0 s.Hive.batch_frames_received

(* ---- Pod-side batching over the wire ------------------------------------ *)

(* One pod wired to a default hive.  [frames] collects every upload
   frame on its way into the hive's receive path, newest first. *)
let fleet_sim ?(pod_config = Pod.default_config) ?(program = Corpus.parser) () =
  let sim = Sim.create () in
  let hive = Hive.create ~config:(Hive.default_config Hive.Full) ~sim () in
  ignore (Hive.register_program hive program);
  let pod_end, hive_end = Transport.endpoint_pair ~sim ~rng:(Rng.create 7) () in
  Hive.attach_pod hive hive_end;
  let frames = ref [] in
  Transport.on_receive hive_end (fun payload ->
      frames := payload :: !frames;
      Hive.inject hive ~slot:0 payload);
  let config =
    {
      pod_config with
      Pod.workload = Workload.Uniform_inputs { lo = 0; hi = 40 };
      fault_probability = 0.0;
    }
  in
  let pod =
    Pod.create ~config ~cohort:0 ~sim ~rng:(Rng.create 11) ~program ~endpoint:pod_end ()
  in
  (sim, hive, pod, frames)

let run_sessions sim pod n =
  for _ = 1 to n do
    Pod.run_session pod
  done;
  Sim.run sim

(* The record lists of the batch frames among [frames]. *)
let batch_records frames =
  List.filter_map
    (fun payload ->
      match Protocol.decode payload with
      | Ok (Protocol.Batch_upload { records; _ }) -> Some records
      | _ -> None)
    frames

let test_pod_batches_and_deltas () =
  (* A delta-encoding pod: every batch anchors on its own leading
     record, which ships full; the records after it may be deltas
     against it.  That holds across the hive's analysis tick too: no
     hive state anchors a delta.  Checksum traces keep a constant step
     count, so some delta candidates genuinely win. *)
  let pod_config =
    { Pod.default_config with Pod.upload_batch = 4; delta_encode = true }
  in
  let sim, hive, pod, frames = fleet_sim ~pod_config ~program:Corpus.checksum () in
  run_sessions sim pod 4;
  Hive.tick hive;
  Sim.run sim;
  run_sessions sim pod 12;
  let m = Pod.metrics pod in
  let s = Hive.stats hive in
  let batches = batch_records !frames in
  checki "every frame a batch" (List.length !frames) (List.length batches);
  checkb "every batch leads with a full record" true
    (List.for_all (fun records -> not (Wire.is_delta_record (List.hd records))) batches);
  checki "deltas only behind the anchor" m.Pod.delta_records
    (List.fold_left
       (fun n records -> n + List.length (List.filter Wire.is_delta_record (List.tl records)))
       0 batches);
  checkb "pod sent batches" true (m.Pod.batches_sent >= 4);
  checkb "pod delta-encoded records" true (m.Pod.delta_records >= 2);
  checkb "hive decoded batch frames" true (s.Hive.batch_frames_received >= 4);
  checki "every trace arrived" 16 s.Hive.traces_received;
  checki "records add up" 16 s.Hive.batch_records_received

let test_pod_default_config_sends_singles () =
  (* The default pod sends one frame per trace. *)
  let sim, hive, pod, _ = fleet_sim () in
  run_sessions sim pod 6;
  let m = Pod.metrics pod in
  let s = Hive.stats hive in
  checki "no batches" 0 m.Pod.batches_sent;
  checki "no deltas" 0 m.Pod.delta_records;
  checki "no batch frames at the hive" 0 s.Hive.batch_frames_received;
  checki "singles arrived" 6 s.Hive.traces_received

let test_full_batches_carry_no_deltas () =
  (* Batching without delta encoding: every record is full. *)
  let pod_config = { Pod.default_config with Pod.upload_batch = 4 } in
  let sim, hive, pod, _ = fleet_sim ~pod_config ~program:Corpus.checksum () in
  run_sessions sim pod 8;
  let s = Hive.stats hive in
  checki "batches decoded" 2 s.Hive.batch_frames_received;
  checki "no delta records" 0 (Pod.metrics pod).Pod.delta_records

let test_dead_batch_counts_every_record () =
  (* A batch frame the transport abandons loses every trace it
     carried; the dead-letter counter must say so. *)
  let sim = Sim.create () in
  let tconfig =
    {
      Transport.default_config with
      Transport.link =
        { Link.drop_probability = 1.0; mean_latency = 0.01; min_latency = 0.001 };
      retry_timeout = 0.05;
      max_retries = 1;
    }
  in
  let pod_end, _hive_end = Transport.endpoint_pair ~config:tconfig ~sim ~rng:(Rng.create 5) () in
  let config =
    {
      Pod.default_config with
      Pod.upload_batch = 4;
      workload = Workload.Uniform_inputs { lo = 0; hi = 40 };
      fault_probability = 0.0;
    }
  in
  let pod =
    Pod.create ~config ~cohort:0 ~sim ~rng:(Rng.create 11) ~program:Corpus.parser
      ~endpoint:pod_end ()
  in
  for _ = 1 to 4 do
    Pod.run_session pod
  done;
  Sim.run sim;
  let m = Pod.metrics pod in
  checki "one batch flushed" 1 m.Pod.batches_sent;
  checki "all four traces dead-lettered" 4 m.Pod.dead_letters

let () =
  Alcotest.run "fleet"
    [
      ( "record-codec",
        [
          Alcotest.test_case "full roundtrip" `Quick test_record_roundtrip_full;
          Alcotest.test_case "delta roundtrip" `Quick test_record_roundtrip_delta;
          Alcotest.test_case "shared prefix shrinks" `Quick test_record_shared_prefix_shrinks;
          Alcotest.test_case "foreign basis falls back" `Quick
            test_record_foreign_basis_falls_back;
          Alcotest.test_case "delta needs its basis" `Quick
            test_delta_without_basis_is_malformed;
          Alcotest.test_case "truncations are total" `Quick test_record_truncations_total;
          Alcotest.test_case "byte fuzz is total" `Quick test_record_byte_fuzz_total;
          Alcotest.test_case "caps enforced" `Quick test_record_caps_enforced;
        ] );
      ( "batch-frames",
        [
          Alcotest.test_case "protocol roundtrip" `Quick test_batch_protocol_roundtrip;
          Alcotest.test_case "record count capped" `Quick test_batch_record_count_capped;
          Alcotest.test_case "total-bits budget" `Quick test_batch_total_bits_budget;
        ] );
      ( "knowledge-identity",
        [
          Alcotest.test_case "frame agnostic" `Quick test_knowledge_frame_agnostic;
        ] );
      ( "pod-batching",
        [
          Alcotest.test_case "batches and deltas" `Quick test_pod_batches_and_deltas;
          Alcotest.test_case "defaults send singles" `Quick
            test_pod_default_config_sends_singles;
          Alcotest.test_case "full batches carry no deltas" `Quick
            test_full_batches_carry_no_deltas;
          Alcotest.test_case "dead batch counts records" `Quick
            test_dead_batch_counts_every_record;
        ] );
    ]
