(* The checkpoint codec battery: snapshot → restore → snapshot must be
   byte-identical, restored trees must satisfy every incremental
   aggregate invariant, restored knowledge must behave exactly like the
   original, and corrupt input must degrade to an error — never a crash
   or a half-restored hive. *)

module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Trace = Softborg_trace.Trace
module Exec_tree = Softborg_tree.Exec_tree
module Knowledge = Softborg_hive.Knowledge
module Checkpoint = Softborg_hive.Checkpoint
module Prover = Softborg_hive.Prover
module Hive = Softborg_hive.Hive
module Sim = Softborg_net.Sim
module Codec = Softborg_util.Codec
module Rng = Softborg_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let run_once ?(seed = 7) program inputs =
  let env = Env.make ~seed ~inputs () in
  Interp.run ~program ~env ~sched:Sched.Round_robin ()

let trace_of ?(pod = 1) ?(fix_epoch = 0) program r =
  Trace.of_result ~program_digest:(Ir.digest program) ~pod ~fix_epoch r

(* ---- Exec_tree round-trip property ------------------------------------ *)

let tree_bytes t =
  let w = Codec.Writer.create () in
  Exec_tree.write w t;
  Codec.Writer.contents w

let tree_of_bytes s = Exec_tree.read (Codec.Reader.of_string s)

(* Pre-computed (path, outcome) pools, one per program, so each QCheck
   case interleaves merges without re-running the interpreter. *)
let path_pool program inputs_of =
  let rng = Rng.create 1234 in
  List.init 48 (fun i ->
      let r = run_once ~seed:i program (inputs_of rng) in
      (r.Interp.full_path, r.Interp.outcome))

let parser_pool =
  path_pool Corpus.parser (fun rng ->
      if Rng.int rng 6 = 0 then Corpus.parser_trigger
      else Array.init 3 (fun _ -> Rng.int_in rng 0 30))

let fig2_pool = path_pool Corpus.fig2_write (fun rng -> [| Rng.int_in rng (-5) 305 |])

let tree_fingerprint t =
  ( Exec_tree.n_nodes t,
    Exec_tree.n_executions t,
    Exec_tree.n_distinct_paths t,
    Exec_tree.n_edges t,
    Exec_tree.version t,
    Exec_tree.depth t,
    Exec_tree.frontier_size t,
    Exec_tree.outcome_buckets t,
    Exec_tree.is_complete t )

(* Random interleaving of path merges, duplicate merges, infeasibility
   marks, and mid-sequence checkpoints; at every checkpoint the restored
   tree must re-serialize to the same bytes and agree with the walk-the-
   tree oracles. *)
let prop_tree_checkpoint_roundtrip =
  QCheck.Test.make ~name:"tree snapshot/restore round-trips and restores aggregates"
    ~count:500
    QCheck.(triple small_nat (int_range 1 30) bool)
    (fun (seed, n_ops, use_parser) ->
      let pool = if use_parser then parser_pool else fig2_pool in
      let rng = Rng.create (seed * 7919 + 17) in
      let t = Exec_tree.create () in
      let check_roundtrip () =
        let s1 = tree_bytes t in
        let t' = tree_of_bytes s1 in
        let s2 = tree_bytes t' in
        if s1 <> s2 then QCheck.Test.fail_report "re-snapshot not byte-identical";
        if tree_fingerprint t <> tree_fingerprint t' then
          QCheck.Test.fail_report "restored tree differs from original";
        (* Every incremental aggregate of the restored tree must equal
           its full-walk recompute oracle. *)
        if Exec_tree.n_edges t' <> Exec_tree.n_edges_recompute t' then
          QCheck.Test.fail_report "n_edges oracle mismatch";
        if Exec_tree.depth t' <> Exec_tree.depth_recompute t' then
          QCheck.Test.fail_report "depth oracle mismatch";
        if Exec_tree.outcome_buckets t' <> Exec_tree.outcome_buckets_recompute t' then
          QCheck.Test.fail_report "outcome_buckets oracle mismatch";
        if Exec_tree.frontier t' <> Exec_tree.frontier_recompute t' then
          QCheck.Test.fail_report "frontier oracle mismatch";
        (* The rebuilt top-k index must serve exactly the sorted oracle's
           prefixes. *)
        let oracle = Exec_tree.frontier_recompute t' in
        List.iter
          (fun k ->
            let rec take k = function
              | x :: rest when k > 0 -> x :: take (k - 1) rest
              | _ -> []
            in
            if Exec_tree.frontier_top t' k <> take k oracle then
              QCheck.Test.fail_report "frontier_top oracle mismatch after restore")
          [ 0; 1; 8; List.length oracle ];
        if Exec_tree.is_complete t' <> Exec_tree.is_complete_recompute t' then
          QCheck.Test.fail_report "is_complete oracle mismatch";
        if abs_float (Exec_tree.completeness t' -. Exec_tree.completeness_recompute t')
           > 1e-9
        then QCheck.Test.fail_report "completeness oracle mismatch"
      in
      for _ = 1 to n_ops do
        (match Rng.int rng 5 with
        | 0 | 1 | 2 ->
          let path, outcome = List.nth pool (Rng.int rng (List.length pool)) in
          ignore (Exec_tree.add_path t path outcome)
        | 3 -> (
          (* Close a random open gap, as the prover would. *)
          match Exec_tree.frontier t with
          | [] -> ()
          | gaps ->
            let gap = List.nth gaps (Rng.int rng (List.length gaps)) in
            ignore
              (Exec_tree.mark_infeasible t ~prefix:gap.Exec_tree.prefix
                 ~site:gap.Exec_tree.site ~direction:gap.Exec_tree.missing))
        | _ -> check_roundtrip ());
      done;
      check_roundtrip ();
      (* Restored trees must also keep behaving: merging one more path
         into original and restored twins must agree exactly. *)
      let t' = tree_of_bytes (tree_bytes t) in
      let path, outcome = List.nth pool (Rng.int rng (List.length pool)) in
      let a = Exec_tree.add_path t path outcome in
      let b = Exec_tree.add_path t' path outcome in
      a = b && tree_fingerprint t = tree_fingerprint t')

(* ---- Knowledge round-trip --------------------------------------------- *)

let proof_shape (p : Prover.proof) =
  (p.Prover.property, p.Prover.strength, p.Prover.epoch, p.Prover.distinct_paths, p.Prover.valid)

let knowledge_fingerprint k =
  ( Knowledge.digest k,
    Knowledge.epoch k,
    Knowledge.traces_ingested k,
    Knowledge.failures_observed k,
    Knowledge.replay_errors k,
    Exec_tree.version (Knowledge.tree k),
    Exec_tree.n_distinct_paths (Knowledge.tree k),
    ( Knowledge.bucket_counts k,
      List.length (Knowledge.fixes k),
      List.map proof_shape (Knowledge.proofs k),
      Softborg_hive.Trace_store.received (Knowledge.store k),
      Softborg_hive.Trace_store.bytes_received (Knowledge.store k) ) )

let populated_knowledge ?(n = 30) seed =
  let k = Knowledge.create Corpus.parser in
  let rng = Rng.create seed in
  for i = 1 to n do
    let inputs =
      if Rng.int rng 4 = 0 then Corpus.parser_trigger
      else Array.init 3 (fun _ -> Rng.int_in rng 0 30)
    in
    let r = run_once ~seed:i Corpus.parser inputs in
    match Knowledge.ingest_trace k (trace_of ~pod:(i mod 5) Corpus.parser r) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "ingest failed: %s" e
  done;
  ignore (Knowledge.analyze k);
  Knowledge.record_proof k
    {
      Prover.id = 1;
      property = Prover.Assert_safety;
      strength = Prover.Tested { executions = n; schedules = 1 };
      epoch = Knowledge.epoch k;
      distinct_paths = Exec_tree.n_distinct_paths (Knowledge.tree k);
      valid = true;
    };
  k

let test_knowledge_roundtrip () =
  let k = populated_knowledge 42 in
  let s1 = Checkpoint.encode_knowledge k in
  match Checkpoint.decode_knowledge s1 with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok k' ->
    checks "re-snapshot byte-identical" s1 (Checkpoint.encode_knowledge k');
    checkb "observationally identical" true (knowledge_fingerprint k = knowledge_fingerprint k');
    (* The restored base must keep learning exactly like the original:
       same ingest result, same analysis output, same state after. *)
    let r = run_once ~seed:991 Corpus.parser Corpus.parser_trigger in
    let ingest k = Knowledge.ingest_trace k (trace_of ~pod:2 Corpus.parser r) in
    checkb "same ingest result" true (ingest k = ingest k');
    let fixes_a = List.length (Knowledge.analyze k) in
    let fixes_b = List.length (Knowledge.analyze k') in
    checki "same analysis output" fixes_a fixes_b;
    checkb "still identical after new evidence" true
      (knowledge_fingerprint k = knowledge_fingerprint k');
    checks "snapshots still agree" (Checkpoint.encode_knowledge k) (Checkpoint.encode_knowledge k')

let prop_knowledge_roundtrip_random =
  QCheck.Test.make ~name:"knowledge snapshot/restore round-trips byte-identically" ~count:50
    QCheck.(pair small_nat (int_range 1 40))
    (fun (seed, n) ->
      let k = populated_knowledge ~n (seed + 1) in
      let s1 = Checkpoint.encode_knowledge k in
      match Checkpoint.decode_knowledge s1 with
      | Error _ -> false
      | Ok k' ->
        s1 = Checkpoint.encode_knowledge k'
        && knowledge_fingerprint k = knowledge_fingerprint k')

(* ---- Framed checkpoints and the hive ----------------------------------- *)

let test_frame_sorts_by_digest () =
  let ka = populated_knowledge 1 in
  let kb = Knowledge.create Corpus.fig2_write in
  checks "registration order does not matter"
    (Checkpoint.encode [ ka; kb ])
    (Checkpoint.encode [ kb; ka ])

let test_frame_roundtrip () =
  let ka = populated_knowledge 5 in
  let kb = Knowledge.create Corpus.fig2_write in
  let s = Checkpoint.encode [ ka; kb ] in
  match Checkpoint.decode s with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok ks ->
    checki "both restored" 2 (List.length ks);
    checks "re-encode byte-identical" s (Checkpoint.encode ks)

let ingest_everywhere hive ~seed ~n =
  List.iter
    (fun k ->
      let program = Knowledge.program k in
      let rng = Rng.create (seed lxor Hashtbl.hash (Knowledge.digest k)) in
      for i = 1 to n do
        let inputs = Array.init 3 (fun _ -> Rng.int_in rng 0 40) in
        let r = run_once ~seed:(seed + i) program inputs in
        ignore (Knowledge.ingest_trace k (trace_of program r))
      done)
    (Hive.knowledge_list hive)

let test_hive_restore_reverts_knowledge () =
  let sim = Sim.create () in
  let hive = Hive.create ~sim () in
  ignore (Hive.register_program hive Corpus.parser);
  ignore (Hive.register_program hive Corpus.fig2_write);
  ingest_everywhere hive ~seed:3 ~n:12;
  let ckpt = Hive.checkpoint hive in
  let at_ckpt = List.map knowledge_fingerprint (Hive.knowledge_list hive) in
  (* Learn more, then crash: the extra knowledge must vanish. *)
  ingest_everywhere hive ~seed:77 ~n:9;
  checkb "hive moved on" true (List.map knowledge_fingerprint (Hive.knowledge_list hive) <> at_ckpt);
  (match Hive.restore hive ckpt with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok n -> checki "both programs restored" 2 n);
  checkb "state reverted to checkpoint" true
    (List.map knowledge_fingerprint (Hive.knowledge_list hive) = at_ckpt);
  checks "re-checkpoint byte-identical" ckpt (Hive.checkpoint hive);
  checki "restore counted" 1 (Hive.stats hive).Hive.restores_completed

let test_hive_restore_keeps_late_programs () =
  let sim = Sim.create () in
  let hive = Hive.create ~sim () in
  ignore (Hive.register_program hive Corpus.parser);
  let ckpt = Hive.checkpoint hive in
  ignore (Hive.register_program hive Corpus.fig2_write);
  (match Hive.restore hive ckpt with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok n -> checki "one program in the checkpoint" 1 n);
  checki "late registration survives the restore" 2 (List.length (Hive.knowledge_list hive))

(* ---- Federation shard checkpoints -------------------------------------- *)

module Transport = Softborg_net.Transport
module Protocol = Softborg_hive.Protocol
module Wire = Softborg_trace.Wire
module Federation = Softborg_hive.Federation

let shard_upload_pool =
  let rng = Rng.create 555 in
  Array.init 24 (fun i ->
      let inputs =
        if Rng.int rng 5 = 0 then Corpus.parser_trigger
        else Array.init 3 (fun _ -> Rng.int_in rng 0 30)
      in
      let r = run_once ~seed:i Corpus.parser inputs in
      Protocol.encode
        (Protocol.Trace_upload (Wire.encode (trace_of ~pod:(i mod 4) Corpus.parser r))))

(* Random interleaving of shard-local ingestion, delta flushes, ticks
   and mid-sequence shard checkpoints, across shard counts 1/2/4: at
   every checkpoint the restored shard must re-serialize to the same
   bytes — the shard-local transfer state (pending buffer, delta seq
   counter) round-trips along with the hive knowledge and the gap
   verdicts ticks leave in the shards' memos. *)
let prop_shard_checkpoint_roundtrip =
  QCheck.Test.make ~name:"shard snapshot/restore round-trips shard-local state" ~count:500
    QCheck.(triple small_nat (int_range 1 12) (int_range 0 2))
    (fun (seed, n_ops, shard_choice) ->
      let n_shards = [| 1; 2; 4 |].(shard_choice) in
      let sim = Sim.create () in
      let fed =
        Federation.create
          ~config:
            { (Federation.default_config ~n_shards ()) with Federation.synthesize = false }
          ~sim ~rng:(Rng.create (seed + 9)) ()
      in
      ignore (Federation.register_program fed Corpus.parser);
      let rng = Rng.create (seed * 677 + 29) in
      let check_shard i =
        let s1 = Federation.checkpoint_shard fed i in
        (match Federation.restore_shard fed i s1 with
        | Error e -> QCheck.Test.fail_reportf "shard restore failed: %s" e
        | Ok n -> if n <> 1 then QCheck.Test.fail_report "wrong program count restored");
        if Federation.checkpoint_shard fed i <> s1 then
          QCheck.Test.fail_report "shard re-snapshot not byte-identical"
      in
      for _ = 1 to n_ops do
        match Rng.int rng 5 with
        | 0 | 1 ->
          (* Admit a payload directly into a random shard: the ingest
             tap buffers its canonical form for the next delta. *)
          let payload = shard_upload_pool.(Rng.int rng (Array.length shard_upload_pool)) in
          Hive.ingest_payload (Federation.shard_hive fed (Rng.int rng n_shards)) payload
        | 2 ->
          (* Advance the delta exchange so seq counters move. *)
          Federation.flush fed;
          Sim.run sim;
          ignore (Federation.commit fed)
        | 3 ->
          (* Tick a shard, then run a superstep: the tick's guidance
             fills that shard's gap memo, and the superstep flushes
             and commits (with synthesis off it publishes nothing). *)
          Hive.tick (Federation.shard_hive fed (Rng.int rng n_shards));
          Federation.superstep fed;
          Sim.run sim
        | _ -> check_shard (Rng.int rng n_shards)
      done;
      for i = 0 to n_shards - 1 do
        check_shard i
      done;
      true)

(* ---- Gap verdicts in the hive checkpoint ------------------------------- *)

module Link = Softborg_net.Link
module Gap_memo = Softborg_hive.Gap_memo
module Sym_exec = Softborg_symexec.Sym_exec

let by_digest knowledge =
  List.sort (fun a b -> String.compare (Knowledge.digest a) (Knowledge.digest b)) knowledge

let memo_bytes k =
  let w = Codec.Writer.create () in
  Gap_memo.write w (Knowledge.gap_memo k);
  Codec.Writer.contents w

let memos hive =
  List.map (fun k -> (Knowledge.digest k, memo_bytes k)) (by_digest (Hive.knowledge_list hive))

let hive_config = Hive.default_config Hive.Full

(* The section [Hive.checkpoint] ends with, rebuilt from its documented
   layout: the symexec config stamp, then each program's digest and gap
   memo, sorted by digest.  [memo] overrides how a memo is written. *)
let verdict_section ?(memo = fun w k -> Gap_memo.write w (Knowledge.gap_memo k))
    (c : Sym_exec.config) knowledge =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w c.Sym_exec.max_paths;
  Codec.Writer.varint w c.Sym_exec.max_steps_per_path;
  Codec.Writer.varint w c.Sym_exec.solver_budget;
  Codec.Writer.zigzag w (fst c.Sym_exec.domain);
  Codec.Writer.zigzag w (snd c.Sym_exec.domain);
  Codec.Writer.bool w c.Sym_exec.solve_models;
  Codec.Writer.list w
    (fun k ->
      Codec.Writer.bytes w (Knowledge.digest k);
      memo w k)
    (by_digest knowledge);
  Codec.Writer.contents w

(* Parser inputs per round.  Rounds 1-2 leave two parser gaps open
   (argument 13 after token 7, and a token of 4 or more); round 3
   covers the second, round 4 the first, which opens a new gap (length
   5) for guidance to plan, and round 5 takes the planted crash.  Each
   round also uploads four worker-pool runs under random schedules. *)
let parser_inputs = function
  | 1 -> [ [| 0; 0; 0 |]; [| 7; 1; 0 |] ]
  | 2 -> [ [| 2; 0; 0 |]; [| 7; 4; 0 |] ]
  | 3 -> [ [| 5; 0; 0 |] ]
  | 4 -> [ [| 7; 13; 0 |] ]
  | _ -> [ Corpus.parser_trigger ]

let verdict_uploads ~round =
  let upload program r =
    Protocol.encode (Protocol.Trace_upload (Wire.encode (trace_of program r)))
  in
  List.map
    (fun inputs -> upload Corpus.parser (run_once Corpus.parser inputs))
    (parser_inputs round)
  @ List.init 4 (fun i ->
        let seed = (round * 4) + i in
        upload Corpus.worker_pool
          (Interp.run ~program:Corpus.worker_pool
             ~env:(Env.make ~seed ~inputs:[| seed |] ())
             ~sched:(Sched.Random_sched (Rng.create seed))
             ()))

(* A hive on the parser and the worker pool with one lossless pod link,
   so its analysis ticks plan guidance; the ref collects every
   [Guidance_update] frame the pod receives. *)
let guided_hive ?(config = hive_config) () =
  let sim = Sim.create () in
  let hive = Hive.create ~config ~sim () in
  ignore (Hive.register_program hive Corpus.parser);
  ignore (Hive.register_program hive Corpus.worker_pool);
  let pod_end, hive_end =
    Transport.endpoint_pair
      ~config:{ Transport.default_config with Transport.link = Link.lan }
      ~sim ~rng:(Rng.create 1) ()
  in
  Hive.attach_pod hive hive_end;
  let guidance = ref [] in
  Transport.on_receive pod_end (fun payload ->
      match Protocol.decode payload with
      | Ok (Protocol.Guidance_update _) -> guidance := payload :: !guidance
      | _ -> ());
  (sim, hive, guidance)

let feed (sim, hive, _) ~round =
  List.iter (Hive.ingest_payload hive) (verdict_uploads ~round);
  Hive.tick hive;
  Sim.run sim

let test_gap_verdicts_survive_restore () =
  let ((_, hive, sent) as original) = guided_hive () in
  feed original ~round:1;
  feed original ~round:2;
  let sizes h =
    List.map (fun k -> Gap_memo.length (Knowledge.gap_memo k)) (by_digest (Hive.knowledge_list h))
  in
  checkb "each program has verdicts to carry" true (List.for_all (fun n -> n > 0) (sizes hive));
  let ckpt = Hive.checkpoint hive in
  let ((_, twin, twin_sent) as restored) = guided_hive () in
  (match Hive.restore twin ckpt with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok n -> checki "both programs restored" 2 n);
  checkb "same gap memo bindings" true (memos hive = memos twin);
  checks "re-checkpoint byte-identical" ckpt (Hive.checkpoint twin);
  let at_restore = sizes twin in
  sent := [];
  for round = 3 to 5 do
    feed original ~round;
    feed restored ~round
  done;
  checkb "guidance went out after the restore" true (!sent <> []);
  Alcotest.(check (list string))
    "same Guidance_update frames" (List.sort compare !sent) (List.sort compare !twin_sent);
  checks "same knowledge bytes"
    (Checkpoint.encode (Hive.knowledge_list hive))
    (Checkpoint.encode (Hive.knowledge_list twin));
  checkb "same gap memo bindings at the end" true (memos hive = memos twin);
  (* Every miss adds a binding, so misses equal to growth means no
     question the checkpoint had answered was solved again. *)
  List.iter2
    (fun k before ->
      let memo = Knowledge.gap_memo k in
      checki "misses only for new questions" (Gap_memo.length memo - before)
        (Gap_memo.misses memo))
    (by_digest (Hive.knowledge_list twin))
    at_restore;
  checkb "checkpointed verdicts were read" true
    (List.exists (fun k -> Gap_memo.hits (Knowledge.gap_memo k) > 0) (Hive.knowledge_list twin))

let test_verdict_section_corruption () =
  let ((_, hive, _) as h) = guided_hive () in
  feed h ~round:1;
  let ckpt = Hive.checkpoint hive in
  let config = hive_config.Hive.symexec_config in
  let section = verdict_section config (Hive.knowledge_list hive) in
  checkb "the checkpoint ends with its verdict section" true
    (String.ends_with ~suffix:section ckpt);
  let start = String.length ckpt - String.length section in
  let head = String.sub ckpt 0 start in
  let rejects label data =
    (match Hive.restore hive data with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must not restore" label);
    if Hive.checkpoint hive <> ckpt then Alcotest.failf "%s touched the hive" label
  in
  for cut = start to String.length ckpt - 1 do
    rejects (Printf.sprintf "cut at byte %d" cut) (String.sub ckpt 0 cut)
  done;
  let unknown_tag w _ =
    Codec.Writer.list w
      (fun () ->
        Codec.Writer.varint w 0;
        Codec.Writer.varint w 3;
        Codec.Writer.bool w true;
        Codec.Writer.byte w 7)
      [ () ]
  in
  rejects "an unknown verdict tag"
    (head ^ verdict_section ~memo:unknown_tag config (Hive.knowledge_list hive));
  rejects "verdicts for a program with no knowledge"
    (head
    ^ verdict_section config (Knowledge.create Corpus.fig2_write :: Hive.knowledge_list hive));
  checki "no restore counted" 0 (Hive.stats hive).Hive.restores_completed

let test_verdicts_dropped_under_other_config () =
  let ((_, hive, _) as h) = guided_hive () in
  feed h ~round:1;
  let ckpt = Hive.checkpoint hive in
  let other =
    {
      hive_config with
      Hive.symexec_config =
        { hive_config.Hive.symexec_config with Sym_exec.solver_budget = 10_000 };
    }
  in
  let _, twin, _ = guided_hive ~config:other () in
  (match Hive.restore twin ckpt with
  | Error e -> Alcotest.failf "restore under another config failed: %s" e
  | Ok n -> checki "both programs restored" 2 n);
  List.iter
    (fun k -> checki "memo starts cold" 0 (Gap_memo.length (Knowledge.gap_memo k)))
    (Hive.knowledge_list twin);
  checks "knowledge restored all the same"
    (Checkpoint.encode (Hive.knowledge_list hive))
    (Checkpoint.encode (Hive.knowledge_list twin))

let test_hive_version_2_refused () =
  let sim = Sim.create () in
  let hive = Hive.create ~sim () in
  ignore (Hive.register_program hive Corpus.parser);
  let ckpt = Hive.checkpoint hive in
  (* Magic, then the version as a one-byte varint. *)
  let v2 = Bytes.of_string ckpt in
  Bytes.set v2 4 '\002';
  match Hive.restore hive (Bytes.to_string v2) with
  | Error e -> checks "refused" "unsupported hive checkpoint version 2" e
  | Ok _ -> Alcotest.fail "a version-2 checkpoint must not restore"

let test_shard_version_2_refused () =
  (* v2 carried the verdicts a shard had not sent yet; they now live
     only in the wrapped hive checkpoint, so a v2 image is refused. *)
  let sim = Sim.create () in
  let fed =
    Federation.create
      ~config:{ (Federation.default_config ~n_shards:2 ()) with Federation.synthesize = false }
      ~sim ~rng:(Rng.create 4) ()
  in
  ignore (Federation.register_program fed Corpus.parser);
  let ckpt = Federation.checkpoint_shard fed 0 in
  (* Magic, then the version as a one-byte varint. *)
  let v2 = Bytes.of_string ckpt in
  Bytes.set v2 4 '\002';
  match Federation.restore_shard fed 0 (Bytes.to_string v2) with
  | Error e -> checks "refused" "unsupported shard checkpoint version 2" e
  | Ok _ -> Alcotest.fail "a version-2 shard checkpoint must not restore"

(* ---- Corruption -------------------------------------------------------- *)

let test_decode_rejects_trailing_bytes () =
  match Checkpoint.decode (Checkpoint.encode [ populated_knowledge 9 ] ^ "zz") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must not decode"

let test_decode_knowledge_rejects_trailing_bytes () =
  let valid = Checkpoint.encode_knowledge (populated_knowledge 9) in
  match Checkpoint.decode_knowledge (valid ^ "zz") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must not decode"

let test_hive_restore_rejects_trailing_bytes () =
  let ((_, hive, _) as h) = guided_hive () in
  feed h ~round:1;
  let ckpt = Hive.checkpoint hive in
  (match Hive.restore hive (ckpt ^ "trailing junk") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must not restore");
  checks "hive untouched" ckpt (Hive.checkpoint hive);
  checki "no restore counted" 0 (Hive.stats hive).Hive.restores_completed

let test_shard_restore_rejects_trailing_bytes () =
  let sim = Sim.create () in
  let fed =
    Federation.create
      ~config:{ (Federation.default_config ~n_shards:2 ()) with Federation.synthesize = false }
      ~sim ~rng:(Rng.create 4) ()
  in
  ignore (Federation.register_program fed Corpus.parser);
  Array.iter (Hive.ingest_payload (Federation.shard_hive fed 0)) shard_upload_pool;
  Federation.superstep fed;
  let ckpt = Federation.checkpoint_shard fed 0 in
  (match Federation.restore_shard fed 0 (ckpt ^ "zz") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must not restore");
  checks "shard untouched" ckpt (Federation.checkpoint_shard fed 0);
  checki "no restore counted" 0
    (Hive.stats (Federation.shard_hive fed 0)).Hive.restores_completed

let test_decode_rejects_garbage () =
  (match Checkpoint.decode "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input must not decode");
  (match Checkpoint.decode "definitely not a checkpoint" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode");
  let valid = Checkpoint.encode [ populated_knowledge 9 ] in
  (match Checkpoint.decode (String.sub valid 0 (String.length valid / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncation must not decode");
  let bad_magic = "XX" ^ String.sub valid 2 (String.length valid - 2) in
  match Checkpoint.decode bad_magic with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong magic must not decode"

let test_hive_restore_rejects_corruption_untouched () =
  let sim = Sim.create () in
  let hive = Hive.create ~sim () in
  ignore (Hive.register_program hive Corpus.parser);
  ingest_everywhere hive ~seed:13 ~n:10;
  let before = List.map knowledge_fingerprint (Hive.knowledge_list hive) in
  let ckpt = Hive.checkpoint hive in
  let corrupt = String.sub ckpt 0 (String.length ckpt - 7) in
  (match Hive.restore hive corrupt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated checkpoint must not restore");
  (match Hive.restore hive "SBHVgarbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not restore");
  checkb "failed restores leave the hive untouched" true
    (List.map knowledge_fingerprint (Hive.knowledge_list hive) = before);
  checki "no restore counted" 0 (Hive.stats hive).Hive.restores_completed

let test_tree_read_rejects_node_count_lie () =
  let t = Exec_tree.create () in
  List.iter
    (fun p ->
      let r = run_once Corpus.fig2_write [| p |] in
      ignore (Exec_tree.add_path t r.Interp.full_path r.Interp.outcome))
    [ 5; -1; 200 ];
  let s = tree_bytes t in
  (* Inflate the node count (first varint); the preorder walk then
     cannot account for every node and must reject the payload. *)
  let w = Codec.Writer.create () in
  Codec.Writer.varint w (Exec_tree.n_nodes t + 3);
  let prefix = Codec.Writer.contents w in
  let r0 = Codec.Reader.of_string s in
  ignore (Codec.Reader.varint r0);
  let rest = String.sub s (String.length s - Codec.Reader.remaining r0) (Codec.Reader.remaining r0) in
  match tree_of_bytes (prefix ^ rest) with
  | exception Codec.Malformed _ -> ()
  | exception Codec.Truncated -> ()
  | _ -> Alcotest.fail "inconsistent node count must not decode"

let test_checkpoint_determinism_across_processes () =
  (* Two hives built the same way checkpoint to the same bytes — the
     checkpoint is a pure function of the knowledge state. *)
  let build () =
    let sim = Sim.create () in
    let hive = Hive.create ~sim () in
    ignore (Hive.register_program hive Corpus.parser);
    ingest_everywhere hive ~seed:21 ~n:15;
    Hive.checkpoint hive
  in
  checks "equal states, equal bytes" (build ()) (build ())

(* ---- Crash during retraction ------------------------------------------- *)

module Fixgen = Softborg_hive.Fixgen
module Fix_lifecycle = Softborg_hive.Fix_lifecycle

let test_retraction_survives_crash_restore () =
  let rollout =
    { Fix_lifecycle.default_config with Fix_lifecycle.min_exposed = 2; min_control = 2 }
  in
  let config = { (Hive.default_config Hive.Full) with Hive.rollout = rollout } in
  let sim = Sim.create () in
  let hive = Hive.create ~config ~sim () in
  let digest = Ir.digest Corpus.parser in
  let k = Hive.register_program hive Corpus.parser in
  (* A misplaced always-true guard: pure misfire telemetry. *)
  Hive.inject_fix hive ~digest
    (Fixgen.sabotage_kind Fixgen.Misplaced_guard ~program:Corpus.parser);
  let fix_id =
    match Knowledge.canary_ids k with
    | [ id ] -> id
    | _ -> Alcotest.fail "expected one canary"
  in
  let ckpt0 = Hive.checkpoint hive in
  (* Misfire evidence: the canary cohort's guard fires on a workload
     the control cohort shows benign.  Frames are built once and
     replayed verbatim after the crash, as a durable upload log would. *)
  let benign = [| 0; 0; 0 |] in
  let epoch = Knowledge.epoch k in
  let frames =
    List.concat
      (List.init 3 (fun i ->
           let r = run_once ~seed:(40 + i) Corpus.parser benign in
           let upload ~pod ~active ~hook_fires =
             Protocol.encode
               (Protocol.Trace_upload
                  (Wire.encode
                     (Trace.of_result ~program_digest:digest ~pod ~fix_epoch:epoch
                        ~attribution:{ Trace.active_fixes = active; hook_fires }
                        r)))
           in
           [ upload ~pod:1 ~active:[ fix_id ] ~hook_fires:1;
             upload ~pod:2 ~active:[] ~hook_fires:0 ]))
  in
  List.iter (Hive.ingest_payload hive) frames;
  let updates_before = (Hive.stats hive).Hive.fix_updates_sent in
  Hive.tick hive;
  checki "retraction decided" 1 (Hive.stats hive).Hive.fix_retractions;
  checki "the retraction tick sends exactly one more Fix_update" 1
    ((Hive.stats hive).Hive.fix_updates_sent - updates_before);
  Alcotest.(check (list int)) "retracted ledger" [ fix_id ] (Knowledge.retracted_ids k);
  checki "nothing live" 0 (List.length (Knowledge.live_fixes k));
  let ckpt1 = Hive.checkpoint hive in
  (* Crash A: between the retraction's Fix_update and the next durable
     checkpoint.  Restored from the pre-retraction snapshot and fed the
     same upload log, the hive re-derives the retraction byte for byte:
     recovery can lag, never diverge. *)
  (match Hive.restore hive ckpt0 with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok _ -> ());
  let k = Option.get (Hive.knowledge hive ~digest) in
  Alcotest.(check (list int)) "rolled back to canary" [ fix_id ] (Knowledge.canary_ids k);
  checki "ledger rolled back" 0 (List.length (Knowledge.retracted_ids k));
  List.iter (Hive.ingest_payload hive) frames;
  Hive.tick hive;
  Alcotest.(check (list int)) "retracted again" [ fix_id ]
    (Knowledge.retracted_ids (Option.get (Hive.knowledge hive ~digest)));
  checks "replayed retraction byte-identical" ckpt1 (Hive.checkpoint hive);
  (* Crash B: after the post-retraction checkpoint.  A twin restored
     from it keeps the fix retracted — no resurrection — and
     re-serializes identically. *)
  let twin = Hive.create ~config ~sim () in
  ignore (Hive.register_program twin Corpus.parser);
  (match Hive.restore twin ckpt1 with
  | Error e -> Alcotest.failf "twin restore failed: %s" e
  | Ok n -> checki "one program restored" 1 n);
  let k' = Option.get (Hive.knowledge twin ~digest) in
  Alcotest.(check (list int)) "twin keeps the retraction" [ fix_id ] (Knowledge.retracted_ids k');
  checki "twin resurrects nothing" 0 (List.length (Knowledge.live_fixes k'));
  checki "twin has no canaries" 0 (List.length (Knowledge.canary_ids k'));
  checks "twin equality" ckpt1 (Hive.checkpoint twin);
  (* Nor can a stale adoption (a reordered pre-retraction Fix_update)
     resurrect it after the restore. *)
  Knowledge.adopt_fixes k' ~fixes:(Knowledge.fixes k')
    ~epoch:(Knowledge.epoch k' - 1)
    ~retracted:[];
  Alcotest.(check (list int)) "stale adoption dropped" [ fix_id ] (Knowledge.retracted_ids k')

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_checkpoint"
    [
      ( "tree",
        [
          q prop_tree_checkpoint_roundtrip;
          Alcotest.test_case "node count lie" `Quick test_tree_read_rejects_node_count_lie;
        ] );
      ( "knowledge",
        [
          Alcotest.test_case "round trip" `Quick test_knowledge_roundtrip;
          q prop_knowledge_roundtrip_random;
        ] );
      ( "hive",
        [
          Alcotest.test_case "frame sorted" `Quick test_frame_sorts_by_digest;
          Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "restore reverts" `Quick test_hive_restore_reverts_knowledge;
          Alcotest.test_case "late programs kept" `Quick test_hive_restore_keeps_late_programs;
          Alcotest.test_case "determinism" `Quick test_checkpoint_determinism_across_processes;
          Alcotest.test_case "retraction survives crash" `Quick
            test_retraction_survives_crash_restore;
          Alcotest.test_case "gap verdicts survive restore" `Quick
            test_gap_verdicts_survive_restore;
          Alcotest.test_case "verdicts dropped under another config" `Quick
            test_verdicts_dropped_under_other_config;
        ] );
      ("federation", [ q prop_shard_checkpoint_roundtrip ]);
      ( "corruption",
        [
          Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "hive untouched" `Quick test_hive_restore_rejects_corruption_untouched;
          Alcotest.test_case "verdict section corruption" `Quick test_verdict_section_corruption;
          Alcotest.test_case "hive version 2 refused" `Quick test_hive_version_2_refused;
          Alcotest.test_case "shard version 2 refused" `Quick test_shard_version_2_refused;
          Alcotest.test_case "decode rejects trailing bytes" `Quick
            test_decode_rejects_trailing_bytes;
          Alcotest.test_case "decode_knowledge rejects trailing bytes" `Quick
            test_decode_knowledge_rejects_trailing_bytes;
          Alcotest.test_case "hive restore rejects trailing bytes" `Quick
            test_hive_restore_rejects_trailing_bytes;
          Alcotest.test_case "shard restore rejects trailing bytes" `Quick
            test_shard_restore_rejects_trailing_bytes;
        ] );
    ]
