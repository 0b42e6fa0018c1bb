(* The federation battery: the N-shard merge must be indistinguishable,
   byte-for-byte, from one hive fed the same traces — for any shard
   count, any routing split, and any delivery interleaving (latency
   jitter, duplication, retransmission) the transport produces; and its
   first fix must land no later than a single hive's.  Shard
   checkpoints must make a crash-restore cycle invisible, and the shard
   map must be a pure, codec-stable partition. *)

module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Generator = Softborg_prog.Generator
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Bitvec = Softborg_util.Bitvec
module Rng = Softborg_util.Rng
module Sim = Softborg_net.Sim
module Link = Softborg_net.Link
module Transport = Softborg_net.Transport
module Hive = Softborg_hive.Hive
module Knowledge = Softborg_hive.Knowledge
module Protocol = Softborg_hive.Protocol
module Shard_map = Softborg_hive.Shard_map
module Federation = Softborg_hive.Federation
module Exec_tree = Softborg_tree.Exec_tree
module Gap_memo = Softborg_hive.Gap_memo

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ---- Trace payload pools ----------------------------------------------- *)

let run_once ?(seed = 7) program inputs =
  let env = Env.make ~seed ~inputs () in
  Interp.run ~program ~env ~sched:Sched.Round_robin ()

let upload_of ?(pod = 1) program r =
  let trace = Trace.of_result ~program_digest:(Ir.digest program) ~pod ~fix_epoch:0 r in
  Protocol.encode (Protocol.Trace_upload (Wire.encode trace))

(* Pre-computed runs over two programs, so each QCheck case picks a
   random multiset without re-running the interpreter. *)
let run_pool =
  let rng = Rng.create 4242 in
  let parser =
    List.init 32 (fun i ->
        let inputs =
          if Rng.int rng 5 = 0 then Corpus.parser_trigger
          else Array.init 3 (fun _ -> Rng.int_in rng 0 30)
        in
        (Corpus.parser, run_once ~seed:i Corpus.parser inputs))
  in
  let fig2 =
    List.init 16 (fun i ->
        (Corpus.fig2_write, run_once ~seed:i Corpus.fig2_write [| Rng.int_in rng (-5) 305 |]))
  in
  Array.of_list (parser @ fig2)

let upload_pool = Array.map (fun (program, r) -> upload_of program r) run_pool

let pick_uploads rng n =
  List.init n (fun _ -> upload_pool.(Rng.int rng (Array.length upload_pool)))

(* Like [pick_uploads], but each upload reports a pod id drawn from
   0..[max_pod]: one content then arrives from pods whose ids take one
   varint byte and pods whose ids take two. *)
let pick_uploads_any_pod ~max_pod rng n =
  List.init n (fun _ ->
      let program, r = run_pool.(Rng.int rng (Array.length run_pool)) in
      upload_of ~pod:(Rng.int_in rng 0 max_pod) program r)

(* ---- Drivers ------------------------------------------------------------ *)

let fed_config ?(synthesize = false) ?transport ~n_shards () =
  let base = Federation.default_config ~n_shards () in
  {
    base with
    Federation.synthesize;
    transport = Option.value ~default:base.Federation.transport transport;
  }

let default_programs = [ Corpus.parser; Corpus.fig2_write ]

let make_fed ?synthesize ?transport ?(programs = default_programs) ~n_shards ~seed () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let config = fed_config ?synthesize ?transport ~n_shards () in
  let fed = Federation.create ~config ~sim ~rng () in
  List.iter (fun p -> ignore (Federation.register_program fed p)) programs;
  (sim, rng, fed)

(* Attach [n_pods] pod connections; returns the pod-side endpoints. *)
let attach_pods ?transport sim rng fed n_pods =
  List.init n_pods (fun _ ->
      let pod_side, router_side = Transport.endpoint_pair ?config:transport ~sim ~rng () in
      Federation.attach_pod fed router_side;
      Sim.run sim;
      pod_side)

(* Flush/commit until the exchange quiesces: no pending payloads on any
   shard and a commit round that merges nothing. *)
let settle sim fed =
  let rec go budget =
    if budget = 0 then Alcotest.fail "federation exchange did not quiesce";
    Federation.flush fed;
    Sim.run sim;
    let merged_now = Federation.commit fed in
    let stats = Federation.stats fed in
    let pending =
      List.fold_left (fun acc s -> acc + s.Federation.pending) 0 stats.Federation.per_shard
    in
    if merged_now > 0 || pending > 0 then go (budget - 1)
  in
  go 8

(* Send every upload through the pod fleet (round-robin), deliver, then
   settle the superstep exchange. *)
let run_fed ?synthesize ?transport ?programs ~n_shards ~seed uploads =
  let sim, rng, fed = make_fed ?synthesize ?transport ?programs ~n_shards ~seed () in
  let pods = attach_pods ?transport sim rng fed 2 in
  List.iteri
    (fun i payload -> Transport.send (List.nth pods (i mod List.length pods)) payload)
    uploads;
  Sim.run sim;
  settle sim fed;
  (sim, fed)

(* The single-hive oracle: one hive ingests the identical upload frames
   directly, in submission order. *)
let oracle_bytes ?(programs = default_programs) uploads =
  let sim = Sim.create () in
  let config = { (Hive.default_config Hive.Full) with Hive.synthesize = false } in
  let hive = Hive.create ~config ~sim () in
  List.iter (fun p -> ignore (Hive.register_program hive p)) programs;
  List.iter (Hive.ingest_payload hive) uploads;
  (hive, Hive.checkpoint hive)

let sorted_knowledge hive =
  Hive.knowledge_list hive
  |> List.sort (fun a b -> String.compare (Knowledge.digest a) (Knowledge.digest b))

(* ---- Merge equality ----------------------------------------------------- *)

(* The headline property: for shard counts 1/2/4 the merged knowledge
   checkpoint is byte-identical to the single hive's, even though the
   commit order (shard, seq) differs from submission order; and one
   post-merge analysis pass on each side still agrees byte-for-byte —
   fix ids and epochs are a pure function of the evidence multiset. *)
let prop_merge_equals_single =
  QCheck.Test.make ~name:"N-shard merge is byte-identical to the single hive" ~count:40
    QCheck.(triple small_nat (int_range 1 36) (int_range 0 2))
    (fun (seed, n, shard_choice) ->
      let n_shards = [| 1; 2; 4 |].(shard_choice) in
      let uploads = pick_uploads_any_pod ~max_pod:300 (Rng.create (seed * 31 + 5)) n in
      let _sim, fed = run_fed ~n_shards ~seed:(seed + 1) uploads in
      let oracle_hive, oracle = oracle_bytes uploads in
      let merged = Federation.merged fed in
      if Hive.checkpoint merged <> oracle then
        QCheck.Test.fail_report "merged knowledge differs from single hive";
      List.iter (fun k -> ignore (Knowledge.analyze k)) (sorted_knowledge merged);
      List.iter (fun k -> ignore (Knowledge.analyze k)) (sorted_knowledge oracle_hive);
      if Hive.checkpoint merged <> Hive.checkpoint oracle_hive then
        QCheck.Test.fail_report "post-merge analysis diverged from single hive";
      true)

(* Same property under a hostile delivery schedule: latency jitter
   (reordering), packet drops (retransmission), and fault-injected
   duplication on every federation link.  The transport's dedup plus
   the (shard, seq) commit order must still reproduce the oracle. *)
let prop_merge_equality_survives_link_faults =
  QCheck.Test.make ~name:"merge equality survives duplication, drops, and reordering"
    ~count:25
    QCheck.(triple small_nat (int_range 1 24) bool)
    (fun (seed, n, four_shards) ->
      let n_shards = if four_shards then 4 else 2 in
      let transport =
        {
          Transport.default_config with
          Transport.link =
            { Link.drop_probability = 0.05; mean_latency = 0.08; min_latency = 0.001 };
        }
      in
      let uploads = pick_uploads (Rng.create (seed * 13 + 3)) n in
      let sim, rng, fed = make_fed ~transport ~n_shards ~seed:(seed + 2) () in
      let pods = attach_pods ~transport sim rng fed 2 in
      List.iter (fun l -> Link.set_duplicate_probability l 0.25) (Federation.links fed);
      List.iteri
        (fun i payload -> Transport.send (List.nth pods (i mod List.length pods)) payload)
        uploads;
      Sim.run sim;
      settle sim fed;
      let _, oracle = oracle_bytes uploads in
      let equal = Hive.checkpoint (Federation.merged fed) = oracle in
      equal)

let test_generated_population_merges () =
  (* Twelve generated programs with varied early branching, so path
     prefixes spread across shard ranges instead of piling onto one
     shard; twelve uploads each. *)
  let programs =
    List.init 12 (fun i ->
        fst
          (Generator.generate
             (Rng.create (9100 + i))
             {
               Generator.default_params with
               Generator.bugs = (if i mod 2 = 0 then [ Generator.Rare_assert ] else []);
               block_depth = 3;
               stmts_per_block = 6;
             }))
  in
  let uploads =
    List.concat_map
      (fun (p : Ir.t) ->
        List.init 12 (fun i ->
            upload_of p
              (run_once ~seed:i p
                 (Array.init p.Ir.n_inputs (fun k -> (((i * 53) + (k * 19)) mod 211) - 40)))))
      programs
  in
  let _, oracle = oracle_bytes ~programs uploads in
  List.iter
    (fun n_shards ->
      let _sim, fed = run_fed ~programs ~n_shards ~seed:(40 + n_shards) uploads in
      checks
        (Printf.sprintf "%d-shard merge equals the single hive" n_shards)
        oracle
        (Hive.checkpoint (Federation.merged fed)))
    [ 1; 2; 4 ]

let test_commit_order_is_shard_then_seq () =
  (* Drive two superstep rounds and check the accounting: every delta
     sent is committed, nothing is merged twice, and the merged trace
     count equals the uploads delivered. *)
  let uploads = pick_uploads (Rng.create 99) 20 in
  let _sim, fed = run_fed ~n_shards:4 ~seed:11 uploads in
  let stats = Federation.stats fed in
  checki "all deltas committed" stats.Federation.deltas_sent stats.Federation.deltas_committed;
  checki "every upload merged exactly once" (List.length uploads)
    stats.Federation.payloads_merged;
  let merged_traces =
    List.fold_left
      (fun acc k -> acc + Knowledge.traces_ingested k)
      0
      (Hive.knowledge_list (Federation.merged fed))
  in
  checki "merged hive ingested the full multiset" (List.length uploads) merged_traces

let test_repeated_uploads_travel_once () =
  (* Each pod sends every one of its uploads three times within one
     superstep, so the canonical payloads repeat byte for byte and each
     delta carries them once with [copies = 3].  The merge must still
     equal the single hive fed every copy, at 1/2/4 shards, also when
     every shard is checkpointed and restored while the copies are
     pending. *)
  let uploads = pick_uploads (Rng.create 61) 16 in
  let repeated = List.concat_map (fun u -> [ u; u; u ]) uploads in
  let _, oracle = oracle_bytes repeated in
  List.iter
    (fun (n_shards, restore) ->
      let sim, rng, fed = make_fed ~n_shards ~seed:(70 + n_shards) () in
      let pods = attach_pods sim rng fed 2 in
      List.iteri
        (fun i payload -> Transport.send (List.nth pods (i / 3 mod List.length pods)) payload)
        repeated;
      Sim.run sim;
      if restore then
        for i = 0 to n_shards - 1 do
          match Federation.restore_shard fed i (Federation.checkpoint_shard fed i) with
          | Error e -> Alcotest.failf "restore failed: %s" e
          | Ok _ -> ()
        done;
      settle sim fed;
      let label = Printf.sprintf "%d shards%s" n_shards (if restore then ", restored" else "") in
      let stats = Federation.stats fed in
      checki (label ^ ": every copy merged") (List.length repeated)
        stats.Federation.payloads_merged;
      checkb (label ^ ": repeated payloads decoded once each") true
        (stats.Federation.payloads_decoded <= List.length uploads);
      checks (label ^ ": merge equals the single hive") oracle
        (Hive.checkpoint (Federation.merged fed)))
    [ (1, false); (2, false); (4, false); (1, true); (2, true); (4, true) ]

let test_verdicts_derived_once_per_federation () =
  (* A verdict shard 0 derives reaches the coordinator's table and,
     through the publish, every other shard's in the next superstep; a
     shard restored from a checkpoint older than the verdict gets it
     again.  Every one of these lookups is a hit. *)
  let sim, rng, fed = make_fed ~synthesize:true ~n_shards:4 ~seed:91 () in
  ignore (attach_pods sim rng fed 1);
  let digest = Ir.digest Corpus.parser in
  let knowledge hive = Option.get (Hive.knowledge hive ~digest) in
  let old_shard_1 = Federation.checkpoint_shard fed 1 in
  let shard0 = Federation.shard_hive fed 0 in
  List.iter (Hive.ingest_payload shard0) (pick_uploads (Rng.create 93) 6);
  let k0 = knowledge shard0 in
  let gap =
    match Exec_tree.frontier_top (Knowledge.tree k0) 1 with
    | [ gap ] -> gap
    | _ -> Alcotest.fail "shard 0 has no open gap"
  in
  let site = gap.Exec_tree.site and direction = gap.Exec_tree.missing in
  let config = (Hive.default_config Hive.Full).Hive.symexec_config in
  let verdict =
    Gap_memo.derive ~memo:(Knowledge.gap_memo k0) ~config Corpus.parser ~site ~direction
  in
  let hit_in what k =
    let memo = Knowledge.gap_memo k in
    let misses = Gap_memo.misses memo in
    checkb (what ^ " holds the verdict") true (Gap_memo.find memo ~site ~direction = Some verdict);
    checki (what ^ ": the lookup is no miss") misses (Gap_memo.misses memo)
  in
  Federation.superstep fed;
  Sim.run sim;
  hit_in "the coordinator after the superstep" (knowledge (Federation.merged fed));
  for i = 1 to Federation.n_shards fed - 1 do
    hit_in
      (Printf.sprintf "shard %d after the publish" i)
      (knowledge (Federation.shard_hive fed i))
  done;
  (match Federation.restore_shard fed 1 old_shard_1 with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok _ -> ());
  hit_in "shard 1 restored from before the verdict" (knowledge (Federation.shard_hive fed 1))

(* (program digest, site, direction) of every binding in a hive's
   gap memos. *)
let memo_keys hive =
  List.concat_map
    (fun k ->
      let keys = ref [] in
      Gap_memo.iter (Knowledge.gap_memo k) (fun ((site, direction), _) ->
          keys := (Knowledge.digest k, site, direction) :: !keys);
      !keys)
    (Hive.knowledge_list hive)

let memo_count count hive =
  List.fold_left (fun acc k -> acc + count (Knowledge.gap_memo k)) 0 (Hive.knowledge_list hive)

let test_coordinator_derives_what_shards_lack () =
  (* Shard 0's guidance tick derives verdicts after its last delta, so
     the next superstep carries no delta from it.  The coordinator's
     tick in that superstep still finds every verdict shard 0 holds:
     it misses only on verdicts shard 0 does not hold. *)
  let sim, rng, fed = make_fed ~synthesize:true ~n_shards:2 ~seed:93 () in
  ignore (attach_pods sim rng fed 1);
  let shard0 = Federation.shard_hive fed 0 in
  List.iter (Hive.ingest_payload shard0) (Array.to_list (Array.sub upload_pool 0 24));
  settle sim fed;
  Hive.tick shard0;
  let held = memo_keys shard0 in
  checkb "shard 0's tick derived verdicts" true (held <> []);
  let sent = (Federation.stats fed).Federation.deltas_sent in
  Federation.superstep fed;
  Sim.run sim;
  checki "shard 0 sent no delta" sent (Federation.stats fed).Federation.deltas_sent;
  let merged = Federation.merged fed in
  let lacked = List.filter (fun key -> not (List.mem key held)) (memo_keys merged) in
  checki "coordinator misses = its verdicts shard 0 lacked" (List.length lacked)
    (memo_count Gap_memo.misses merged);
  checkb "the coordinator's tick read shard 0's verdicts" true
    (memo_count Gap_memo.hits merged > 0)

let test_one_symexec_config_per_federation () =
  (* Shards asked to solve at a one-path budget derive at the
     coordinator's config anyway: their verdicts cross into the
     coordinator's tables, so they must answer the same question. *)
  let sim = Sim.create () in
  let base = fed_config ~n_shards:2 () in
  let merged_config = base.Federation.merged_hive.Hive.symexec_config in
  let config =
    {
      base with
      Federation.shard_hive =
        {
          base.Federation.shard_hive with
          Hive.symexec_config = { merged_config with Softborg_symexec.Sym_exec.max_paths = 1 };
        };
    }
  in
  let fed = Federation.create ~config ~sim ~rng:(Rng.create 94) () in
  List.iter (fun p -> ignore (Federation.register_program fed p)) default_programs;
  ignore (attach_pods sim (Rng.create 95) fed 1);
  let shard0 = Federation.shard_hive fed 0 in
  List.iter (Hive.ingest_payload shard0) (Array.to_list upload_pool);
  Hive.tick shard0;
  let derived = ref 0 in
  List.iter
    (fun k ->
      Gap_memo.iter (Knowledge.gap_memo k) (fun ((site, direction), verdict) ->
          incr derived;
          checkb "shard verdict equals the coordinator config's" true
            (verdict
            = Gap_memo.derive ~config:merged_config (Knowledge.program k) ~site ~direction)))
    (Hive.knowledge_list shard0);
  checkb "shard 0's tick derived verdicts" true (!derived > 0)

let test_superstep_solves_nothing_on_shards () =
  (* A superstep moves data: it flushes, commits, unions the shards'
     verdicts into the coordinator's tables, runs the coordinator's
     tick and publishes.  A shard closes gaps only in its
     own guidance tick, so a superstep with no shard tick neither
     solves a gap on a shard nor marks one infeasible there. *)
  let sim, _rng, fed = make_fed ~synthesize:true ~n_shards:2 ~seed:95 () in
  let fig2 =
    List.init 12 (fun i ->
        upload_of Corpus.fig2_write (run_once ~seed:i Corpus.fig2_write [| (i * 27) - 5 |]))
  in
  let parser = Array.to_list (Array.sub upload_pool 0 12) in
  List.iteri
    (fun i payload -> Hive.ingest_payload (Federation.shard_hive fed (i mod 2)) payload)
    (parser @ fig2);
  let shard_state () =
    List.init (Federation.n_shards fed) (fun i ->
        List.map
          (fun k ->
            ( Knowledge.digest k,
              Gap_memo.misses (Knowledge.gap_memo k),
              Exec_tree.version (Knowledge.tree k) ))
          (sorted_knowledge (Federation.shard_hive fed i)))
  in
  let before = shard_state () in
  Federation.superstep fed;
  Sim.run sim;
  Alcotest.(check (list (list (triple string int int))))
    "each shard program's (digest, memo misses, tree version)" before (shard_state ())

let test_shards_never_prove () =
  (* A shard config that asks for proofs and synthesis gets neither: a
     shard's partial subtree could prove an unsound whole-program
     property, and its fixes would diverge from the coordinator's. *)
  let sim = Sim.create () in
  let config =
    { (fed_config ~n_shards:2 ()) with Federation.shard_hive = Hive.default_config Hive.Full }
  in
  let fed = Federation.create ~config ~sim ~rng:(Rng.create 97) () in
  List.iter (fun p -> ignore (Federation.register_program fed p)) default_programs;
  let shard0 = Federation.shard_hive fed 0 in
  for i = 0 to 9 do
    Hive.ingest_payload shard0
      (upload_of Corpus.fig2_write (run_once ~seed:i Corpus.fig2_write [| (i * 31) - 5 |]))
  done;
  Hive.tick shard0;
  let stats = Hive.stats shard0 in
  checki "no proof on the shard" 0 stats.Hive.proofs_established;
  checki "no fix on the shard" 0 stats.Hive.fixes_deployed

let test_fix_publication_reaches_shards_and_pods () =
  (* With synthesis on, the coordinator's deployed fixes must propagate:
     shards adopt the full set (same epoch), pods receive a Fix_update. *)
  let uploads = pick_uploads (Rng.create 7) 30 in
  let sim, rng, fed = make_fed ~synthesize:true ~n_shards:2 ~seed:21 () in
  let pods = attach_pods sim rng fed 2 in
  let pod_fix_updates = ref 0 in
  List.iter
    (fun pod ->
      Transport.on_receive pod (fun payload ->
          match Protocol.decode payload with
          | Ok (Protocol.Fix_update _) -> incr pod_fix_updates
          | _ -> ()))
    pods;
  List.iteri
    (fun i payload -> Transport.send (List.nth pods (i mod List.length pods)) payload)
    uploads;
  Sim.run sim;
  Federation.superstep fed;
  Sim.run sim;
  Federation.superstep fed;
  Sim.run sim;
  let merged_epochs =
    List.map (fun k -> (Knowledge.digest k, Knowledge.epoch k, Knowledge.fixes k))
      (sorted_knowledge (Federation.merged fed))
  in
  checkb "the merged analysis deployed at least one fix" true
    (List.exists (fun (_, epoch, _) -> epoch > 0) merged_epochs);
  for i = 0 to Federation.n_shards fed - 1 do
    let shard_epochs =
      List.map (fun k -> (Knowledge.digest k, Knowledge.epoch k, Knowledge.fixes k))
        (sorted_knowledge (Federation.shard_hive fed i))
    in
    checkb "shard adopted the coordinator's fix set" true (shard_epochs = merged_epochs)
  done;
  checkb "pods received fix updates" true (!pod_fix_updates > 0)

let test_first_fix_no_later_than_single_hive () =
  (* One 40-upload schedule, every fifth upload hitting parser's planted
     assertion, against a standalone hive and against federations whose
     coordinator analyzes every half tick: the first fix must land no
     later at any shard count.  The faster cadence (free: the
     coordinator serves no pods) pays for the flush-then-commit hop a
     superstep merge inserts before evidence reaches the analyzer. *)
  let uploads =
    List.init 40 (fun i ->
        let inputs =
          if i mod 5 = 0 then Corpus.parser_trigger
          else Array.init 3 (fun k -> ((i * 7) + (k * 3)) mod 30)
        in
        upload_of Corpus.parser (run_once ~seed:i Corpus.parser inputs))
  in
  let first_fix sim pod k start =
    List.iteri
      (fun i payload ->
        Sim.schedule_at sim
          ~time:(2.0 +. (1.5 *. float_of_int i))
          (fun () -> Transport.send pod payload))
      uploads;
    start ();
    let rec go () =
      if Knowledge.epoch k > 0 then Sim.now sim
      else if Sim.now sim > 600.0 || not (Sim.step sim) then Alcotest.fail "no fix by 600s"
      else go ()
    in
    go ()
  in
  let single =
    let sim = Sim.create () in
    let hive = Hive.create ~sim () in
    let k = Hive.register_program hive Corpus.parser in
    let pod, hive_end = Transport.endpoint_pair ~sim ~rng:(Rng.create 3) () in
    Hive.attach_pod hive hive_end;
    first_fix sim pod k (fun () -> Hive.start hive)
  in
  List.iter
    (fun n_shards ->
      let sim = Sim.create () in
      let base = Federation.default_config ~n_shards () in
      let config =
        { base with Federation.superstep_interval = base.Federation.superstep_interval /. 2.0 }
      in
      let fed = Federation.create ~config ~sim ~rng:(Rng.create (50 + n_shards)) () in
      let k = Federation.register_program fed Corpus.parser in
      let pod, router = Transport.endpoint_pair ~sim ~rng:(Rng.create 5) () in
      (* No Sim.run between attach and start: the superstep schedule
         anchors at t=0, exactly like the single hive's ticks. *)
      Federation.attach_pod fed router;
      let t = first_fix sim pod k (fun () -> Federation.start fed) in
      checkb
        (Printf.sprintf "%d shards: first fix at %.1fs, single hive at %.1fs" n_shards t single)
        true (t <= single))
    [ 1; 2; 4; 8 ]

let test_coordinator_retraction_reaches_shards_and_survives_restore () =
  (* Retraction is decided only at the merge coordinator: shards and
     pods learn of it through the published [Fix_update] at the
     post-retraction epoch, in superstep order — and a shard restored
     from a pre-retraction checkpoint is caught up by the restore path,
     so the fix stays dead. *)
  let module Fixgen = Softborg_hive.Fixgen in
  let module Fix_lifecycle = Softborg_hive.Fix_lifecycle in
  let rollout =
    { Fix_lifecycle.default_config with Fix_lifecycle.min_exposed = 2; min_control = 2 }
  in
  let sim = Sim.create () in
  let rng = Rng.create 83 in
  let config =
    let base = fed_config ~synthesize:true ~n_shards:2 () in
    {
      base with
      Federation.merged_hive = { base.Federation.merged_hive with Hive.rollout = rollout };
    }
  in
  let fed = Federation.create ~config ~sim ~rng () in
  ignore (Federation.register_program fed Corpus.parser);
  ignore (Federation.register_program fed Corpus.fig2_write);
  let pods = attach_pods sim rng fed 2 in
  let digest = Ir.digest Corpus.parser in
  (* Each pod's last parser fix frame: (epoch, deployed fix ids). *)
  let last_updates =
    List.map
      (fun pod ->
        let last = ref None in
        Transport.on_receive pod (fun payload ->
            match Protocol.decode payload with
            | Ok (Protocol.Fix_update { program_digest; epoch; fixes; _ })
              when program_digest = digest ->
              last := Some (epoch, List.map (fun (f : Fixgen.fix) -> f.Fixgen.id) fixes)
            | _ -> ());
        last)
      pods
  in
  let mk = Option.get (Hive.knowledge (Federation.merged fed) ~digest) in
  Hive.inject_fix (Federation.merged fed) ~digest
    (Fixgen.sabotage_kind Fixgen.Misplaced_guard ~program:Corpus.parser);
  let fix_id =
    match Knowledge.canary_ids mk with
    | [ id ] -> id
    | _ -> Alcotest.fail "expected one canary at the coordinator"
  in
  (* Superstep 1 publishes the canary deployment; shards adopt it. *)
  Federation.superstep fed;
  Sim.run sim;
  for i = 0 to Federation.n_shards fed - 1 do
    let sk = Option.get (Hive.knowledge (Federation.shard_hive fed i) ~digest) in
    checki "shard adopted the canary deployment" (Knowledge.epoch mk) (Knowledge.epoch sk)
  done;
  (* Shard 0's durable state as of the deployment — before retraction. *)
  let pre_retraction = Federation.checkpoint_shard fed 0 in
  (* Misfire evidence through the pod fleet: the guard fires on a
     workload the control cohort shows benign. *)
  let epoch = Knowledge.epoch mk in
  let frames =
    List.concat
      (List.init 3 (fun i ->
           let r = run_once ~seed:(60 + i) Corpus.parser [| 0; 0; 0 |] in
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
  List.iteri
    (fun i payload -> Transport.send (List.nth pods (i mod List.length pods)) payload)
    frames;
  Sim.run sim;
  (* Drain the shard deltas into the coordinator, then let the next
     superstep's health test retract and publish. *)
  settle sim fed;
  Federation.superstep fed;
  Sim.run sim;
  Alcotest.(check (list int)) "coordinator retracted the fix" [ fix_id ]
    (Knowledge.retracted_ids mk);
  checki "nothing live at the coordinator" 0 (List.length (Knowledge.live_fixes mk));
  List.iter
    (fun last ->
      match !last with
      | None -> Alcotest.fail "pod received no fix frame"
      | Some (epoch, ids) ->
        checki "pod's last Fix_update is at the post-retraction epoch" (Knowledge.epoch mk)
          epoch;
        checkb "pod's last Fix_update lacks the retracted fix" false (List.mem fix_id ids))
    last_updates;
  for i = 0 to Federation.n_shards fed - 1 do
    let sk = Option.get (Hive.knowledge (Federation.shard_hive fed i) ~digest) in
    Alcotest.(check (list int)) "shard adopted the retraction" [ fix_id ]
      (Knowledge.retracted_ids sk);
    checki "nothing live on the shard" 0 (List.length (Knowledge.live_fixes sk))
  done;
  (* Crash: shard 0 restarts from its pre-retraction checkpoint.  The
     restore catch-up adopts the coordinator's current fix set, so the
     retracted fix must not come back to life. *)
  (match Federation.restore_shard fed 0 pre_retraction with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok _ -> ());
  let sk = Option.get (Hive.knowledge (Federation.shard_hive fed 0) ~digest) in
  Alcotest.(check (list int)) "restored shard caught up to the retraction" [ fix_id ]
    (Knowledge.retracted_ids sk);
  checki "restored shard resurrects nothing" 0 (List.length (Knowledge.live_fixes sk))

(* ---- Shard checkpoint / restore ----------------------------------------- *)

let knowledge_fingerprints hive =
  List.map
    (fun k ->
      (Knowledge.digest k, Knowledge.epoch k, Knowledge.traces_ingested k,
       Knowledge.failures_observed k))
    (sorted_knowledge hive)

let test_shard_checkpoint_roundtrip () =
  (* Checkpoint with a non-empty pending buffer: restore must bring the
     buffer back and re-checkpoint to the same bytes. *)
  let uploads = pick_uploads (Rng.create 17) 12 in
  let sim, rng, fed = make_fed ~n_shards:2 ~seed:31 () in
  let pods = attach_pods sim rng fed 1 in
  List.iter (fun payload -> Transport.send (List.hd pods) payload) uploads;
  Sim.run sim;
  (* No flush yet: everything admitted sits in the pending buffers. *)
  let stats = Federation.stats fed in
  let pending =
    List.fold_left (fun acc s -> acc + s.Federation.pending) 0 stats.Federation.per_shard
  in
  checki "uploads are pending, not yet flushed" (List.length uploads) pending;
  for i = 0 to Federation.n_shards fed - 1 do
    let bytes = Federation.checkpoint_shard fed i in
    let before = knowledge_fingerprints (Federation.shard_hive fed i) in
    (match Federation.restore_shard fed i bytes with
    | Error e -> Alcotest.failf "restore failed: %s" e
    | Ok n -> checki "both programs restored" 2 n);
    checkb "knowledge identical after restore" true
      (knowledge_fingerprints (Federation.shard_hive fed i) = before);
    checks "re-checkpoint byte-identical" bytes (Federation.checkpoint_shard fed i)
  done;
  (* The restored pending buffers must still flush and merge. *)
  settle sim fed;
  let _, oracle = oracle_bytes uploads in
  checks "restored shards still merge to the oracle" oracle
    (Hive.checkpoint (Federation.merged fed))

let test_shard_crash_restore_invisible_vs_twin () =
  (* Two federations run the identical upload schedule; in one, shard 0
     crashes mid-run and restores from a just-taken checkpoint.  The
     crash must be invisible: final merged bytes and every shard's
     checkpoint bytes equal the fault-free twin's. *)
  let uploads = pick_uploads (Rng.create 23) 24 in
  let phase1, phase2 =
    let rec split i = function
      | rest when i = 0 -> ([], rest)
      | x :: rest ->
        let a, b = split (i - 1) rest in
        (x :: a, b)
      | [] -> ([], [])
    in
    split 12 uploads
  in
  let drive_phase sim pods uploads =
    List.iteri
      (fun i payload -> Transport.send (List.nth pods (i mod List.length pods)) payload)
      uploads;
    Sim.run sim
  in
  let build crash =
    let sim, rng, fed = make_fed ~n_shards:2 ~seed:41 () in
    let pods = attach_pods sim rng fed 2 in
    drive_phase sim pods phase1;
    if crash then begin
      (* Kill-and-restart from a checkpoint taken at the moment of the
         crash: pending payloads and the delta seq counter round-trip. *)
      let bytes = Federation.checkpoint_shard fed 0 in
      match Federation.restore_shard fed 0 bytes with
      | Error e -> Alcotest.failf "crash restore failed: %s" e
      | Ok _ -> ()
    end;
    drive_phase sim pods phase2;
    settle sim fed;
    fed
  in
  let fed_a = build false in
  let fed_b = build true in
  checks "merged knowledge equal to fault-free twin"
    (Hive.checkpoint (Federation.merged fed_a))
    (Hive.checkpoint (Federation.merged fed_b));
  for i = 0 to 1 do
    checks "shard checkpoint equal to fault-free twin"
      (Federation.checkpoint_shard fed_a i)
      (Federation.checkpoint_shard fed_b i)
  done

let test_restore_never_rewinds_delta_seq () =
  (* Restore from a checkpoint older than the last flush: the shard's
     knowledge reverts, but the next delta must use a fresh sequence
     number, so post-restore evidence still reaches the coordinator. *)
  let sim, rng, fed = make_fed ~n_shards:1 ~seed:51 () in
  let pods = attach_pods sim rng fed 1 in
  let old = Federation.checkpoint_shard fed 0 in
  let uploads = pick_uploads (Rng.create 29) 6 in
  List.iter (fun payload -> Transport.send (List.hd pods) payload) uploads;
  Sim.run sim;
  settle sim fed;
  let merged_before = (Federation.stats fed).Federation.payloads_merged in
  checki "first round merged" (List.length uploads) merged_before;
  (match Federation.restore_shard fed 0 old with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok _ -> ());
  let more = pick_uploads (Rng.create 37) 5 in
  List.iter (fun payload -> Transport.send (List.hd pods) payload) more;
  Sim.run sim;
  settle sim fed;
  checki "post-restore deltas are not dropped as duplicates"
    (merged_before + List.length more)
    (Federation.stats fed).Federation.payloads_merged

let test_restore_rejects_corruption_untouched () =
  let uploads = pick_uploads (Rng.create 43) 8 in
  let _sim, fed = run_fed ~n_shards:2 ~seed:61 uploads in
  let good = Federation.checkpoint_shard fed 0 in
  let before = knowledge_fingerprints (Federation.shard_hive fed 0) in
  (match Federation.restore_shard fed 0 "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input must not restore");
  (match Federation.restore_shard fed 0 "SBFSgarbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not restore");
  (match Federation.restore_shard fed 0 (String.sub good 0 (String.length good / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncation must not restore");
  checkb "failed restores leave the shard untouched" true
    (knowledge_fingerprints (Federation.shard_hive fed 0) = before);
  checks "checkpoint unchanged" good (Federation.checkpoint_shard fed 0)

(* ---- Shard map ----------------------------------------------------------- *)

let test_shard_map_validation () =
  (match Shard_map.create ~n_shards:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n_shards 0 must be rejected");
  (match Shard_map.create ~prefix_bits:0 ~n_shards:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "prefix_bits 0 must be rejected");
  match Shard_map.create ~prefix_bits:21 ~n_shards:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "prefix_bits 21 must be rejected"

let prop_shard_map_partition =
  QCheck.Test.make ~name:"shard map is a contiguous monotone partition" ~count:200
    QCheck.(triple (int_range 1 16) (int_range 1 12) (list_of_size Gen.(0 -- 30) bool))
    (fun (n_shards, prefix_bits, path) ->
      let map = Shard_map.create ~prefix_bits ~n_shards () in
      let owner = Shard_map.owner_of_bits map (Bitvec.of_bools path) in
      if owner < 0 || owner >= n_shards then
        QCheck.Test.fail_report "owner out of range";
      (* Monotone in the prefix value: flipping any 0-bit of the first
         [prefix_bits] decisions to 1 cannot move the path to a lower
         shard. *)
      List.iteri
        (fun i b ->
          if i < prefix_bits && not b then begin
            let raised = List.mapi (fun j x -> if j = i then true else x) path in
            if Shard_map.owner_of_bits map (Bitvec.of_bools raised) < owner then
              QCheck.Test.fail_report "owner not monotone in the prefix value"
          end)
        path;
      (* Zero-padding: a short path and its explicit all-false extension
         share an owner. *)
      let padded = path @ List.init prefix_bits (fun _ -> false) in
      if owner <> Shard_map.owner_of_bits map (Bitvec.of_bools padded) then
        QCheck.Test.fail_report "zero-pad owner mismatch";
      true)

let test_shard_map_covers_all_shards () =
  (* With at least as many ranges as shards, every shard owns a value —
     no shard can sit idle by construction. *)
  List.iter
    (fun n_shards ->
      let bits = 4 in
      let map = Shard_map.create ~prefix_bits:bits ~n_shards () in
      let seen = Array.make n_shards false in
      for v = 0 to (1 lsl bits) - 1 do
        let path = List.init bits (fun i -> (v lsr (bits - 1 - i)) land 1 = 1) in
        seen.(Shard_map.owner_of_bits map (Bitvec.of_bools path)) <- true
      done;
      Array.iteri
        (fun i covered -> if not covered then Alcotest.failf "shard %d owns no range" i)
        seen)
    [ 1; 2; 3; 8; 16 ]

(* ---- Platform-level determinism ----------------------------------------- *)

let report_bytes config =
  Format.asprintf "%a" Softborg.Platform.pp_report (Softborg.Platform.run config)

let fed_platform_config ?(n_shards = 2) () =
  let config =
    Softborg.Scenario.single_program ~seed:5 Corpus.parser
    |> Softborg.Scenario.with_shards n_shards
  in
  { config with Softborg.Platform.duration = 90.0; n_pods = 4; sample_interval = 30.0 }

let test_federated_platform_deterministic () =
  let config = fed_platform_config () in
  checks "identical seeds, identical federated reports" (report_bytes config)
    (report_bytes config)

let test_federated_platform_chaos_deterministic () =
  (* Chaos (shard crashes restored from checkpoints, churn, degradation)
     over the federation must stay reproducible and complete. *)
  let config = Softborg.Scenario.with_chaos ~chaos_seed:77 (fed_platform_config ()) in
  let r1 = report_bytes config in
  checks "federated chaos runs are deterministic" r1 (report_bytes config);
  checkb "federation section present" true
    (let report = Softborg.Platform.run config in
     report.Softborg.Platform.federation <> None)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_federation"
    [
      ( "merge",
        [
          q prop_merge_equals_single;
          q prop_merge_equality_survives_link_faults;
          Alcotest.test_case "generated population" `Quick test_generated_population_merges;
          Alcotest.test_case "delta accounting" `Quick test_commit_order_is_shard_then_seq;
          Alcotest.test_case "repeated uploads travel once" `Quick
            test_repeated_uploads_travel_once;
          Alcotest.test_case "verdicts derived once per federation" `Quick
            test_verdicts_derived_once_per_federation;
          Alcotest.test_case "coordinator derives what shards lack" `Quick
            test_coordinator_derives_what_shards_lack;
          Alcotest.test_case "one symexec config per federation" `Quick
            test_one_symexec_config_per_federation;
          Alcotest.test_case "superstep solves nothing on shards" `Quick
            test_superstep_solves_nothing_on_shards;
          Alcotest.test_case "shards never prove" `Quick test_shards_never_prove;
          Alcotest.test_case "fix publication" `Quick test_fix_publication_reaches_shards_and_pods;
          Alcotest.test_case "first fix no later than one hive" `Quick
            test_first_fix_no_later_than_single_hive;
          Alcotest.test_case "coordinator retraction" `Quick
            test_coordinator_retraction_reaches_shards_and_survives_restore;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "shard round trip" `Quick test_shard_checkpoint_roundtrip;
          Alcotest.test_case "crash invisible" `Quick test_shard_crash_restore_invisible_vs_twin;
          Alcotest.test_case "seq never rewinds" `Quick test_restore_never_rewinds_delta_seq;
          Alcotest.test_case "corruption rejected" `Quick test_restore_rejects_corruption_untouched;
        ] );
      ( "shard_map",
        [
          Alcotest.test_case "validation" `Quick test_shard_map_validation;
          q prop_shard_map_partition;
          Alcotest.test_case "coverage" `Quick test_shard_map_covers_all_shards;
        ] );
      ( "platform",
        [
          Alcotest.test_case "deterministic" `Quick test_federated_platform_deterministic;
          Alcotest.test_case "chaos deterministic" `Quick
            test_federated_platform_chaos_deterministic;
        ] );
    ]
