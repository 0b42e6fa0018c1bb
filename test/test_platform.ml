(* Integration tests for the whole platform: metrics, the three modes,
   determinism, and behavior under a degraded network. *)

module Corpus = Softborg_prog.Corpus
module Exec_tree = Softborg_tree.Exec_tree
module Knowledge = Softborg_hive.Knowledge
module Checkpoint = Softborg_hive.Checkpoint
module Prover = Softborg_hive.Prover
module Hive = Softborg_hive.Hive
module Transport = Softborg_net.Transport
module Link = Softborg_net.Link
module Sim = Softborg_net.Sim
module Rng = Softborg_util.Rng
module Fault_plan = Softborg_net.Fault_plan
module Pod = Softborg_pod.Pod
module Workload = Softborg_pod.Workload
module Platform = Softborg.Platform
module Scenario = Softborg.Scenario
module Metrics = Softborg.Metrics

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---- Metrics ---------------------------------------------------------- *)

let snap ~time ~sessions ~failures =
  {
    Metrics.time;
    sessions;
    guided_runs = 0;
    user_failures = failures;
    averted_crashes = 0;
    deferred_acquisitions = 0;
    guard_flags = 0;
    traces_uploaded = 0;
    fixes_deployed = 0;
    proofs_valid = 0;
    tree_paths = 0;
    tree_completeness = 0.0;
    checkpoints = 0;
    restores = 0;
    shed_uploads = 0;
    quarantined_frames = 0;
    pods_muted = 0;
    peak_queue_depth = 0;
    thinned_uploads = 0;
    dead_letters = 0;
    wire_bytes = 0;
    wire_frames_sent = 0;
    wire_frames_received = 0;
    gap_memo_hits = 0;
    gap_memo_misses = 0;
    verdict_cache_hits = 0;
    verdict_cache_misses = 0;
    canary_fixes = 0;
    fix_promotions = 0;
    fix_retractions = 0;
    quarantined_fix_traces = 0;
    pods_exposed = 0;
  }

let test_metrics_failure_rate () =
  checkf "rate" 0.1 (Metrics.failure_rate (snap ~time:0.0 ~sessions:100 ~failures:10));
  checkf "empty" 0.0 (Metrics.failure_rate (snap ~time:0.0 ~sessions:0 ~failures:0))

let test_metrics_windows () =
  let snaps =
    [
      snap ~time:0.0 ~sessions:0 ~failures:0;
      snap ~time:10.0 ~sessions:100 ~failures:5;
      snap ~time:20.0 ~sessions:250 ~failures:5;
    ]
  in
  match Metrics.windows snaps with
  | [ w1; w2 ] ->
    checki "w1 sessions" 100 w1.Metrics.w_sessions;
    checki "w1 failures" 5 w1.Metrics.w_failures;
    checkf "w1 rate" 0.05 w1.Metrics.w_failure_rate;
    checki "w2 sessions" 150 w2.Metrics.w_sessions;
    checkf "w2 rate" 0.0 w2.Metrics.w_failure_rate
  | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws)

let test_metrics_windows_degenerate () =
  checki "no windows from one snapshot" 0
    (List.length (Metrics.windows [ snap ~time:0.0 ~sessions:0 ~failures:0 ]));
  checki "none from empty" 0 (List.length (Metrics.windows []))

let test_metrics_zero_session_window () =
  (* An idle window (no sessions between snapshots) must not divide by
     zero; its rate is defined as 0. *)
  let snaps =
    [ snap ~time:0.0 ~sessions:40 ~failures:2; snap ~time:10.0 ~sessions:40 ~failures:2 ]
  in
  (match Metrics.windows snaps with
  | [ w ] ->
    checki "no sessions" 0 w.Metrics.w_sessions;
    checkf "rate guarded" 0.0 w.Metrics.w_failure_rate
  | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws));
  (* Same guard on the cumulative rate. *)
  checkf "cumulative guarded" 0.0 (Metrics.failure_rate (snap ~time:0.0 ~sessions:0 ~failures:0))

(* ---- Platform runs ------------------------------------------------------ *)

let quick_config ?mode program =
  let config = Scenario.single_program ?mode program in
  {
    config with
    Platform.n_pods = 3;
    duration = 120.0;
    sample_interval = 30.0;
    pod_config =
      {
        config.Platform.pod_config with
        Pod.arrival_rate = 1.0;
        workload = Workload.Uniform_inputs { lo = 0; hi = 40 };
      };
  }

let test_platform_full_mode_runs () =
  let report = Platform.run (quick_config Corpus.fig2_write) in
  let f = report.Platform.final in
  checkb "sessions happened" true (f.Metrics.sessions > 50);
  checkb "traces reached the hive" true (report.Platform.hive_stats.Hive.traces_received > 0);
  (match report.Platform.knowledge with
  | [ k ] ->
    checkb "tree built" true (Exec_tree.n_distinct_paths (Knowledge.tree k) >= 2);
    checki "no replay errors" 0 (Knowledge.replay_errors k)
  | ks -> Alcotest.failf "expected one knowledge entry, got %d" (List.length ks));
  (* Snapshot series is monotone in time and counters. *)
  let rec monotone = function
    | (a : Metrics.snapshot) :: (b :: _ as rest) ->
      a.Metrics.time < b.Metrics.time && a.Metrics.sessions <= b.Metrics.sessions && monotone rest
    | _ -> true
  in
  checkb "snapshots monotone" true (monotone report.Platform.snapshots)

let test_platform_deterministic () =
  let run () =
    let report = Platform.run (quick_config Corpus.parser) in
    let f = report.Platform.final in
    (f.Metrics.sessions, f.Metrics.user_failures, f.Metrics.traces_uploaded)
  in
  let a = run () in
  let b = run () in
  checkb "same seed, same outcome" true (a = b)

let test_platform_repeatable_in_process () =
  (* Deterministic in the seed alone: pods minted earlier in the same
     process — here enough to push pod ids past the one-byte varint
     boundary of the trace wire format — must not leak into a run. *)
  let config = quick_config Corpus.parser in
  let render () =
    let report = Platform.run config in
    let w = Softborg_util.Codec.Writer.create () in
    List.iter (Knowledge.write w) report.Platform.knowledge;
    (Format.asprintf "%a" Platform.pp_report report, Softborg_util.Codec.Writer.contents w)
  in
  let report_a, knowledge_a = render () in
  let sim = Sim.create () in
  for cohort = 0 to 199 do
    let pod_end, _ = Transport.endpoint_pair ~sim ~rng:(Rng.create cohort) () in
    ignore
      (Pod.create ~cohort ~sim ~rng:(Rng.create cohort) ~program:Corpus.parser
         ~endpoint:pod_end ())
  done;
  let report_b, knowledge_b = render () in
  Alcotest.(check string) "same report" report_a report_b;
  checkb "same knowledge bytes" true (String.equal knowledge_a knowledge_b)

let test_platform_wer_mode_builds_no_tree () =
  let report = Platform.run (quick_config ~mode:Hive.Wer Corpus.fig2_write) in
  match report.Platform.knowledge with
  | [ k ] ->
    checki "no tree from outcome-only uploads" 0 (Exec_tree.n_distinct_paths (Knowledge.tree k));
    checkb "but traces were counted" true (Knowledge.traces_ingested k > 0)
  | _ -> Alcotest.fail "expected one knowledge entry"

let test_platform_cbi_mode_feeds_isolator () =
  let report = Platform.run (quick_config ~mode:Hive.Cbi Corpus.parser) in
  match report.Platform.knowledge with
  | [ k ] ->
    checkb "isolator saw runs" true (Softborg_hive.Isolate.runs (Knowledge.isolate k) > 0)
  | _ -> Alcotest.fail "expected one knowledge entry"

let test_platform_lossy_network_loses_nothing () =
  let config = Scenario.lossy_network (quick_config Corpus.fig2_write) in
  let report = Platform.run config in
  (* The reliable transport must deliver every pod upload despite 10%
     packet loss (retransmissions cover the gap). *)
  List.iter
    (fun (s : Transport.stats) ->
      checki "nothing abandoned" 0 s.Transport.gave_up)
    report.Platform.transport_stats;
  let uploaded = report.Platform.final.Metrics.traces_uploaded in
  checkb "hive received all uploads" true
    (report.Platform.hive_stats.Hive.traces_received >= uploaded * 9 / 10);
  let retrans =
    List.fold_left
      (fun acc (s : Transport.stats) -> acc + s.Transport.retransmissions)
      0 report.Platform.transport_stats
  in
  checkb "retransmissions occurred" true (retrans > 0)

let test_platform_guided_fix_before_user_failure () =
  (* Rare bug + skewed workload: guidance finds and fixes it with no
     user-visible failure (the E4 headline, as a regression test). *)
  let config = Scenario.single_program ~seed:21 Corpus.parser in
  let config =
    {
      config with
      Platform.duration = 400.0;
      sample_interval = 100.0;
      n_pods = 4;
      pod_config =
        {
          config.Platform.pod_config with
          Pod.workload = Workload.Zipf_inputs { lo = 0; hi = 191; exponent = 1.3 };
          arrival_rate = 1.0;
        };
    }
  in
  let report = Platform.run config in
  let k = List.hd report.Platform.knowledge in
  let deployable = List.filter Softborg_hive.Fixgen.is_deployable (Knowledge.fixes k) in
  checkb "guided exploration produced a fix" true (deployable <> []);
  checki "no user-visible failures" 0 report.Platform.final.Metrics.user_failures

let test_platform_duplicating_network_no_double_count () =
  (* A packet-cloning link between pod and hive: the transport suppresses
     the clones, so the hive ingests each uploaded trace exactly once. *)
  let sim = Sim.create () in
  let rng = Rng.create 99 in
  let hive = Hive.create ~sim () in
  let program = Corpus.fig2_write in
  ignore (Hive.register_program hive program);
  let pod_end, hive_end = Transport.endpoint_pair ~sim ~rng:(Rng.split rng) () in
  (match Transport.out_link pod_end with
  | Some l -> Link.set_duplicate_probability l 0.7
  | None -> Alcotest.fail "pod endpoint has no link");
  Hive.attach_pod hive hive_end;
  let pod_config =
    {
      Pod.default_config with
      Pod.arrival_rate = 2.0;
      workload = Workload.Uniform_inputs { lo = 0; hi = 40 };
    }
  in
  let pod =
    Pod.create ~config:pod_config ~cohort:0 ~sim ~rng:(Rng.split rng) ~program ~endpoint:pod_end ()
  in
  Hive.start hive;
  Pod.start pod;
  Sim.run ~until:60.0 sim;
  let uploaded = (Pod.metrics pod).Pod.traces_uploaded in
  let hive_stats = Hive.stats hive in
  let sh = Transport.stats hive_end in
  checkb "clones hit the wire" true (sh.Transport.duplicates_suppressed > 0);
  checkb "traces flowed" true (uploaded > 0);
  checki "hive saw each upload exactly once" uploaded hive_stats.Hive.traces_received;
  match Hive.knowledge_list hive with
  | [ k ] -> checki "knowledge never double-counts" uploaded (Knowledge.traces_ingested k)
  | _ -> Alcotest.fail "expected one knowledge entry"

(* ---- Chaos harness ----------------------------------------------------- *)

let trajectory report =
  List.map
    (fun (s : Metrics.snapshot) ->
      (s.Metrics.time, s.Metrics.sessions, s.Metrics.user_failures))
    report.Platform.snapshots

(* Everything about a proof except its id: the restored hive re-bumps
   the global id counter, so ids may diverge while content must not. *)
let proof_shape (p : Prover.proof) =
  (p.Prover.property, p.Prover.strength, p.Prover.epoch, p.Prover.distinct_paths, p.Prover.valid)

let test_platform_chaos_checkpoint_identity () =
  (* Kill the hive right after a checkpoint, several times mid-run.  The
     restored knowledge must be observationally identical, so the whole
     run matches its fault-free twin: same failure trajectory, same fix
     epoch, same proof set. *)
  let base = quick_config Corpus.parser in
  let plain = Platform.run base in
  let plan =
    Fault_plan.create
      [
        Fault_plan.Checkpoint { at = 30.0 };
        Fault_plan.Hive_crash { at = 30.0 };
        Fault_plan.Checkpoint { at = 70.0 };
        Fault_plan.Hive_crash { at = 70.0 };
        Fault_plan.Checkpoint { at = 100.0 };
        Fault_plan.Hive_crash { at = 100.0 };
      ]
  in
  let chaos =
    Platform.run { base with Platform.chaos = Some plan; checkpoint_interval = 0.0 }
  in
  checkb "same trajectory" true (trajectory plain = trajectory chaos);
  checki "initial + three scheduled checkpoints" 4 chaos.Platform.final.Metrics.checkpoints;
  checki "three restores" 3 chaos.Platform.final.Metrics.restores;
  match (plain.Platform.knowledge, chaos.Platform.knowledge) with
  | [ kp ], [ kc ] ->
    checki "same epoch" (Knowledge.epoch kp) (Knowledge.epoch kc);
    checki "same traces ingested" (Knowledge.traces_ingested kp) (Knowledge.traces_ingested kc);
    checki "same tree version" (Exec_tree.version (Knowledge.tree kp))
      (Exec_tree.version (Knowledge.tree kc));
    checki "same distinct paths" (Exec_tree.n_distinct_paths (Knowledge.tree kp))
      (Exec_tree.n_distinct_paths (Knowledge.tree kc));
    checkb "same proofs (modulo ids)" true
      (List.map proof_shape (Knowledge.proofs kp) = List.map proof_shape (Knowledge.proofs kc))
  | _ -> Alcotest.fail "expected one knowledge entry per run"

let test_platform_chaos_rollback_recovers () =
  (* A crash 40 simulated seconds after the last checkpoint rolls real
     knowledge back; the fleet must shrug it off — keep running
     sessions, relearn, and survive churn and a degraded-link window. *)
  let base = quick_config Corpus.fig2_write in
  let plan =
    Fault_plan.create
      [
        Fault_plan.Checkpoint { at = 20.0 };
        Fault_plan.Degrade
          {
            at = 40.0;
            until_ = 55.0;
            link = { Link.drop_probability = 0.3; mean_latency = 0.4; min_latency = 0.05 };
          };
        Fault_plan.Hive_crash { at = 60.0 };
        Fault_plan.Pod_leave { at = 70.0; pod = 1 };
        Fault_plan.Pod_join { at = 80.0 };
      ]
  in
  let report =
    Platform.run { base with Platform.chaos = Some plan; checkpoint_interval = 0.0 }
  in
  let f = report.Platform.final in
  checki "one restore" 1 f.Metrics.restores;
  checki "initial + one scheduled checkpoint" 2 f.Metrics.checkpoints;
  checkb "fleet kept running" true (f.Metrics.sessions > 50);
  checki "joined pod reported" 4 (List.length report.Platform.pod_metrics);
  match report.Platform.knowledge with
  | [ k ] ->
    checkb "hive relearned after rollback" true (Knowledge.traces_ingested k > 0);
    checkb "tree rebuilt" true (Exec_tree.n_distinct_paths (Knowledge.tree k) >= 1);
    (* The knowledge a restore left behind still round-trips. *)
    let bytes = Checkpoint.encode [ k ] in
    (match Checkpoint.decode bytes with
    | Ok ks -> Alcotest.(check string) "checkpoint round trip" bytes (Checkpoint.encode ks)
    | Error e -> Alcotest.failf "checkpoint decode failed: %s" e)
  | ks -> Alcotest.failf "expected one knowledge entry, got %d" (List.length ks)

let test_platform_chaos_deterministic () =
  (* A generated fault plan replays bit-for-bit from its seed. *)
  let run () =
    let config = Scenario.with_chaos ~crash_rate:0.01 ~churn_rate:0.01 (quick_config Corpus.parser) in
    let report = Platform.run config in
    let f = report.Platform.final in
    (trajectory report, f.Metrics.checkpoints, f.Metrics.restores)
  in
  checkb "same chaos seed, same outcome" true (run () = run ())

let () =
  Alcotest.run "softborg_platform"
    [
      ( "metrics",
        [
          Alcotest.test_case "failure rate" `Quick test_metrics_failure_rate;
          Alcotest.test_case "windows" `Quick test_metrics_windows;
          Alcotest.test_case "degenerate windows" `Quick test_metrics_windows_degenerate;
          Alcotest.test_case "zero-session window" `Quick test_metrics_zero_session_window;
        ] );
      ( "platform",
        [
          Alcotest.test_case "full mode" `Quick test_platform_full_mode_runs;
          Alcotest.test_case "deterministic" `Quick test_platform_deterministic;
          Alcotest.test_case "repeatable in process" `Quick test_platform_repeatable_in_process;
          Alcotest.test_case "wer mode" `Quick test_platform_wer_mode_builds_no_tree;
          Alcotest.test_case "cbi mode" `Quick test_platform_cbi_mode_feeds_isolator;
          Alcotest.test_case "lossy network" `Quick test_platform_lossy_network_loses_nothing;
          Alcotest.test_case "guided fix first" `Quick test_platform_guided_fix_before_user_failure;
          Alcotest.test_case "duplicating network" `Quick test_platform_duplicating_network_no_double_count;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "checkpoint identity" `Quick test_platform_chaos_checkpoint_identity;
          Alcotest.test_case "rollback recovers" `Quick test_platform_chaos_rollback_recovers;
          Alcotest.test_case "deterministic" `Quick test_platform_chaos_deterministic;
        ] );
    ]
