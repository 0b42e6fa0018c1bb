(* Tests for the staged fix rollout: deterministic canary cohorts, the
   sequential canary-vs-control health test, the lifecycle checkpoint
   codec, quarantine of retracted-fix evidence, the monotonic
   epoch guard that keeps an adversarial (duplicating, reordering)
   transport from ever resurrecting a retracted fix, and the rollout's
   acceptance bars on a fleet running a sabotaged fix. *)

module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Outcome = Softborg_exec.Outcome
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Sim = Softborg_net.Sim
module Transport = Softborg_net.Transport
module Protocol = Softborg_hive.Protocol
module Guidance = Softborg_hive.Guidance
module Fixgen = Softborg_hive.Fixgen
module Fix_lifecycle = Softborg_hive.Fix_lifecycle
module Knowledge = Softborg_hive.Knowledge
module Hive = Softborg_hive.Hive
module Corpus_bench = Softborg_corpus.Corpus_bench
module Pod = Softborg_pod.Pod
module Rng = Softborg_util.Rng
module Codec = Softborg_util.Codec
module Platform = Softborg.Platform
module Scenario = Softborg.Scenario
module Metrics = Softborg.Metrics

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ---- Cohorts ----------------------------------------------------------- *)

let test_cohort_deterministic () =
  (* Pure function of (cohort, fix id): same answer on every call, and
     any two evaluation orders agree — what makes membership replayable
     across shard counts and restores. *)
  let sample = List.init 200 (fun c -> List.init 5 (fun f -> Fix_lifecycle.in_cohort ~cohort:c ~fix_id:(f + 1) ~mils:125)) in
  let again = List.init 200 (fun c -> List.init 5 (fun f -> Fix_lifecycle.in_cohort ~cohort:c ~fix_id:(f + 1) ~mils:125)) in
  checkb "replayable" true (sample = again);
  checkb "hash non-negative" true (Fix_lifecycle.cohort_hash ~cohort:max_int ~fix_id:max_int >= 0)

let test_cohort_fraction () =
  let n = 10_000 in
  let count fix_id =
    let hits = ref 0 in
    for c = 0 to n - 1 do
      if Fix_lifecycle.in_cohort ~cohort:c ~fix_id ~mils:125 then incr hits
    done;
    !hits
  in
  List.iter
    (fun fix_id ->
      let hits = count fix_id in
      checkb
        (Printf.sprintf "fix %d cohort ~12.5%% of fleet (got %d/%d)" fix_id hits n)
        true
        (hits > 900 && hits < 1600))
    [ 1; 2; 3 ];
  (* Different fixes draw different cohorts — rendezvous hashing, not a
     single static canary pool that eats every experiment. *)
  let same = ref 0 in
  for c = 0 to n - 1 do
    if
      Fix_lifecycle.in_cohort ~cohort:c ~fix_id:1 ~mils:125
      = Fix_lifecycle.in_cohort ~cohort:c ~fix_id:2 ~mils:125
    then incr same
  done;
  checkb "cohorts differ across fixes" true (!same < n)

let test_cohort_extremes () =
  checkb "0 mils excludes everyone" false (Fix_lifecycle.in_cohort ~cohort:3 ~fix_id:1 ~mils:0);
  checkb "1000 mils includes everyone" true
    (List.for_all
       (fun c -> Fix_lifecycle.in_cohort ~cohort:c ~fix_id:1 ~mils:1000)
       (List.init 100 Fun.id))

(* ---- The sequential health test ---------------------------------------- *)

let config =
  {
    Fix_lifecycle.default_config with
    Fix_lifecycle.min_exposed = 4;
    min_control = 4;
    promote_after = 100;
    max_hold_ticks = 1000;
  }

let entry ?(exposed = 0) ?(exposed_failures = 0) ?(control = 0) ?(control_failures = 0)
    ?(misfires = 0) ?(ticks = 0) () =
  let e = Fix_lifecycle.create_entry ~fix_id:1 ~stage:Fix_lifecycle.Canary in
  for i = 1 to exposed do
    Fix_lifecycle.observe e ~exposed:true ~failed:(i <= exposed_failures)
      ~bucket:"crash:assert@0:1" ~hook_fires:0
  done;
  for i = 1 to control do
    Fix_lifecycle.observe e ~exposed:false ~failed:(i <= control_failures)
      ~bucket:"crash:assert@0:1" ~hook_fires:0
  done;
  for _ = 1 to misfires do
    Fix_lifecycle.observe e ~exposed:true ~failed:false ~bucket:"" ~hook_fires:1
  done;
  e.Fix_lifecycle.ticks_held <- ticks;
  e

let is_retract = function Fix_lifecycle.Retract _ -> true | _ -> false

let test_decide_holds_below_minimum () =
  (* Harmful-looking but under-sampled: no verdict yet. *)
  checkb "hold" true
    (Fix_lifecycle.decide config (entry ~exposed:3 ~exposed_failures:3 ~control:2 ())
    = Fix_lifecycle.Hold)

let test_decide_retracts_on_harm () =
  let e = entry ~exposed:8 ~exposed_failures:6 ~control:8 ~control_failures:1 () in
  checkb "harm retracts" true (is_retract (Fix_lifecycle.decide config e));
  (* Equal rates: no harm signal. *)
  let ok = entry ~exposed:8 ~exposed_failures:1 ~control:8 ~control_failures:1 () in
  checkb "matched rates hold" true (Fix_lifecycle.decide config ok = Fix_lifecycle.Hold)

let test_decide_retracts_on_novel_bucket () =
  let e = Fix_lifecycle.create_entry ~fix_id:1 ~stage:Fix_lifecycle.Canary in
  (* Both cohorts fail at the same rate — no failure-rate harm — but
     the exposed failures land in a bucket the control fleet has never
     produced: a new kind of misbehavior, introduced by the fix. *)
  for i = 1 to 8 do
    Fix_lifecycle.observe e ~exposed:false ~failed:(i <= 3) ~bucket:"crash:old" ~hook_fires:0;
    Fix_lifecycle.observe e ~exposed:true ~failed:(i <= 3) ~bucket:"hang" ~hook_fires:0
  done;
  (match Fix_lifecycle.decide config e with
  | Fix_lifecycle.Retract reason ->
    checkb "reason names the bucket" true
      (String.length reason >= 12 && String.sub reason 0 12 = "novel-bucket")
  | _ -> Alcotest.fail "expected a novel-bucket retraction");
  (* The same novelty without the sample floor is no verdict at all. *)
  let tiny = Fix_lifecycle.create_entry ~fix_id:2 ~stage:Fix_lifecycle.Canary in
  for _ = 1 to config.Fix_lifecycle.novel_bucket_k do
    Fix_lifecycle.observe tiny ~exposed:true ~failed:true ~bucket:"hang" ~hook_fires:0
  done;
  checkb "novelty waits for samples" true (Fix_lifecycle.decide config tiny = Fix_lifecycle.Hold)

let test_decide_misfire_needs_clean_control () =
  (* Misfires on a workload the control shows benign: retract. *)
  let noisy = entry ~exposed:8 ~control:8 ~misfires:8 () in
  checkb "misfire retracts" true (is_retract (Fix_lifecycle.decide config noisy));
  (* Same misfires, but the control also fails: the workload is not
     benign, so hook fires are the fix doing its job (a deadlock
     immunity deferring on genuinely dangerous schedules). *)
  let working = entry ~exposed:8 ~control:8 ~control_failures:2 ~misfires:8 () in
  checkb "misfire needs clean control" false
    (is_retract (Fix_lifecycle.decide config working))

let test_decide_promotes () =
  (* Early promotion on sample size. *)
  let big =
    entry ~exposed:(config.Fix_lifecycle.promote_after + 4) ~control:8 ()
  in
  checkb "promotes on volume" true (Fix_lifecycle.decide config big = Fix_lifecycle.Promote);
  (* Time-bounded promotion: a healthy canary cannot be held forever. *)
  let held = entry ~exposed:5 ~control:5 ~ticks:config.Fix_lifecycle.max_hold_ticks () in
  checkb "promotes on hold timeout" true
    (Fix_lifecycle.decide config held = Fix_lifecycle.Promote);
  (* Only canaries get verdicts. *)
  let fleet = entry ~exposed:200 ~control:8 () in
  fleet.Fix_lifecycle.stage <- Fix_lifecycle.Fleet;
  checkb "fleet entries hold" true (Fix_lifecycle.decide config fleet = Fix_lifecycle.Hold)

let test_entries_roundtrip () =
  let a = entry ~exposed:7 ~exposed_failures:2 ~control:9 ~control_failures:1 ~misfires:3 ~ticks:2 () in
  let b = Fix_lifecycle.create_entry ~fix_id:5 ~stage:Fix_lifecycle.Retracted in
  b.Fix_lifecycle.retired_epoch <- 4;
  let w = Codec.Writer.create () in
  Fix_lifecycle.write_entries w [ b; a ] (* unsorted on purpose *);
  let bytes = Codec.Writer.contents w in
  let entries = Fix_lifecycle.read_entries (Codec.Reader.of_string bytes) in
  checki "both back" 2 (List.length entries);
  let a' = List.find (fun e -> e.Fix_lifecycle.fix_id = 1) entries in
  let b' = List.find (fun e -> e.Fix_lifecycle.fix_id = 5) entries in
  checkb "stage kept" true (b'.Fix_lifecycle.stage = Fix_lifecycle.Retracted);
  checki "retired epoch kept" 4 b'.Fix_lifecycle.retired_epoch;
  checki "exposed runs kept" 10 a'.Fix_lifecycle.health.Fix_lifecycle.exposed_runs;
  checki "misfires kept" 3 a'.Fix_lifecycle.health.Fix_lifecycle.misfires;
  checki "ticks kept" 2 a'.Fix_lifecycle.ticks_held;
  (* Canonical bytes: writing the decoded entries again is identity. *)
  let w2 = Codec.Writer.create () in
  Fix_lifecycle.write_entries w2 entries;
  checks "canonical" bytes (Codec.Writer.contents w2);
  (* Stage tags are 1-3; tag 0 named a stage no fix ever entered. *)
  let w3 = Codec.Writer.create () in
  Fix_lifecycle.write_entry w3 b;
  let tagged = Bytes.of_string (Codec.Writer.contents w3) in
  (* fix id 5 is one varint byte, so the stage tag is byte 1 *)
  checki "stage tag position" 3 (Char.code (Bytes.get tagged 1));
  Bytes.set tagged 1 '\000';
  match Fix_lifecycle.read_entry (Codec.Reader.of_string (Bytes.to_string tagged)) with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "stage tag 0 must not decode"

(* ---- Knowledge: canary staging, retraction, quarantine ------------------ *)

let run_parser inputs =
  Interp.run ~program:Corpus.parser ~env:(Env.make ~seed:1 ~inputs ()) ~sched:Sched.Round_robin ()

let attributed_trace ~epoch ~active outcome_inputs =
  Trace.of_result ~program_digest:(Ir.digest Corpus.parser) ~pod:0 ~fix_epoch:epoch
    ~attribution:{ Trace.active_fixes = active; hook_fires = 0 }
    (run_parser outcome_inputs)

let crash_site () =
  match (run_parser Corpus.parser_trigger).Interp.outcome with
  | Outcome.Crash { site; _ } -> site
  | _ -> Alcotest.fail "trigger should crash"

let rollout = { config with Fix_lifecycle.min_exposed = 2; min_control = 2 }

let test_knowledge_stages_and_retracts () =
  let k = Knowledge.create Corpus.parser in
  Knowledge.set_rollout k rollout;
  let fix =
    Knowledge.add_fix k
      (Fixgen.Crash_suppression
         { bucket = "b"; site = crash_site (); crash_kind = Outcome.Assertion_failure })
  in
  checki "staged as canary" 1 (List.length (Knowledge.canary_ids k));
  checkb "canary still deploys" true
    (List.exists (fun (f : Fixgen.fix) -> f.Fixgen.id = fix.Fixgen.id) (Knowledge.live_fixes k));
  let epoch0 = Knowledge.epoch k in
  (* Canary cohort crashes where the control fleet is healthy. *)
  let benign = [| 0; 0; 0 |] in
  for _ = 1 to 3 do
    Knowledge.ingest_outcome_only k
      (attributed_trace ~epoch:epoch0 ~active:[ fix.Fixgen.id ] Corpus.parser_trigger);
    Knowledge.ingest_outcome_only k (attributed_trace ~epoch:epoch0 ~active:[] benign)
  done;
  let promoted, condemned = Knowledge.lifecycle_tick k in
  checki "nothing promoted" 0 (List.length promoted);
  (match condemned with
  | [ (id, _reason) ] -> checki "the canary condemned" fix.Fixgen.id id
  | _ -> Alcotest.fail "expected exactly one retraction");
  checki "retracted recorded" 1 (List.length (Knowledge.retracted_ids k));
  checki "no live fixes" 0 (List.length (Knowledge.live_fixes k));
  checki "id continuity" 1 (List.length (Knowledge.fixes k));
  checkb "retraction bumps the epoch" true (Knowledge.epoch k > epoch0);
  (* Evidence recorded under the retracted fix is quarantined, keeping
     knowledge bytes a pure function of the accepted-trace multiset. *)
  let ingested0 = Knowledge.traces_ingested k in
  Knowledge.ingest_outcome_only k
    (attributed_trace ~epoch:epoch0 ~active:[ fix.Fixgen.id ] Corpus.parser_trigger);
  checki "quarantined" 1 (Knowledge.quarantined_traces k);
  checki "not counted as evidence" ingested0 (Knowledge.traces_ingested k);
  (* Unattributed and clean-attributed traffic still flows. *)
  Knowledge.ingest_outcome_only k (attributed_trace ~epoch:(Knowledge.epoch k) ~active:[] benign);
  checki "clean traffic admitted" (ingested0 + 1) (Knowledge.traces_ingested k)

let test_knowledge_promotes_healthy_canary () =
  let k = Knowledge.create Corpus.parser in
  Knowledge.set_rollout k { rollout with Fix_lifecycle.max_hold_ticks = 2 };
  let fix =
    Knowledge.add_fix k
      (Fixgen.Crash_suppression
         { bucket = "b"; site = crash_site (); crash_kind = Outcome.Assertion_failure })
  in
  (* No harm evidence ever arrives; the hold bound promotes it. *)
  checki "held first tick" 0 (List.length (fst (Knowledge.lifecycle_tick k)));
  (match Knowledge.lifecycle_tick k with
  | [ id ], [] -> checki "promoted" fix.Fixgen.id id
  | _ -> Alcotest.fail "expected promotion on the second tick");
  checki "no canaries left" 0 (List.length (Knowledge.canary_ids k));
  checki "still live" 1 (List.length (Knowledge.live_fixes k))

let test_adopt_fixes_is_monotonic () =
  let k = Knowledge.create Corpus.parser in
  let fix =
    { Fixgen.id = 7; epoch = 5;
      kind = Fixgen.Crash_suppression
          { bucket = "b"; site = crash_site (); crash_kind = Outcome.Assertion_failure } }
  in
  Knowledge.adopt_fixes k ~fixes:[ fix ] ~epoch:5 ~retracted:[];
  checki "adopted" 5 (Knowledge.epoch k);
  (* A stale (reordered) adoption must not regress the fix set. *)
  Knowledge.adopt_fixes k ~fixes:[] ~epoch:3 ~retracted:[];
  checki "stale dropped" 5 (Knowledge.epoch k);
  checki "fix kept" 1 (List.length (Knowledge.fixes k));
  (* A duplicated adoption at the same epoch is equally inert. *)
  Knowledge.adopt_fixes k ~fixes:[] ~epoch:5 ~retracted:[ 7 ];
  checki "duplicate dropped" 0 (List.length (Knowledge.retracted_ids k));
  (* The genuine retraction advances. *)
  Knowledge.adopt_fixes k ~fixes:[ fix ] ~epoch:6 ~retracted:[ 7 ];
  checki "retraction adopted" 1 (List.length (Knowledge.retracted_ids k));
  checki "retracted not live" 0 (List.length (Knowledge.live_fixes k))

(* ---- Pod: adversarial transport cannot resurrect a retracted fix -------- *)

(* One guided run of the parser's trigger inputs: the deterministic
   way to make a pod exercise the planted assertion. *)
let guidance_frame () =
  Protocol.encode
    (Protocol.Guidance_update
       {
         program_digest = Ir.digest Corpus.parser;
         directives =
           [
             Guidance.Cover_direction
               {
                 site = { Ir.thread = 0; pc = 1 };
                 direction = true;
                 test =
                   {
                     Softborg_symexec.Testgen.inputs = Array.copy Corpus.parser_trigger;
                     fault_plan = Env.No_faults;
                   };
               };
           ];
         pressure = 0;
       })

let make_pod () =
  let sim = Sim.create () in
  let pod_end, hive_end = Transport.endpoint_pair ~sim ~rng:(Rng.create 7) () in
  let pod =
    Pod.create ~cohort:0 ~sim ~rng:(Rng.create 11) ~program:Corpus.parser ~endpoint:pod_end ()
  in
  (sim, pod, hive_end)

let test_pod_epoch_guard_survives_adversarial_replay () =
  let sim, pod, hive_end = make_pod () in
  let digest = Ir.digest Corpus.parser in
  let fix =
    { Fixgen.id = 9; epoch = 1;
      kind = Fixgen.Crash_suppression
          { bucket = "b"; site = crash_site (); crash_kind = Outcome.Assertion_failure } }
  in
  let deploy =
    Protocol.encode
      (Protocol.Fix_update
         { program_digest = digest; epoch = 1; fixes = [ fix ]; canary = []; canary_mils = 0;
           pressure = 0 })
  in
  (* A retraction is a fix-state update: a higher epoch whose fix set
     lacks the retracted fix. *)
  let retract =
    Protocol.encode
      (Protocol.Fix_update
         { program_digest = digest; epoch = 2; fixes = []; canary = []; canary_mils = 0;
           pressure = 0 })
  in
  Transport.send hive_end deploy;
  Sim.run sim;
  checki "deployed" 1 (Pod.metrics pod).Pod.fix_epoch;
  Transport.send hive_end retract;
  Sim.run sim;
  checki "retracted" 2 (Pod.metrics pod).Pod.fix_epoch;
  (* The adversary replays the original deployment — duplicated and
     reordered past the retraction.  The monotonic epoch guard must
     drop it: the retracted fix never comes back. *)
  Transport.send hive_end deploy;
  Transport.send hive_end deploy;
  Sim.run sim;
  checki "stale replay dropped" 2 (Pod.metrics pod).Pod.fix_epoch;
  (* Duplicate retraction is idempotent. *)
  Transport.send hive_end retract;
  Sim.run sim;
  checki "idempotent" 2 (Pod.metrics pod).Pod.fix_epoch;
  (* With the suppression genuinely gone, the trigger crashes again:
     behavioral proof the fix is not silently still installed. *)
  Transport.send hive_end (guidance_frame ());
  Sim.run sim;
  Pod.start pod;
  Sim.run ~until:10.0 sim;
  checki "no averted crash after retraction" 0 (Pod.metrics pod).Pod.averted_crashes;
  checkb "the trigger fails again" true ((Pod.metrics pod).Pod.guided_failures >= 1)

let test_pod_canary_membership () =
  (* A canary-staged fix only activates on pods whose cohort hash says
     so; everyone else keeps running without it (the control group). *)
  let digest = Ir.digest Corpus.parser in
  let fix =
    { Fixgen.id = 3; epoch = 1;
      kind = Fixgen.Crash_suppression
          { bucket = "b"; site = crash_site (); crash_kind = Outcome.Assertion_failure } }
  in
  let exposed_cohort, control_cohort =
    let rec find c =
      if c > 10_000 then Alcotest.fail "no cohort split found"
      else
        let m = Fix_lifecycle.in_cohort ~cohort:c ~fix_id:3 ~mils:500 in
        let m' = Fix_lifecycle.in_cohort ~cohort:(c + 1) ~fix_id:3 ~mils:500 in
        if m && not m' then (c, c + 1) else if m' && not m then (c + 1, c) else find (c + 1)
    in
    find 0
  in
  let run cohort =
    let sim = Sim.create () in
    let pod_end, hive_end = Transport.endpoint_pair ~sim ~rng:(Rng.create 7) () in
    let pod =
      Pod.create ~cohort ~sim ~rng:(Rng.create 11) ~program:Corpus.parser ~endpoint:pod_end ()
    in
    Transport.send hive_end
      (Protocol.encode
         (Protocol.Fix_update
            { program_digest = digest; epoch = 1; fixes = [ fix ]; canary = [ 3 ];
              canary_mils = 500; pressure = 0 }));
    Transport.send hive_end (guidance_frame ());
    Sim.run sim;
    Pod.start pod;
    Sim.run ~until:10.0 sim;
    Pod.metrics pod
  in
  let exposed = run exposed_cohort in
  let control = run control_cohort in
  checkb "cohort member suppresses the crash" true (exposed.Pod.averted_crashes >= 1);
  checkb "member marked exposed" true exposed.Pod.canary_exposed;
  checki "control runs without the fix" 0 control.Pod.averted_crashes;
  checkb "control hits the bug" true (control.Pod.guided_failures >= 1);
  checkb "control not exposed" false control.Pod.canary_exposed

(* ---- Corpus-derived wrong fixes ----------------------------------------- *)

let test_corpus_wrong_fix_ingredients () =
  let insts = List.map (fun f -> f.Corpus_bench.generate 1) Corpus_bench.families in
  (* Decoy sites never overlap the ground truth. *)
  List.iter
    (fun inst ->
      List.iter
        (fun site ->
          checkb
            (Printf.sprintf "%s decoy not a bug site" inst.Corpus_bench.name)
            false
            (List.mem site inst.Corpus_bench.bug_sites))
        (Corpus_bench.decoy_sites inst);
      match Corpus_bench.overbroad_lock_set inst with
      | None -> ()
      | Some locks ->
        checkb "over-broad set differs from ground truth" false
          (locks = inst.Corpus_bench.bug_locks))
    insts;
  (* At least one family yields each wrong-fix shape. *)
  let all = List.concat_map Fixgen.corpus_wrong_fixes insts in
  checkb "some decoy guard" true (List.mem_assoc "decoy-guard" all);
  checkb "some benign serializer" true (List.mem_assoc "benign-serializer" all)

(* ---- Platform: rollout off is invisible --------------------------------- *)

let test_rollout_off_prints_nothing () =
  let config = Scenario.single_program ~seed:42 Corpus.parser in
  let config = { config with Platform.duration = 120.0; sample_interval = 30.0 } in
  let report = Platform.run config in
  let f = report.Platform.final in
  checki "no canaries" 0 f.Metrics.canary_fixes;
  checki "no promotions" 0 f.Metrics.fix_promotions;
  checki "no retractions" 0 f.Metrics.fix_retractions;
  checki "no quarantines" 0 f.Metrics.quarantined_fix_traces;
  checki "no exposure" 0 f.Metrics.pods_exposed;
  let rendered = Format.asprintf "%a" Platform.pp_report report in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "no rollout line" false (contains "rollout:" rendered);
  checkb "no canary column" false (contains "canary=" rendered)

let test_rollout_on_stages_fixes () =
  let config =
    Scenario.with_rollout
      ~rollout:{ Fix_lifecycle.default_config with Fix_lifecycle.canary_mils = 250 }
      (Scenario.single_program ~seed:42 Corpus.parser)
  in
  let config = { config with Platform.duration = 600.0; sample_interval = 150.0 } in
  let report = Platform.run config in
  let f = report.Platform.final in
  (* The parser's assertion fix goes through the canary pipeline and,
     being genuinely good, comes out promoted. *)
  checkb "fixes deployed" true (f.Metrics.fixes_deployed > 0);
  checkb "promotion happened" true (f.Metrics.fix_promotions > 0);
  checki "nothing retracted" 0 f.Metrics.fix_retractions;
  checkb "some pod was exposed" true (f.Metrics.pods_exposed >= 1);
  checkb "exposure bounded by fleet" true (f.Metrics.pods_exposed <= config.Platform.n_pods)

let test_rollout_is_a_hive_setting () =
  (* Rollout set on the hive alone, with default pods: the pods start
     attributing once the hive's fix frames carry its canary fraction,
     so every canary's health test sees control runs, and a saboteur
     guard that flags every benign run is retracted on evidence rather
     than promoted when its hold times out. *)
  let base = Scenario.single_program ~seed:42 Corpus.file_copy in
  let rollout = { Fix_lifecycle.default_config with Fix_lifecycle.canary_mils = 250 } in
  let config =
    {
      base with
      Platform.duration = 300.0;
      sample_interval = 30.0;
      n_pods = 16;
      hive_config = { base.Platform.hive_config with Hive.rollout = rollout };
    }
    |> Scenario.inject_bad_fix ~at:60.0 ~variant:1
  in
  let report = Platform.run config in
  let k =
    match report.Platform.knowledge with [ k ] -> k | _ -> Alcotest.fail "one program"
  in
  let entries = Knowledge.lifecycle k in
  checkb "fixes were staged" true (entries <> []);
  List.iter
    (fun (e : Fix_lifecycle.entry) ->
      checkb
        (Printf.sprintf "fix %d saw control runs" e.Fix_lifecycle.fix_id)
        true
        (e.Fix_lifecycle.health.Fix_lifecycle.control_runs > 0))
    entries;
  let saboteur =
    List.find
      (fun (f : Fixgen.fix) ->
        match f.Fixgen.kind with
        | Fixgen.Input_guard { bucket; _ } -> bucket = "sabotage:guard"
        | _ -> false)
      (Knowledge.fixes k)
  in
  let entry =
    List.find (fun (e : Fix_lifecycle.entry) -> e.Fix_lifecycle.fix_id = saboteur.Fixgen.id) entries
  in
  checkb "saboteur retracted, not promoted" true
    (entry.Fix_lifecycle.stage = Fix_lifecycle.Retracted)

let test_saboteur_confined_and_retracted () =
  (* The staged-rollout acceptance bars (`bench rollout` records the
     same arms over 900 s).  A saboteur injected into the benign
     audit-ledger fleet is retracted fast, only its cohort is ever
     exposed, and the fleet ends about as healthy as without it; the
     naive instant arm never retracts and pays for it.  A good fix
     staged through the same canary reaches the fleet at most a couple
     of ticks after instant deployment, and every shard count retracts
     the same saboteur. *)
  let sample_interval = 15.0 and n_pods = 36 and inject_at = 60.0 in
  let staged_config =
    {
      Fix_lifecycle.default_config with
      Fix_lifecycle.canary_mils = 125;
      min_exposed = 4;
      min_control = 8;
      max_hold_ticks = 6;
    }
  in
  let arm ?(rollout = false) ?(bad_fix = false) ?(shards = 1) program =
    let c = Scenario.single_program ~seed:9 program in
    let c =
      {
        c with
        Platform.duration = 240.0;
        n_pods;
        sample_interval;
        pod_config = { c.Platform.pod_config with Pod.arrival_rate = 0.5; max_steps = 4_000 };
      }
    in
    let c = if rollout then Scenario.with_rollout ~rollout:staged_config c else c in
    let c = if bad_fix then Scenario.inject_bad_fix ~at:inject_at c else c in
    Platform.run (if shards > 1 then Scenario.with_shards shards c else c)
  in
  let first_time pred report =
    match List.find_opt pred report.Platform.snapshots with
    | Some s -> s.Metrics.time
    | None -> Alcotest.fail "the awaited event never happened"
  in
  let rate report = Metrics.failure_rate report.Platform.final in
  let retractions report = report.Platform.final.Metrics.fix_retractions in
  let exposed report = report.Platform.final.Metrics.pods_exposed in
  (* Injected fixes mint ids from 1_000_000 up; every shard republishes
     the coordinator's ledger, so dedupe. *)
  let injected_retracted report =
    List.concat_map
      (fun k -> List.filter (fun id -> id >= 1_000_000) (Knowledge.retracted_ids k))
      report.Platform.knowledge
    |> List.sort_uniq Int.compare
  in
  let tick = (Hive.default_config Hive.Full).Hive.analysis_interval in
  let baseline = arm Corpus.audit_ledger in
  let naive = arm ~bad_fix:true Corpus.audit_ledger in
  let staged = arm ~rollout:true ~bad_fix:true Corpus.audit_ledger in
  checki "naive arm never retracts" 0 (retractions naive);
  let bad_id =
    match injected_retracted staged with
    | [ id ] -> id
    | ids -> Alcotest.failf "expected one retracted saboteur, got %d" (List.length ids)
  in
  let cohort =
    List.length
      (List.filter
         (fun c ->
           Fix_lifecycle.in_cohort ~cohort:c ~fix_id:bad_id
             ~mils:staged_config.Fix_lifecycle.canary_mils)
         (List.init n_pods Fun.id))
  in
  let ttr = first_time (fun s -> s.Metrics.fix_retractions > 0) staged -. inject_at in
  checkb (Printf.sprintf "retracted in %.0fs, within 4 ticks + a sample" ttr) true
    (ttr <= (4.0 *. tick) +. sample_interval);
  checkb "cohort under 30% of the fleet" true (10 * cohort < 3 * n_pods);
  checkb "exposure confined to the cohort" true (exposed staged <= cohort + 1);
  (* A canary pod hangs for the sampling window, hence the small
     absolute headroom over the baseline. *)
  checkb
    (Printf.sprintf "staged rate %.4f within baseline %.4f x1.1 + 0.02" (rate staged)
       (rate baseline))
    true
    (rate staged <= (rate baseline *. 1.1) +. 0.02);
  checkb "staging beats instant deployment" true (rate naive > rate staged);
  let instant = arm Corpus.parser in
  let staged_good = arm ~rollout:true Corpus.parser in
  let lag =
    first_time (fun s -> s.Metrics.fix_promotions > 0) staged_good
    -. first_time (fun s -> s.Metrics.fixes_deployed > 0) instant
  in
  checkb (Printf.sprintf "promotion lag %.0fs within 2 ticks + a sample" lag) true
    (lag <= (2.0 *. tick) +. sample_interval);
  checki "good fix never retracted" 0 (retractions staged_good);
  (* The staged run is the 1-shard row: its config is identical. *)
  List.iter
    (fun (shards, r) ->
      Alcotest.(check (list int))
        (Printf.sprintf "%d shards retract the same saboteur" shards)
        [ bad_id ] (injected_retracted r);
      checkb (Printf.sprintf "%d shards confine exposure" shards) true (exposed r <= cohort + 1))
    ((1, staged)
    :: List.map
         (fun shards -> (shards, arm ~rollout:true ~bad_fix:true ~shards Corpus.audit_ledger))
         [ 2; 4 ])

let () =
  Alcotest.run "softborg_rollout"
    [
      ( "cohort",
        [
          Alcotest.test_case "deterministic" `Quick test_cohort_deterministic;
          Alcotest.test_case "fraction" `Quick test_cohort_fraction;
          Alcotest.test_case "extremes" `Quick test_cohort_extremes;
        ] );
      ( "health test",
        [
          Alcotest.test_case "holds below minimum" `Quick test_decide_holds_below_minimum;
          Alcotest.test_case "harm retracts" `Quick test_decide_retracts_on_harm;
          Alcotest.test_case "novel bucket retracts" `Quick test_decide_retracts_on_novel_bucket;
          Alcotest.test_case "misfire needs clean control" `Quick
            test_decide_misfire_needs_clean_control;
          Alcotest.test_case "promotes" `Quick test_decide_promotes;
          Alcotest.test_case "codec round trip" `Quick test_entries_roundtrip;
        ] );
      ( "knowledge",
        [
          Alcotest.test_case "stage, retract, quarantine" `Quick test_knowledge_stages_and_retracts;
          Alcotest.test_case "healthy canary promotes" `Quick test_knowledge_promotes_healthy_canary;
          Alcotest.test_case "adoption monotonic" `Quick test_adopt_fixes_is_monotonic;
        ] );
      ( "pod",
        [
          Alcotest.test_case "adversarial replay" `Quick
            test_pod_epoch_guard_survives_adversarial_replay;
          Alcotest.test_case "canary membership" `Quick test_pod_canary_membership;
        ] );
      ( "corpus",
        [ Alcotest.test_case "wrong-fix ingredients" `Quick test_corpus_wrong_fix_ingredients ] );
      ( "platform",
        [
          Alcotest.test_case "off is invisible" `Quick test_rollout_off_prints_nothing;
          Alcotest.test_case "on stages fixes" `Slow test_rollout_on_stages_fixes;
          Alcotest.test_case "rollout is a hive setting" `Quick test_rollout_is_a_hive_setting;
          Alcotest.test_case "saboteur confined and retracted" `Slow
            test_saboteur_confined_and_retracted;
        ] );
    ]
