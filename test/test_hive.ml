(* Tests for the hive: statistical isolation, fix synthesis, knowledge
   ingestion, the prover, guidance planning, allocation, the message
   protocol, and the hive service loop. *)

module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Outcome = Softborg_exec.Outcome
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Sampling = Softborg_trace.Sampling
module Exec_tree = Softborg_tree.Exec_tree
module Path_cond = Softborg_solver.Path_cond
module Isolate = Softborg_hive.Isolate
module Fixgen = Softborg_hive.Fixgen
module Knowledge = Softborg_hive.Knowledge
module Prover = Softborg_hive.Prover
module Guidance = Softborg_hive.Guidance
module Allocate = Softborg_hive.Allocate
module Protocol = Softborg_hive.Protocol
module Hive = Softborg_hive.Hive
module Sim = Softborg_net.Sim
module Transport = Softborg_net.Transport
module Codec = Softborg_util.Codec
module Rng = Softborg_util.Rng
module Gap_memo = Softborg_hive.Gap_memo
module Verdict_cache = Softborg_solver.Verdict_cache

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let run_once ?(fault_plan = Env.No_faults) ?(seed = 7) program inputs =
  let env = Env.make ~fault_plan ~seed ~inputs () in
  Interp.run ~program ~env ~sched:Sched.Round_robin ()

let trace_of ?(pod = 1) ?(fix_epoch = 0) program r =
  Trace.of_result ~program_digest:(Ir.digest program) ~pod ~fix_epoch r

let parser_true_predicate () =
  let r = run_once Corpus.parser Corpus.parser_trigger in
  match List.rev r.Interp.full_path with
  | (site, direction) :: _ -> { Sampling.site; direction }
  | [] -> Alcotest.fail "no decisions"

(* ---- Isolate -------------------------------------------------------- *)

let feed_isolate isolate ~crashing ~passing =
  for i = 1 to crashing do
    let r = run_once ~seed:i Corpus.parser Corpus.parser_trigger in
    Isolate.record_path isolate ~full_path:r.Interp.full_path ~outcome:r.Interp.outcome
  done;
  let rng = Rng.create 5 in
  for i = 1 to passing do
    let inputs = Array.init 3 (fun _ -> Rng.int_in rng 0 100) in
    let r = run_once ~seed:i Corpus.parser inputs in
    Isolate.record_path isolate ~full_path:r.Interp.full_path ~outcome:r.Interp.outcome
  done

let test_isolate_localizes_parser_bug () =
  let isolate = Isolate.create () in
  feed_isolate isolate ~crashing:10 ~passing:200;
  (* Classic CBI behavior: the top-ranked predicate lies on the crash
     path (the deepest guard or one of its ancestors, whichever has
     the highest Increase), and the exact guard ranks near the top. *)
  let crash_run = run_once Corpus.parser Corpus.parser_trigger in
  let crash_predicates =
    List.map (fun (site, direction) -> { Sampling.site; direction }) crash_run.Interp.full_path
  in
  (match Isolate.top_predicate isolate with
  | Some ranked ->
    checkb "top predicate lies on the crash path" true
      (List.exists (Sampling.predicate_equal ranked.Isolate.predicate) crash_predicates)
  | None -> Alcotest.fail "no top predicate");
  match Isolate.localization_rank isolate ~target:(parser_true_predicate ()) with
  | Some rank -> checkb "exact guard near the top" true (rank <= 5)
  | None -> Alcotest.fail "true predicate never observed"

let test_isolate_top_predicate_positive () =
  let isolate = Isolate.create () in
  feed_isolate isolate ~crashing:5 ~passing:100;
  match Isolate.top_predicate isolate with
  | Some ranked -> checkb "positive score" true (ranked.Isolate.score > 0.0)
  | None -> Alcotest.fail "no top predicate"

let test_isolate_counts () =
  let isolate = Isolate.create () in
  feed_isolate isolate ~crashing:3 ~passing:7;
  checki "runs" 10 (Isolate.runs isolate);
  checki "failing" 3 (Isolate.failing_runs isolate)

let test_isolate_no_failures_no_positive_score () =
  let isolate = Isolate.create () in
  feed_isolate isolate ~crashing:0 ~passing:50;
  checkb "no positively-scored predicate" true (Isolate.top_predicate isolate = None)

let test_isolate_from_sampled_reports () =
  let isolate = Isolate.create () in
  let rng = Rng.create 3 in
  for i = 1 to 30 do
    let r = run_once ~seed:i Corpus.parser Corpus.parser_trigger in
    Isolate.record isolate
      (Sampling.sample rng ~rate:2 ~full_path:r.Interp.full_path ~outcome:r.Interp.outcome)
  done;
  for i = 1 to 300 do
    let inputs = Array.init 3 (fun _ -> Rng.int_in rng 0 100) in
    let r = run_once ~seed:i Corpus.parser inputs in
    Isolate.record isolate
      (Sampling.sample rng ~rate:2 ~full_path:r.Interp.full_path ~outcome:r.Interp.outcome)
  done;
  match Isolate.localization_rank isolate ~target:(parser_true_predicate ()) with
  | Some rank -> checkb "localized from sampled data" true (rank <= 3)
  | None -> Alcotest.fail "lost under sampling"

(* ---- Fixgen ----------------------------------------------------------- *)

let parser_crash_evidence () =
  let r = run_once Corpus.parser Corpus.parser_trigger in
  match r.Interp.outcome with
  | Outcome.Crash { site; kind; _ } ->
    {
      Fixgen.site;
      crash_kind = kind;
      bucket = Outcome.bucket_key r.Interp.outcome;
      count = 3;
    }
  | o -> Alcotest.failf "expected crash, got %a" Outcome.pp o

let test_fixgen_derives_input_guard () =
  let fixes =
    Fixgen.propose ~program:Corpus.parser ~deadlock_patterns:[]
      ~crashes:[ parser_crash_evidence () ] ~existing:[] ~next_epoch:1 ()
  in
  let guard =
    List.find_map
      (fun f ->
        match f.Fixgen.kind with Fixgen.Input_guard { condition; _ } -> Some condition | _ -> None)
      fixes
  in
  (match guard with
  | Some condition ->
    checkb "guard matches the trigger" true
      (Path_cond.satisfied_by condition Corpus.parser_trigger);
    checkb "guard rejects benign input" false (Path_cond.satisfied_by condition [| 1; 2; 3 |])
  | None -> Alcotest.fail "no input guard derived");
  checkb "repair-lab candidate also proposed" true
    (List.exists
       (fun f -> match f.Fixgen.kind with Fixgen.Patch_candidate _ -> true | _ -> false)
       fixes)

let test_fixgen_deadlock_immunity () =
  let fixes =
    Fixgen.propose ~program:Corpus.worker_pool ~deadlock_patterns:[ [ 1; 0 ] ] ~crashes:[]
      ~existing:[] ~next_epoch:1 ()
  in
  match fixes with
  | [ { Fixgen.kind = Fixgen.Deadlock_immunity [ 0; 1 ]; _ } ] -> ()
  | _ -> Alcotest.failf "expected one normalized immunity fix, got %d" (List.length fixes)

let test_fixgen_dedupes_existing () =
  let first =
    Fixgen.propose ~program:Corpus.parser ~deadlock_patterns:[ [ 0; 1 ] ]
      ~crashes:[ parser_crash_evidence () ] ~existing:[] ~next_epoch:1 ()
  in
  let second =
    Fixgen.propose ~program:Corpus.parser ~deadlock_patterns:[ [ 0; 1 ] ]
      ~crashes:[ parser_crash_evidence () ] ~existing:first ~next_epoch:2 ()
  in
  checki "nothing new" 0 (List.length second)

let test_fixgen_multithreaded_falls_back_to_suppression () =
  let r =
    Interp.run ~program:Corpus.racy_counter
      ~env:(Env.make ~seed:1 ~inputs:[||] ())
      ~sched:(Sched.Random_sched (Rng.create 1))
      ()
  in
  let rec find seed =
    if seed > 100 then Alcotest.fail "race never manifested"
    else
      let r =
        Interp.run ~program:Corpus.racy_counter
          ~env:(Env.make ~seed:1 ~inputs:[||] ())
          ~sched:(Sched.Random_sched (Rng.create seed))
          ()
      in
      match r.Interp.outcome with Outcome.Crash _ -> r | _ -> find (seed + 1)
  in
  let r = match r.Interp.outcome with Outcome.Crash _ -> r | _ -> find 0 in
  let evidence =
    match r.Interp.outcome with
    | Outcome.Crash { site; kind; _ } ->
      { Fixgen.site; crash_kind = kind; bucket = Outcome.bucket_key r.Interp.outcome; count = 1 }
    | _ -> assert false
  in
  let fixes =
    Fixgen.propose ~program:Corpus.racy_counter ~deadlock_patterns:[] ~crashes:[ evidence ]
      ~existing:[] ~next_epoch:1 ()
  in
  checkb "suppression for schedule-dependent crash" true
    (List.exists
       (fun f -> match f.Fixgen.kind with Fixgen.Crash_suppression _ -> true | _ -> false)
       fixes)

let test_fix_wire_roundtrip () =
  let fixes =
    Fixgen.propose ~program:Corpus.parser ~deadlock_patterns:[ [ 0; 1 ] ]
      ~crashes:[ parser_crash_evidence () ] ~existing:[] ~next_epoch:3 ()
  in
  List.iter
    (fun fix ->
      let w = Codec.Writer.create () in
      Fixgen.write_fix w fix;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      let back = Fixgen.read_fix r in
      checkb (Fixgen.kind_name fix.Fixgen.kind ^ " roundtrips") true (back = fix))
    fixes

let test_runtime_hooks_epoch_filtering () =
  let site = { Ir.thread = 0; pc = 6 } in
  let fixes =
    [
      {
        Fixgen.id = 1;
        epoch = 1;
        kind =
          Fixgen.Crash_suppression
            { bucket = "b"; site; crash_kind = Outcome.Assertion_failure };
      };
    ]
  in
  let hooks_e0 = Fixgen.runtime_hooks ~epoch:0 fixes in
  let hooks_e1 = Fixgen.runtime_hooks ~epoch:1 fixes in
  checkb "not in force at epoch 0" true
    (hooks_e0.Interp.on_crash ~site ~kind:Outcome.Assertion_failure = `Propagate);
  checkb "in force at epoch 1" true
    (hooks_e1.Interp.on_crash ~site ~kind:Outcome.Assertion_failure = `Suppress)

(* ---- Knowledge --------------------------------------------------------- *)

let ingest_n k program ~inputs_for n =
  for i = 1 to n do
    let r = run_once ~seed:i program (inputs_for i) in
    ignore (Knowledge.ingest_trace k (trace_of program r))
  done

let test_knowledge_ingest_builds_tree () =
  let k = Knowledge.create Corpus.fig2_write in
  let rng = Rng.create 2 in
  ingest_n k Corpus.fig2_write ~inputs_for:(fun _ -> [| Rng.int_in rng (-64) 255 |]) 200;
  checki "traces counted" 200 (Knowledge.traces_ingested k);
  checki "no replay errors" 0 (Knowledge.replay_errors k);
  checki "three paths" 3 (Exec_tree.n_distinct_paths (Knowledge.tree k))

let test_knowledge_buckets_crashes () =
  let k = Knowledge.create Corpus.parser in
  ingest_n k Corpus.parser ~inputs_for:(fun _ -> Array.copy Corpus.parser_trigger) 5;
  checki "failures" 5 (Knowledge.failures_observed k);
  match Knowledge.crash_evidence k with
  | [ ev ] -> checki "bucket count" 5 ev.Fixgen.count
  | evs -> Alcotest.failf "expected one bucket, got %d" (List.length evs)

let test_knowledge_analyze_bumps_epoch () =
  let k = Knowledge.create Corpus.parser in
  ingest_n k Corpus.parser ~inputs_for:(fun _ -> Array.copy Corpus.parser_trigger) 2;
  checki "epoch 0 before" 0 (Knowledge.epoch k);
  let fixes = Knowledge.analyze k in
  checkb "fixes proposed" true (fixes <> []);
  checki "epoch bumped" 1 (Knowledge.epoch k);
  (* Re-analysis with no new evidence is a no-op. *)
  checki "no new fixes" 0 (List.length (Knowledge.analyze k));
  checki "epoch stable" 1 (Knowledge.epoch k)

let test_knowledge_replay_respects_fix_epoch () =
  (* A trace recorded under a suppression fix must be replayed with
     that fix in force, or reconstruction diverges. *)
  let k = Knowledge.create Corpus.parser in
  ingest_n k Corpus.parser ~inputs_for:(fun _ -> Array.copy Corpus.parser_trigger) 1;
  ignore (Knowledge.analyze k);
  let hooks = Knowledge.current_hooks k in
  let env = Env.make ~seed:1 ~inputs:Corpus.parser_trigger () in
  let r = Interp.run ~hooks ~program:Corpus.parser ~env ~sched:Sched.Round_robin () in
  checkb "fix suppresses the crash" true (r.Interp.outcome = Outcome.Success);
  let trace = trace_of ~fix_epoch:(Knowledge.epoch k) Corpus.parser r in
  (match Knowledge.ingest_trace k trace with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "replay failed: %s" msg);
  checki "still no replay errors" 0 (Knowledge.replay_errors k)

let test_knowledge_deadlock_buckets () =
  let k = Knowledge.create Corpus.worker_pool in
  let rec ingest_deadlock seed =
    if seed > 300 then Alcotest.fail "no deadlock found"
    else
      let env = Env.make ~seed:1 ~inputs:[| 0 |] () in
      let r =
        Interp.run ~program:Corpus.worker_pool ~env
          ~sched:(Sched.Random_sched (Rng.create seed))
          ()
      in
      match r.Interp.outcome with
      | Outcome.Deadlock _ -> ignore (Knowledge.ingest_trace k (trace_of Corpus.worker_pool r))
      | _ -> ingest_deadlock (seed + 1)
  in
  ingest_deadlock 0;
  match Knowledge.deadlock_bucket_info k with
  | [ (_, locks, 1) ] -> Alcotest.(check (list int)) "lock set" [ 0; 1 ] locks
  | info -> Alcotest.failf "expected one deadlock bucket, got %d" (List.length info)

(* ---- Prover -------------------------------------------------------------- *)

let test_prover_proves_fig2 () =
  let k = Knowledge.create Corpus.fig2_write in
  let rng = Rng.create 4 in
  ingest_n k Corpus.fig2_write ~inputs_for:(fun _ -> [| Rng.int_in rng (-64) 255 |]) 100;
  let closed = Prover.close_gaps Corpus.fig2_write (Knowledge.tree k) in
  checkb "infeasible leaf closed" true (closed >= 1);
  checkb "tree complete after closure" true (Exec_tree.is_complete (Knowledge.tree k));
  match
    Prover.attempt_assert_safety ~program:Corpus.fig2_write ~tree:(Knowledge.tree k)
      ~crash_observations:0 ~epoch:0 ()
  with
  | Some { Prover.strength = Prover.Proved _; _ } -> ()
  | Some { Prover.strength = Prover.Tested _; _ } -> Alcotest.fail "expected Proved, got Tested"
  | None -> Alcotest.fail "no proof"

let test_prover_refuses_buggy_program () =
  match
    Prover.attempt_assert_safety ~program:Corpus.parser ~tree:(Exec_tree.create ())
      ~crash_observations:3 ~epoch:0 ()
  with
  | None -> ()
  | Some _ -> Alcotest.fail "proved a program with observed crashes"

let test_prover_symbolic_counterexample_blocks_proof () =
  (* Even with zero *observed* crashes, the symbolic crash path in
     parser must block a Proved verdict (a Tested one is fine). *)
  let k = Knowledge.create Corpus.parser in
  ingest_n k Corpus.parser ~inputs_for:(fun i -> [| i; i + 1; i + 2 |]) 20;
  match
    Prover.attempt_assert_safety ~program:Corpus.parser ~tree:(Knowledge.tree k)
      ~crash_observations:0 ~epoch:0 ()
  with
  | Some { Prover.strength = Prover.Proved _; _ } -> Alcotest.fail "proved a buggy program"
  | Some { Prover.strength = Prover.Tested _; _ } -> ()
  | None -> Alcotest.fail "expected at least Tested"

let test_prover_deadlock_freedom_lockless () =
  match
    Prover.attempt_deadlock_freedom ~program:Corpus.parser ~tree:(Exec_tree.create ())
      ~deadlock_observations:0 ~lock_cycles:[]
      ~make_env:(fun () -> Env.make ~seed:1 ~inputs:[| 0; 0; 0 |] ())
      ~hooks:Interp.no_hooks ~epoch:0 ()
  with
  | Some { Prover.strength = Prover.Proved _; _ } -> ()
  | _ -> Alcotest.fail "lockless program should be trivially deadlock-free"

let test_prover_deadlock_freedom_blocked_by_cycle () =
  match
    Prover.attempt_deadlock_freedom ~program:Corpus.worker_pool ~tree:(Exec_tree.create ())
      ~deadlock_observations:0
      ~lock_cycles:[ [ 0; 1 ] ]
      ~make_env:(fun () -> Env.make ~seed:1 ~inputs:[| 0 |] ())
      ~hooks:Interp.no_hooks ~epoch:0 ()
  with
  | None -> ()
  | Some _ -> Alcotest.fail "proved freedom despite a known cycle"

let test_prover_deadlock_freedom_explores_schedules () =
  (* Unprotected worker-pool deadlocks under exploration: no proof. *)
  (match
     Prover.attempt_deadlock_freedom ~program:Corpus.worker_pool ~tree:(Exec_tree.create ())
       ~deadlock_observations:0 ~lock_cycles:[]
       ~make_env:(fun () -> Env.make ~seed:1 ~inputs:[| 0 |] ())
       ~hooks:Interp.no_hooks ~epoch:0 ()
   with
  | None -> ()
  | Some _ -> Alcotest.fail "exploration should have found the deadlock");
  (* Under immunity hooks, exploration stays clean: Tested evidence. *)
  let immunizer = Softborg_conc.Immunity.create ~patterns:[ [ 0; 1 ] ] in
  match
    Prover.attempt_deadlock_freedom ~program:Corpus.worker_pool ~tree:(Exec_tree.create ())
      ~deadlock_observations:0 ~lock_cycles:[]
      ~make_env:(fun () -> Env.make ~seed:1 ~inputs:[| 0 |] ())
      ~hooks:(Softborg_conc.Immunity.hooks immunizer) ~epoch:1 ()
  with
  | Some { Prover.strength = Prover.Tested { schedules; _ }; _ } ->
    checkb "multiple schedules explored" true (schedules > 1)
  | _ -> Alcotest.fail "expected Tested evidence under immunity"

let test_proof_invalidation () =
  let k = Knowledge.create Corpus.fig2_write in
  (match
     Prover.attempt_assert_safety ~program:Corpus.fig2_write ~tree:(Knowledge.tree k)
       ~crash_observations:0 ~epoch:(Knowledge.epoch k) ()
   with
  | Some proof -> Knowledge.record_proof k proof
  | None -> Alcotest.fail "no proof");
  checki "one valid proof" 1 (List.length (Knowledge.valid_proofs k));
  ignore
    (Knowledge.add_fix k
       (Fixgen.Crash_suppression
          {
            bucket = "x";
            site = { Ir.thread = 0; pc = 0 };
            crash_kind = Outcome.Assertion_failure;
          }));
  checki "proof invalidated by fix deployment" 0 (List.length (Knowledge.valid_proofs k))

(* ---- Deferred end-of-path solves ------------------------------------------ *)

module Sym_exec = Softborg_symexec.Sym_exec
module Consistency = Softborg_symexec.Consistency
module Generator = Softborg_prog.Generator
module Scenario = Softborg.Scenario

let hive_symexec_config = (Hive.default_config Hive.Full).Hive.symexec_config

let analysis_population () =
  let _, population =
    Scenario.buggy_population ~seed:42 ~n_programs:8
      ~bugs:
        [ Generator.Rare_assert; Generator.Unchecked_syscall; Generator.Div_by_zero;
          Generator.Deadlock_pair ]
      ()
  in
  List.map fst population

(* The prover reads a tree only for its execution and path counts. *)
let one_execution_tree () =
  let tree = Exec_tree.create () in
  ignore (Exec_tree.add_path tree [] Outcome.Success);
  tree

let input_only ~n_inputs condition =
  condition <> [] && List.for_all (fun i -> i < n_inputs) (Path_cond.inputs_used condition)

let matches_evidence (evidence : Fixgen.crash_evidence) (p : Sym_exec.path) =
  match p.Sym_exec.outcome with
  | Sym_exec.Crashed { site; kind; _ } ->
    Ir.site_equal site evidence.Fixgen.site && kind = evidence.Fixgen.crash_kind
  | Sym_exec.Completed | Sym_exec.Path_deadlock | Sym_exec.Step_limit -> false

(* The folds [Fixgen] and [Prover] made over an exploration that
   solved every path, kept as the reference: the guard is the first
   feasible input-only crash path at the evidence's site and kind, and
   a proof needs an exhaustive, fully solved exploration with no
   feasible crash whose other paths complete, deadlock or are
   infeasible. *)
let reference_guard ~n_inputs (report : Sym_exec.report) (evidence : Fixgen.crash_evidence) =
  List.find_map
    (fun (p : Sym_exec.path) ->
      match (p.Sym_exec.outcome, p.Sym_exec.solver_verdict) with
      | Sym_exec.Crashed { site; kind; _ }, `Sat
        when Ir.site_equal site evidence.Fixgen.site && kind = evidence.Fixgen.crash_kind ->
        if input_only ~n_inputs p.Sym_exec.condition then Some p.Sym_exec.condition else None
      | _ -> None)
    report.Sym_exec.paths

let reference_proved (report : Sym_exec.report) =
  let fully_solved =
    List.for_all
      (fun (p : Sym_exec.path) ->
        match p.Sym_exec.solver_verdict with `Sat | `Unsat -> true | `Timeout | `Unsolved -> false)
      report.Sym_exec.paths
  in
  let feasible_crash =
    List.exists
      (fun (p : Sym_exec.path) ->
        match (p.Sym_exec.outcome, p.Sym_exec.solver_verdict) with
        | Sym_exec.Crashed _, `Sat -> true
        | _ -> false)
      report.Sym_exec.paths
  in
  let clean_paths_terminate =
    List.for_all
      (fun (p : Sym_exec.path) ->
        match (p.Sym_exec.outcome, p.Sym_exec.solver_verdict) with
        | _, `Unsat -> true
        | (Sym_exec.Completed | Sym_exec.Path_deadlock), _ -> true
        | Sym_exec.Crashed _, _ -> false
        | Sym_exec.Step_limit, _ -> false)
      report.Sym_exec.paths
  in
  (not report.Sym_exec.truncated) && fully_solved && (not feasible_crash) && clean_paths_terminate

(* The same report with every timed-out path read as infeasible. *)
let without_timeouts (report : Sym_exec.report) =
  {
    report with
    Sym_exec.paths =
      List.map
        (fun (p : Sym_exec.path) ->
          if p.Sym_exec.solver_verdict = `Timeout then { p with Sym_exec.solver_verdict = `Unsat }
          else p)
        report.Sym_exec.paths;
  }

(* One crash evidence per (site, kind) the full exploration holds. *)
let crash_evidence_of (report : Sym_exec.report) =
  List.filter_map
    (fun (p : Sym_exec.path) ->
      match p.Sym_exec.outcome with
      | Sym_exec.Crashed { site; kind; _ } -> Some (site, kind)
      | Sym_exec.Completed | Sym_exec.Path_deadlock | Sym_exec.Step_limit -> None)
    report.Sym_exec.paths
  |> List.sort_uniq compare
  |> List.map (fun ((site : Ir.site), crash_kind) ->
         {
           Fixgen.site;
           crash_kind;
           bucket =
             Printf.sprintf "%d:%d:%s" site.Ir.thread site.Ir.pc
               (Outcome.crash_kind_name crash_kind);
           count = 1;
         })

let guard_of_fixes fixes =
  List.find_map
    (fun (fix : Fixgen.fix) ->
      match fix.Fixgen.kind with
      | Fixgen.Input_guard { condition; _ } -> Some (Some condition)
      | Fixgen.Crash_suppression _ -> Some None
      | Fixgen.Deadlock_immunity _ | Fixgen.Patch_candidate _ -> None)
    fixes

(* Programs with the symexec config each is explored at: the
   [analysis] population and the corpus at the hive's config, the
   corpus again at a 10-step solver budget (every solve that is not
   decided at once times out, so timeouts alone stand between some
   programs and a proof), and 64 generated programs at a tenth of the
   hive's budget, where more solves time out and the full-solve
   reference stays cheap.  The explorations skip multi-threaded
   programs, so only single-threaded ones are kept. *)
let deferred_solve_inputs () =
  let generated =
    List.init 64 (fun seed ->
        let bug =
          List.nth
            [ Generator.Rare_assert; Generator.Unchecked_syscall; Generator.Div_by_zero;
              Generator.Hang_loop ]
            (seed mod 4)
        in
        fst
          (Generator.generate (Rng.create (1000 + seed))
             { Generator.default_params with Generator.bugs = [ bug ] }))
  in
  let with_budget solver_budget = { hive_symexec_config with Sym_exec.solver_budget } in
  let corpus = List.map snd Corpus.all in
  List.filter
    (fun (_, (program : Ir.t)) -> Array.length program.Ir.threads = 1)
    (List.map (fun p -> (hive_symexec_config, p)) (analysis_population () @ corpus)
    @ List.map (fun p -> (with_budget 10, p)) corpus
    @ List.map (fun p -> (with_budget 2_000, p)) generated)

(* [Fixgen.propose] and [Prover.attempt_assert_safety] explore unsolved
   and solve only the paths their answer reads; they must answer
   exactly as the reference folds over a fully solved exploration do.
   Each program shares one verdict cache across its calls, as a
   knowledge does. *)
let test_deferred_solves_match_full_folds () =
  let inputs = deferred_solve_inputs () in
  let generated =
    List.length
      (List.filter (fun (config, _) -> config.Sym_exec.solver_budget = 2_000) inputs)
  in
  checkb (Printf.sprintf "%d single-threaded generated programs" generated) true (generated >= 50);
  let truncated = ref 0 and proved = ref 0 and timed_out = ref 0 and refuted = ref 0 in
  let evidences = ref 0 and guards = ref 0 in
  let rejected_first = ref 0 and rejected_solved = ref 0 in
  List.iter
    (fun (config, (program : Ir.t)) ->
      let full = Sym_exec.explore ~config program Consistency.Strict in
      let n_inputs = program.Ir.n_inputs in
      let cache = Verdict_cache.create () in
      List.iter
        (fun evidence ->
          incr evidences;
          let expected = reference_guard ~n_inputs full evidence in
          let fixes =
            Fixgen.propose ~symexec_config:config ~cache ~program ~deadlock_patterns:[]
              ~crashes:[ evidence ] ~existing:[] ~next_epoch:1 ()
          in
          checkb
            (Printf.sprintf "%s guard for %s" program.Ir.name evidence.Fixgen.bucket)
            true
            (guard_of_fixes fixes = Some expected);
          (* Did a matching crash path get rejected (Unsat, Timeout or
             not input-only) before the accepted one? *)
          match expected with
          | None -> ()
          | Some condition ->
            incr guards;
            let rec rejected_before = function
              | [] -> None
              | (p : Sym_exec.path) :: rest ->
                if p.Sym_exec.condition == condition then None
                else if matches_evidence evidence p then Some p
                else rejected_before rest
            in
            match rejected_before full.Sym_exec.paths with
            | None -> ()
            | Some p ->
              incr rejected_first;
              if input_only ~n_inputs p.Sym_exec.condition then incr rejected_solved)
        (crash_evidence_of full);
      let expected_proof = reference_proved full in
      if full.Sym_exec.truncated then incr truncated
      else if expected_proof then incr proved
      else if reference_proved (without_timeouts full) then incr timed_out
      else incr refuted;
      let strength =
        Option.map
          (fun (proof : Prover.proof) -> Prover.strength_name proof.Prover.strength)
          (Prover.attempt_assert_safety ~config ~cache ~program ~tree:(one_execution_tree ())
             ~crash_observations:0 ~epoch:0 ())
      in
      checkb
        (Printf.sprintf "%s proof strength" program.Ir.name)
        true
        (strength = Some (if expected_proof then "proved" else "tested")))
    inputs;
  checkb
    (Printf.sprintf
       "branches reached over %d programs: %d truncated, %d proved, %d kept from a proof by \
        timeouts alone, %d refuted otherwise; %d of %d evidences guarded, %d after a rejected \
        matching path (%d input-only)"
       (List.length inputs) !truncated !proved !timed_out !refuted !guards !evidences
       !rejected_first !rejected_solved)
    true
    (!truncated > 0 && !proved > 0 && !timed_out > 0 && !refuted > 0 && !rejected_solved > 0)

(* gen-198734's exploration truncates at the hive's path budget, so a
   proof attempt reads no verdict: it must miss the cache exactly as
   often as the unsolved exploration does on its own. *)
let test_truncated_prover_solves_nothing () =
  let config = hive_symexec_config in
  let program =
    List.find (fun (p : Ir.t) -> p.Ir.name = "gen-198734") (analysis_population ())
  in
  let explored = Verdict_cache.create () in
  let report =
    Sym_exec.explore
      ~config:{ config with Sym_exec.solve_models = false }
      ~cache:explored program Consistency.Strict
  in
  checkb "exploration truncates" true report.Sym_exec.truncated;
  let proving = Verdict_cache.create () in
  (match
     Prover.attempt_assert_safety ~config ~cache:proving ~program ~tree:(one_execution_tree ())
       ~crash_observations:0 ~epoch:0 ()
   with
  | Some { Prover.strength = Prover.Tested _; _ } -> ()
  | Some { Prover.strength = Prover.Proved _; _ } | None -> Alcotest.fail "expected Tested");
  checki "cache misses" (Verdict_cache.misses explored) (Verdict_cache.misses proving)

(* ---- Guidance -------------------------------------------------------------- *)

let test_guidance_covers_gaps () =
  let tree = Exec_tree.create () in
  (* Only common paths seen: the rare branch directions are gaps. *)
  let rng = Rng.create 6 in
  for i = 1 to 50 do
    let inputs = Array.init 3 (fun _ -> Rng.int_in rng 0 6) in
    let r = run_once ~seed:i Corpus.parser inputs in
    ignore (Exec_tree.add_path tree r.Interp.full_path r.Interp.outcome)
  done;
  let result = Guidance.plan Corpus.parser tree in
  checkb "directives produced" true (result.Guidance.directives <> []);
  (* Each directive's test must actually cover its target direction. *)
  List.iter
    (fun directive ->
      match directive with
      | Guidance.Cover_direction { site; direction; test } ->
        let env =
          Env.make ~fault_plan:test.Softborg_symexec.Testgen.fault_plan ~seed:1
            ~inputs:test.Softborg_symexec.Testgen.inputs ()
        in
        let r = Interp.run ~program:Corpus.parser ~env ~sched:Sched.Round_robin () in
        checkb "directive reaches its target" true
          (List.exists
             (fun (s, d) -> Ir.site_equal s site && d = direction)
             r.Interp.full_path)
      | Guidance.Probe_schedules _ -> ())
    result.Guidance.directives

let test_guidance_exclude_respected () =
  let tree = Exec_tree.create () in
  let r = run_once Corpus.parser [| 1; 2; 3 |] in
  ignore (Exec_tree.add_path tree r.Interp.full_path r.Interp.outcome);
  let first = Guidance.plan Corpus.parser tree in
  let issued =
    List.filter_map
      (fun d ->
        match d with
        | Guidance.Cover_direction { site; direction; _ } -> Some (site, direction)
        | Guidance.Probe_schedules _ -> None)
      first.Guidance.directives
  in
  let exclude = Hashtbl.create 8 in
  List.iter (fun key -> Hashtbl.replace exclude key ()) issued;
  let second = Guidance.plan ~exclude Corpus.parser tree in
  checkb "excluded gaps not re-planned" true
    (List.for_all
       (fun d ->
         match d with
         | Guidance.Cover_direction { site; direction; _ } ->
           not
             (List.exists
                (fun (s, dir) -> Ir.site_equal s site && dir = direction)
                issued)
         | Guidance.Probe_schedules _ -> true)
       second.Guidance.directives)

(* A deterministic partially-explored tree (of the parser by default);
   plan mutates its tree (infeasible marks), so each plan call gets a
   fresh twin. *)
let guidance_tree ?(program = Corpus.parser) ?(n = 50) ?(input_range = 6) () =
  let tree = Exec_tree.create () in
  let rng = Rng.create 6 in
  for i = 1 to n do
    let inputs = Array.init program.Ir.n_inputs (fun _ -> Rng.int_in rng 0 input_range) in
    let r = run_once ~seed:i program inputs in
    ignore (Exec_tree.add_path tree r.Interp.full_path r.Interp.outcome)
  done;
  tree

let test_guidance_derives_only_what_it_reads () =
  (* Every verdict a plan adds to its memo is one its decision fold
     looked up and missed: none is derived ahead of the fold, so a plan
     that stops after one gap has solved at most one. *)
  List.iter
    (fun max_directives ->
      let memo = Gap_memo.create () in
      let result =
        Guidance.plan ~max_directives ~memo Corpus.checksum
          (guidance_tree ~program:Corpus.checksum ())
      in
      let label = Printf.sprintf "max_directives %d: " max_directives in
      checkb (label ^ "considered a gap") true (result.Guidance.gaps_considered > 0);
      checkb
        (label ^ "memo no longer than the gaps considered")
        true
        (Gap_memo.length memo <= result.Guidance.gaps_considered);
      checki (label ^ "every memo entry was a miss") (Gap_memo.length memo)
        (Gap_memo.misses memo))
    [ 1; 8 ]

let test_guidance_memo_reused () =
  let memo = Gap_memo.create () in
  let r1 = Guidance.plan ~memo Corpus.parser (guidance_tree ()) in
  let misses_after_first = Gap_memo.misses memo in
  checkb "first plan populated the memo" true (Gap_memo.length memo > 0);
  let r2 = Guidance.plan ~memo Corpus.parser (guidance_tree ()) in
  checki "second plan solved nothing new" misses_after_first (Gap_memo.misses memo);
  checkb "second plan hit the memo" true (Gap_memo.hits memo > 0);
  checkb "memoized plan identical" true (r1 = r2)

let test_guidance_sublinear_counters () =
  (* Regression guard for the incremental frontier index: one planning
     tick must sort nothing and materialize at most the gaps it
     considers (3 * max_directives), however large the frontier is.
     A branchy generated program gives a frontier of several hundred
     gaps from a dozen executions. *)
  let program, _ =
    Softborg_prog.Generator.generate (Rng.create 5)
      {
        Softborg_prog.Generator.default_params with
        Softborg_prog.Generator.block_depth = 3;
        stmts_per_block = 5;
        bugs = [];
      }
  in
  let tree = Exec_tree.create () in
  let rng = Rng.create 19 in
  for i = 1 to 12 do
    let inputs = Array.init program.Ir.n_inputs (fun _ -> Rng.int_in rng 0 40) in
    let r = run_once ~seed:i program inputs in
    ignore (Exec_tree.add_path tree r.Interp.full_path r.Interp.outcome)
  done;
  let max_directives = 8 in
  checkb "frontier much larger than the considered window" true
    (Exec_tree.frontier_size tree > 10 * (3 * max_directives));
  let memo = Gap_memo.create () in
  (* All verdicts pre-filled Unknown, so the planner walks the full
     considered window instead of stopping at max_directives. *)
  Exec_tree.iter_open_dirs tree (fun site missing ->
      Gap_memo.add memo ~site ~direction:missing `Unknown);
  let sorted0 = Exec_tree.gaps_sorted tree in
  let materialized0 = Exec_tree.gaps_materialized tree in
  let result = Guidance.plan ~max_directives ~memo program tree in
  checki "planning sorts no gaps" 0 (Exec_tree.gaps_sorted tree - sorted0);
  checkb "planning materializes O(k) gaps, not O(frontier)" true
    (Exec_tree.gaps_materialized tree - materialized0 <= 3 * max_directives);
  checki "considered capped at 3k" (3 * max_directives) result.Guidance.gaps_considered;
  (* Second input: an exclusion set covering every open direction but
     the 3k coldest, so the considered window lies behind almost the
     whole frontier and the planner passes every excluded gap on its
     way there.  Branch sites drawn from a wide pc range give each open
     direction its own label. *)
  let tree = Exec_tree.create () in
  let rng = Rng.create 23 in
  for _ = 1 to 60 do
    let path =
      List.init 10 (fun d -> ({ Ir.thread = 0; pc = (d * 1000) + Rng.int rng 1000 }, Rng.bool rng))
    in
    ignore (Exec_tree.add_path tree path Softborg_exec.Outcome.Success)
  done;
  let memo = Gap_memo.create () in
  Exec_tree.iter_open_dirs tree (fun site missing ->
      Gap_memo.add memo ~site ~direction:missing `Unknown);
  let exclude = Hashtbl.create 64 in
  let kept = Hashtbl.create 64 in
  List.iter
    (fun (gap : Exec_tree.gap) ->
      let label = (gap.Exec_tree.site, gap.Exec_tree.missing) in
      if Hashtbl.length kept < 3 * max_directives || Hashtbl.mem kept label then
        Hashtbl.replace kept label ()
      else Hashtbl.replace exclude label ())
    (List.rev (Exec_tree.frontier tree));
  checkb "the exclusion set covers all but 3k open directions" true
    (Hashtbl.length exclude > 10 * (3 * max_directives));
  let materialized0 = Exec_tree.gaps_materialized tree in
  let result = Guidance.plan ~max_directives ~exclude ~memo Corpus.parser tree in
  checkb "excluded gaps are skipped without being materialized" true
    (Exec_tree.gaps_materialized tree - materialized0 <= 3 * max_directives);
  checki "considered capped at 3k" (3 * max_directives) result.Guidance.gaps_considered

let test_directive_wire_roundtrip () =
  let directives =
    [
      Guidance.Cover_direction
        {
          site = { Ir.thread = 0; pc = 3 };
          direction = true;
          test =
            {
              Softborg_symexec.Testgen.inputs = [| 7; -3; 100 |];
              fault_plan = Env.Targeted [ 0; 2 ];
            };
        };
      Guidance.Probe_schedules { inputs = [| 1; 2 |]; seeds = [ 5; 6; 7 ] };
    ]
  in
  List.iter
    (fun directive ->
      let w = Codec.Writer.create () in
      Guidance.write_directive w directive;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      checkb "directive roundtrips" true (Guidance.read_directive r = directive))
    directives

(* ---- Allocate ---------------------------------------------------------------- *)

let test_allocate_uniform () =
  let tasks = List.init 4 Allocate.task in
  let allocation = Allocate.allocate Allocate.Uniform ~nodes:8 tasks in
  List.iter (fun (_, n) -> checki "equal split" 2 n) allocation

let test_allocate_greedy_concentrates () =
  let tasks = List.init 3 Allocate.task in
  Allocate.observe_reward (List.nth tasks 1) 10.0;
  Allocate.observe_reward (List.nth tasks 0) 1.0;
  Allocate.observe_reward (List.nth tasks 2) 1.0;
  let allocation = Allocate.allocate Allocate.Greedy ~nodes:6 tasks in
  checki "all on the best" 6 (List.assoc 1 allocation);
  checki "none elsewhere" 0 (List.assoc 0 allocation)

let test_allocate_mean_variance_diversifies () =
  let tasks = List.init 3 Allocate.task in
  (* Task 0: high mean, huge variance.  Task 1: moderate, steady. *)
  List.iter (Allocate.observe_reward (List.nth tasks 0)) [ 20.0; 0.0; 0.0; 20.0 ];
  List.iter (Allocate.observe_reward (List.nth tasks 1)) [ 5.0; 5.0; 5.0; 5.0 ];
  List.iter (Allocate.observe_reward (List.nth tasks 2)) [ 0.1; 0.1; 0.1; 0.1 ];
  let allocation =
    Allocate.allocate (Allocate.Mean_variance { risk_aversion = 1.0 }) ~nodes:12 tasks
  in
  let n0 = List.assoc 0 allocation and n1 = List.assoc 1 allocation in
  checkb "steady task beats volatile despite lower mean" true (n1 > n0);
  checkb "volatile task not starved" true (n0 >= 0);
  checki "sums to nodes" 12 (List.fold_left (fun acc (_, n) -> acc + n) 0 allocation)

let prop_allocate_sums_and_covers =
  QCheck.Test.make ~name:"allocation covers tasks and sums to nodes" ~count:200
    QCheck.(triple (int_range 1 8) (int_range 0 64) (int_range 0 2))
    (fun (n_tasks, nodes, policy_idx) ->
      let policy =
        match policy_idx with
        | 0 -> Allocate.Uniform
        | 1 -> Allocate.Greedy
        | _ -> Allocate.Mean_variance { risk_aversion = 0.5 }
      in
      let rng = Rng.create (n_tasks + nodes) in
      let tasks = List.init n_tasks Allocate.task in
      List.iter
        (fun t ->
          for _ = 1 to Rng.int rng 4 do
            Allocate.observe_reward t (Rng.float rng 10.0)
          done)
        tasks;
      let allocation = Allocate.allocate policy ~nodes tasks in
      List.length allocation = n_tasks
      && List.fold_left (fun acc (_, n) -> acc + n) 0 allocation = nodes
      && List.for_all (fun (_, n) -> n >= 0) allocation)

(* ---- Protocol ------------------------------------------------------------------ *)

(* One message of every kind. *)
let sample_messages () =
  let r = run_once Corpus.parser [| 1; 2; 3 |] in
  let trace = trace_of Corpus.parser r in
  let sampled =
    Sampling.sample (Rng.create 1) ~rate:3 ~full_path:r.Interp.full_path
      ~outcome:r.Interp.outcome
  in
  let fixes =
    Fixgen.propose ~program:Corpus.parser ~deadlock_patterns:[ [ 0; 1 ] ]
      ~crashes:[ parser_crash_evidence () ] ~existing:[] ~next_epoch:1 ()
  in
  [
    Protocol.Trace_upload (Wire.encode trace);
    Protocol.Sampled_report { program_digest = "d"; report = sampled };
    Protocol.Fix_update
      { program_digest = "d"; epoch = 2; fixes; canary = []; canary_mils = 0; pressure = 0 };
    Protocol.Guidance_update
      {
        program_digest = "d";
        directives = [ Guidance.Probe_schedules { inputs = [| 0 |]; seeds = [ 1 ] } ];
        pressure = 2;
      };
    Protocol.Pressure_update { level = 3 };
    Protocol.Knowledge_delta
      {
        shard = 2;
        seq = 5;
        payloads = [ (Protocol.encode (Protocol.Trace_upload (Wire.encode trace)), 3); ("x", 1) ];
      };
    Protocol.Batch_upload
      {
        program_digest = "d";
        basis_id = 0;
        basis_check = 0;
        records = [ Wire.encode_record trace; Wire.encode_record ~basis:trace trace ];
      };
    Protocol.Basis_update { program_digest = "d"; basis_id = 1; payload = Wire.encode trace };
  ]

let test_protocol_roundtrips () =
  List.iter
    (fun message ->
      match Protocol.decode (Protocol.encode message) with
      | Ok back -> checkb (Protocol.message_name message ^ " roundtrips") true (back = message)
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    (sample_messages ())

let test_protocol_rejects_garbage () =
  (match Protocol.decode "\xffgarbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded garbage");
  let no_copies =
    Protocol.encode (Protocol.Knowledge_delta { shard = 0; seq = 0; payloads = [ ("x", 0) ] })
  in
  (match Protocol.decode no_copies with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a delta payload with no copies");
  (* An honest frame with one byte appended is malformed, whatever its
     kind: a decoder that stopped at its last field would let junk
     ride along in any frame. *)
  List.iter
    (fun message ->
      match Protocol.decode (Protocol.encode message ^ "\000") with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded a %s with a trailing byte" (Protocol.message_name message))
    (sample_messages ());
  (* A delta in the layout that still carried a verdict list after
     the payloads: the list is rejected, not silently ignored. *)
  let w = Codec.Writer.create () in
  Codec.Writer.byte w 6;
  Codec.Writer.varint w 0;
  Codec.Writer.varint w 0;
  Codec.Writer.list w (fun (payload, copies) ->
      Codec.Writer.bytes w payload;
      Codec.Writer.varint w copies)
    [ ("x", 1) ];
  Codec.Writer.list w
    (fun (digest, binding) ->
      Codec.Writer.bytes w digest;
      Gap_memo.write_binding w binding)
    [ ("d", (({ Ir.thread = 0; pc = 4 }, true), `Infeasible)) ];
  match Protocol.decode (Codec.Writer.contents w) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a delta in the layout with verdicts"

(* Tags 5, 7 and 10 carried a routing table, shard telemetry and a
   separate retraction frame; nothing read them, and the hive treats a
   frame in any of their old layouts as poison. *)
let test_protocol_retired_tags_quarantined () =
  let frame tag body =
    let w = Codec.Writer.create () in
    Codec.Writer.byte w tag;
    body w;
    Codec.Writer.contents w
  in
  let frames =
    [
      (* n_shards, prefix_bits *)
      frame 5 (fun w ->
          Codec.Writer.varint w 4;
          Codec.Writer.varint w 8);
      (* shard, then (digest, paths, traces) rows *)
      frame 7 (fun w ->
          Codec.Writer.varint w 1;
          Codec.Writer.list w
            (fun () ->
              Codec.Writer.bytes w "d";
              Codec.Writer.varint w 3;
              Codec.Writer.varint w 9)
            [ () ]);
      (* digest, epoch, pressure, retracted, fixes, canary, canary_mils *)
      frame 10 (fun w ->
          Codec.Writer.bytes w "d";
          Codec.Writer.varint w 2;
          Codec.Writer.varint w 0;
          Codec.Writer.list w (Codec.Writer.varint w) [ 9 ];
          Codec.Writer.list w (Fixgen.write_fix w) [];
          Codec.Writer.list w (Codec.Writer.varint w) [];
          Codec.Writer.varint w 0);
    ]
  in
  List.iter
    (fun payload ->
      match Protocol.decode payload with
      | Error _ -> ()
      | Ok m -> Alcotest.failf "retired tag decoded as %s" (Protocol.message_name m))
    frames;
  let hive = Hive.create ~sim:(Sim.create ()) () in
  List.iter (Hive.inject hive ~slot:0) frames;
  checki "each retired frame quarantined" 3 (Hive.stats hive).Hive.quarantined_frames

(* ---- Trace store ------------------------------------------------------------------ *)

module Trace_store = Softborg_hive.Trace_store
module Report = Softborg_hive.Report

let test_store_dedups_identical_content () =
  let store = Trace_store.create () in
  let r = run_once Corpus.fig2_write [| 5 |] in
  (* Same content from two different pods must deduplicate. *)
  let t1 = Trace.of_result ~program_digest:"d" ~pod:1 ~fix_epoch:0 r in
  let t2 = Trace.of_result ~program_digest:"d" ~pod:2 ~fix_epoch:0 r in
  checkb "first is novel" true (Trace_store.admit store t1 = Trace_store.Novel);
  checkb "second is duplicate" true (Trace_store.admit store t2 = Trace_store.Duplicate 2);
  checki "one distinct" 1 (Trace_store.distinct store);
  checki "two received" 2 (Trace_store.received store);
  checkb "dedup ratio ~2" true (Trace_store.dedup_ratio store > 1.9);
  checki "multiplicity" 2 (Trace_store.multiplicity store t1)

let test_store_distinguishes_content () =
  let store = Trace_store.create () in
  let admit inputs =
    let r = run_once Corpus.fig2_write [| inputs |] in
    ignore (Trace_store.admit store (Trace.of_result ~program_digest:"d" ~pod:1 ~fix_epoch:0 r))
  in
  admit 5;
  admit (-1);
  admit 200;
  checki "three distinct paths stored" 3 (Trace_store.distinct store)

let test_store_heaviest () =
  let store = Trace_store.create () in
  let admit inputs =
    let r = run_once Corpus.fig2_write [| inputs |] in
    ignore (Trace_store.admit store (Trace.of_result ~program_digest:"d" ~pod:1 ~fix_epoch:0 r))
  in
  for _ = 1 to 5 do
    admit 5
  done;
  admit (-1);
  match Trace_store.heaviest store ~n:1 with
  | [ (_, 5) ] -> ()
  | other -> Alcotest.failf "expected the hot path with count 5, got %d entries" (List.length other)

let test_store_byte_counters_match_wire () =
  (* Regression for the single-encode admit rewrite: the byte counters
     must equal the per-upload wire sizes with the pod varint counted
     as one byte — the size of the content encoding, whatever the
     pod — including pods whose varint needs 1, 2 and 3 bytes. *)
  let store = Trace_store.create () in
  let r5 = run_once Corpus.fig2_write [| 5 |] in
  let r200 = run_once Corpus.fig2_write [| 200 |] in
  let uploads =
    [
      Trace.of_result ~program_digest:"d" ~pod:1 ~fix_epoch:0 r5;
      Trace.of_result ~program_digest:"d" ~pod:200 ~fix_epoch:0 r5;
      Trace.of_result ~program_digest:"d" ~pod:70_000 ~fix_epoch:0 r5;
      Trace.of_result ~program_digest:"d" ~pod:70_000 ~fix_epoch:0 r200;
    ]
  in
  let novel_bytes = ref 0 in
  let total_bytes = ref 0 in
  List.iter
    (fun trace ->
      let wire_size = String.length (Wire.encode trace) - Codec.varint_len trace.Trace.pod + 1 in
      total_bytes := !total_bytes + wire_size;
      match Trace_store.admit store trace with
      | Trace_store.Novel -> novel_bytes := !novel_bytes + wire_size
      | Trace_store.Duplicate _ -> ())
    uploads;
  checki "bytes received match wire sizes" !total_bytes (Trace_store.bytes_received store);
  checki "bytes stored match novel wire sizes" !novel_bytes (Trace_store.bytes_stored store);
  checki "two distinct contents" 2 (Trace_store.distinct store)

let test_knowledge_bytes_ignore_arrival_order () =
  (* One content reported by pods 5 and 200 (one- and two-byte pod
     varints), ingested in both orders: the knowledge bytes must be
     equal, as they are a function of the ingested multiset. *)
  let r = run_once Corpus.fig2_write [| 5 |] in
  let upload pod = Trace.of_result ~program_digest:(Ir.digest Corpus.fig2_write) ~pod ~fix_epoch:0 r in
  let knowledge_bytes pods =
    let k = Knowledge.create Corpus.fig2_write in
    List.iter
      (fun pod ->
        let trace = upload pod in
        match Knowledge.ingest_trace ~prepared:(Trace_store.prepare trace) k trace with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      pods;
    let w = Codec.Writer.create () in
    Knowledge.write w k;
    (Trace_store.bytes_stored (Knowledge.store k), Codec.Writer.contents w)
  in
  let stored_a, bytes_a = knowledge_bytes [ 5; 200 ] in
  let stored_b, bytes_b = knowledge_bytes [ 200; 5 ] in
  checki "bytes stored do not depend on the first pod" stored_a stored_b;
  checkb "knowledge bytes do not depend on arrival order" true (bytes_a = bytes_b)

let test_store_admit_keyed_matches_content_key () =
  let store = Trace_store.create () in
  let r = run_once Corpus.fig2_write [| 5 |] in
  let t1 = Trace.of_result ~program_digest:"d" ~pod:1 ~fix_epoch:0 r in
  let t2 = Trace.of_result ~program_digest:"d" ~pod:9 ~fix_epoch:0 r in
  let key1, adm1 = Trace_store.admit_keyed store t1 in
  let key2, adm2 = Trace_store.admit_keyed store t2 in
  checkb "keys agree across pods" true (String.equal key1 key2);
  checkb "key equals content_key" true (String.equal key1 (Trace_store.content_key t1));
  checkb "first novel" true (adm1 = Trace_store.Novel);
  checkb "second duplicate" true (adm2 = Trace_store.Duplicate 2)

let test_knowledge_replay_cache_skips_replay () =
  let k = Knowledge.create Corpus.fig2_write in
  let r = run_once Corpus.fig2_write [| 5 |] in
  for pod = 1 to 3 do
    checkb "ingest ok" true (Knowledge.ingest_trace k (trace_of ~pod Corpus.fig2_write r) = Ok ())
  done;
  checki "two cache hits" 2 (Knowledge.replay_cache_hits k);
  let tree = Knowledge.tree k in
  checki "all three merged" 3 (Exec_tree.n_executions tree);
  checki "one distinct path" 1 (Exec_tree.n_distinct_paths tree);
  (* A disabled cache behaves identically, minus the hits. *)
  let k0 = Knowledge.create ~replay_cache:0 Corpus.fig2_write in
  for pod = 1 to 3 do
    ignore (Knowledge.ingest_trace k0 (trace_of ~pod Corpus.fig2_write r))
  done;
  checki "no hits when disabled" 0 (Knowledge.replay_cache_hits k0);
  checki "same executions" 3 (Exec_tree.n_executions (Knowledge.tree k0));
  checki "same distinct paths" 1 (Exec_tree.n_distinct_paths (Knowledge.tree k0))

let test_knowledge_replay_cache_cleared_on_epoch () =
  let k = Knowledge.create Corpus.fig2_write in
  let r = run_once Corpus.fig2_write [| 5 |] in
  ignore (Knowledge.ingest_trace k (trace_of ~pod:1 Corpus.fig2_write r));
  ignore (Knowledge.ingest_trace k (trace_of ~pod:2 Corpus.fig2_write r));
  checki "one hit before epoch bump" 1 (Knowledge.replay_cache_hits k);
  (* New epoch can change replay hooks: the cache must not serve stale
     reconstructions. *)
  ignore (Knowledge.add_fix k (Fixgen.Deadlock_immunity [ 0; 1 ]));
  ignore (Knowledge.ingest_trace k (trace_of ~pod:3 Corpus.fig2_write r));
  checki "no hit right after epoch bump" 1 (Knowledge.replay_cache_hits k);
  ignore (Knowledge.ingest_trace k (trace_of ~pod:4 Corpus.fig2_write r));
  checki "cache refills afterwards" 2 (Knowledge.replay_cache_hits k)

(* Symbolic verdicts read only the program, and a fix never changes
   it: fix epochs must leave both verdict tables as they were. *)
let test_knowledge_gap_verdicts_survive_epochs () =
  let k = Knowledge.create Corpus.fig2_write in
  List.iter
    (fun input ->
      let r = run_once Corpus.fig2_write [| input |] in
      ignore (Knowledge.ingest_trace k (trace_of Corpus.fig2_write r)))
    [ 5; 150 ];
  let memo = Knowledge.gap_memo k and cache = Knowledge.verdict_cache k in
  let close_gaps () =
    ignore (Prover.close_gaps ~cache ~memo (Knowledge.program k) (Knowledge.tree k))
  in
  close_gaps ();
  let memo_length = Gap_memo.length memo and cache_length = Verdict_cache.length cache in
  checkb "close_gaps filled the memo" true (memo_length > 0);
  ignore (Knowledge.add_fix k (Fixgen.Deadlock_immunity [ 0; 1 ]));
  Knowledge.adopt_fixes k ~fixes:(Knowledge.fixes k) ~epoch:(Knowledge.epoch k + 1) ~retracted:[];
  checki "two epoch bumps" 2 (Knowledge.epoch k);
  checki "memo kept" memo_length (Gap_memo.length memo);
  checki "verdict cache kept" cache_length (Verdict_cache.length cache);
  let misses = Gap_memo.misses memo in
  close_gaps ();
  checki "repeat close_gaps solves nothing" misses (Gap_memo.misses memo)

let test_knowledge_store_accounting () =
  let k = Knowledge.create Corpus.fig2_write in
  for _ = 1 to 50 do
    let r = run_once Corpus.fig2_write [| 5 |] in
    ignore (Knowledge.ingest_trace k (trace_of Corpus.fig2_write r))
  done;
  let store = Knowledge.store k in
  checki "50 uploads" 50 (Trace_store.received store);
  checki "one distinct content" 1 (Trace_store.distinct store);
  checkb "dedup saves ~50x" true (Trace_store.dedup_ratio store > 40.0)

(* ---- Report ------------------------------------------------------------------------ *)

let test_report_renders_everything () =
  let k = Knowledge.create Corpus.parser in
  ingest_n k Corpus.parser ~inputs_for:(fun _ -> Array.copy Corpus.parser_trigger) 3;
  let rng = Rng.create 1 in
  ingest_n k Corpus.parser ~inputs_for:(fun _ -> Array.init 3 (fun _ -> Rng.int_in rng 0 100)) 50;
  ignore (Knowledge.analyze k);
  (match
     Prover.attempt_assert_safety ~program:Corpus.parser ~tree:(Knowledge.tree k)
       ~crash_observations:3 ~epoch:(Knowledge.epoch k) ()
   with
  | Some proof -> Knowledge.record_proof k proof
  | None -> ());
  let report = Report.render k in
  let contains needle =
    let n = String.length needle and h = String.length report in
    let rec loop i = i + n <= h && (String.sub report i n = needle || loop (i + 1)) in
    loop 0
  in
  checkb "names the program" true (contains "parser");
  checkb "has bucket section" true (contains "Failure buckets");
  checkb "lists the guard fix" true (contains "guard[");
  checkb "has tree stats" true (contains "distinct paths");
  checkb "has store stats" true (contains "dedup");
  checkb "summary line" true
    (String.length (Report.summary_line k) > 10)

(* ---- Hive service ----------------------------------------------------------------- *)

let test_hive_end_to_end_fix_distribution () =
  let sim = Sim.create () in
  let hive = Hive.create ~sim () in
  ignore (Hive.register_program hive Corpus.parser);
  let pod_end, hive_end = Transport.endpoint_pair ~sim ~rng:(Rng.create 3) () in
  Hive.attach_pod hive hive_end;
  let received_fixes = ref [] in
  Transport.on_receive pod_end (fun payload ->
      match Protocol.decode payload with
      | Ok (Protocol.Fix_update { fixes; _ }) -> received_fixes := fixes @ !received_fixes
      | _ -> ());
  (* Pod uploads a crashing trace. *)
  let r = run_once Corpus.parser Corpus.parser_trigger in
  let trace = trace_of Corpus.parser r in
  Transport.send pod_end
    (Protocol.encode (Protocol.Trace_upload (Softborg_trace.Wire.encode trace)));
  Sim.run sim;
  Hive.tick hive;
  Sim.run sim;
  checkb "pod received a fix update" true (!received_fixes <> []);
  checkb "fix set includes a guard or suppression" true
    (List.exists
       (fun f ->
         match f.Fixgen.kind with
         | Fixgen.Input_guard _ | Fixgen.Crash_suppression _ -> true
         | _ -> false)
       !received_fixes);
  let stats = Hive.stats hive in
  checki "one trace ingested" 1 stats.Hive.traces_received;
  checkb "fixes deployed counted" true (stats.Hive.fixes_deployed >= 1)

let test_hive_wer_mode_uses_human_delay () =
  let config =
    { (Hive.default_config Hive.Wer) with Hive.human_fix_threshold = 2; human_fix_delay = 100.0 }
  in
  let sim = Sim.create () in
  let hive = Hive.create ~config ~sim () in
  let k = Hive.register_program hive Corpus.parser in
  let pod_end, hive_end = Transport.endpoint_pair ~sim ~rng:(Rng.create 5) () in
  Hive.attach_pod hive hive_end;
  for i = 1 to 3 do
    let r = run_once ~seed:i Corpus.parser Corpus.parser_trigger in
    let trace = Softborg_trace.Anonymize.apply Softborg_trace.Anonymize.Outcome_only
        (trace_of Corpus.parser r)
    in
    Transport.send pod_end
      (Protocol.encode (Protocol.Trace_upload (Softborg_trace.Wire.encode trace)))
  done;
  Sim.run sim;
  Hive.tick hive;
  (* The human fix is scheduled but lands only after the delay. *)
  checki "no fix yet" 0 (List.length (Knowledge.fixes k));
  Sim.run sim;
  checkb "human fix landed after delay" true (Knowledge.fixes k <> []);
  checkb "hive scheduled exactly one human fix" true
    ((Hive.stats hive).Hive.human_fixes_scheduled = 1)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_hive"
    [
      ( "isolate",
        [
          Alcotest.test_case "localizes parser bug" `Quick test_isolate_localizes_parser_bug;
          Alcotest.test_case "top predicate" `Quick test_isolate_top_predicate_positive;
          Alcotest.test_case "counts" `Quick test_isolate_counts;
          Alcotest.test_case "no failures" `Quick test_isolate_no_failures_no_positive_score;
          Alcotest.test_case "from sampled" `Quick test_isolate_from_sampled_reports;
        ] );
      ( "fixgen",
        [
          Alcotest.test_case "input guard" `Quick test_fixgen_derives_input_guard;
          Alcotest.test_case "deadlock immunity" `Quick test_fixgen_deadlock_immunity;
          Alcotest.test_case "dedupes" `Quick test_fixgen_dedupes_existing;
          Alcotest.test_case "multithreaded suppression" `Quick
            test_fixgen_multithreaded_falls_back_to_suppression;
          Alcotest.test_case "wire roundtrip" `Quick test_fix_wire_roundtrip;
          Alcotest.test_case "epoch filtering" `Quick test_runtime_hooks_epoch_filtering;
        ] );
      ( "knowledge",
        [
          Alcotest.test_case "ingest builds tree" `Quick test_knowledge_ingest_builds_tree;
          Alcotest.test_case "buckets crashes" `Quick test_knowledge_buckets_crashes;
          Alcotest.test_case "analyze bumps epoch" `Quick test_knowledge_analyze_bumps_epoch;
          Alcotest.test_case "replay respects epoch" `Quick
            test_knowledge_replay_respects_fix_epoch;
          Alcotest.test_case "deadlock buckets" `Quick test_knowledge_deadlock_buckets;
        ] );
      ( "prover",
        [
          Alcotest.test_case "proves fig2" `Quick test_prover_proves_fig2;
          Alcotest.test_case "refuses buggy" `Quick test_prover_refuses_buggy_program;
          Alcotest.test_case "symbolic counterexample" `Quick
            test_prover_symbolic_counterexample_blocks_proof;
          Alcotest.test_case "deadlock-free lockless" `Quick
            test_prover_deadlock_freedom_lockless;
          Alcotest.test_case "blocked by cycle" `Quick
            test_prover_deadlock_freedom_blocked_by_cycle;
          Alcotest.test_case "explores schedules" `Quick
            test_prover_deadlock_freedom_explores_schedules;
          Alcotest.test_case "invalidation" `Quick test_proof_invalidation;
        ] );
      ( "guidance",
        [
          Alcotest.test_case "covers gaps" `Quick test_guidance_covers_gaps;
          Alcotest.test_case "exclude respected" `Quick test_guidance_exclude_respected;
          Alcotest.test_case "derives only what it reads" `Quick
            test_guidance_derives_only_what_it_reads;
          Alcotest.test_case "memo reused" `Quick test_guidance_memo_reused;
          Alcotest.test_case "sublinear counters" `Quick test_guidance_sublinear_counters;
          Alcotest.test_case "wire roundtrip" `Quick test_directive_wire_roundtrip;
        ] );
      ( "allocate",
        [
          Alcotest.test_case "uniform" `Quick test_allocate_uniform;
          Alcotest.test_case "greedy concentrates" `Quick test_allocate_greedy_concentrates;
          Alcotest.test_case "mean-variance diversifies" `Quick
            test_allocate_mean_variance_diversifies;
          q prop_allocate_sums_and_covers;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrips" `Quick test_protocol_roundtrips;
          Alcotest.test_case "rejects garbage" `Quick test_protocol_rejects_garbage;
          Alcotest.test_case "retired tags quarantined" `Quick
            test_protocol_retired_tags_quarantined;
        ] );
      ( "trace_store",
        [
          Alcotest.test_case "dedups identical content" `Quick test_store_dedups_identical_content;
          Alcotest.test_case "distinguishes content" `Quick test_store_distinguishes_content;
          Alcotest.test_case "heaviest" `Quick test_store_heaviest;
          Alcotest.test_case "byte counters match wire" `Quick
            test_store_byte_counters_match_wire;
          Alcotest.test_case "admit_keyed matches content_key" `Quick
            test_store_admit_keyed_matches_content_key;
          Alcotest.test_case "knowledge bytes ignore arrival order" `Quick
            test_knowledge_bytes_ignore_arrival_order;
          Alcotest.test_case "replay cache skips replay" `Quick
            test_knowledge_replay_cache_skips_replay;
          Alcotest.test_case "replay cache cleared on epoch" `Quick
            test_knowledge_replay_cache_cleared_on_epoch;
          Alcotest.test_case "gap verdicts survive epochs" `Quick
            test_knowledge_gap_verdicts_survive_epochs;
          Alcotest.test_case "knowledge accounting" `Quick test_knowledge_store_accounting;
        ] );
      ( "deferred",
        [
          Alcotest.test_case "solves match the full folds" `Quick
            test_deferred_solves_match_full_folds;
          Alcotest.test_case "truncated prover solves nothing" `Quick
            test_truncated_prover_solves_nothing;
        ] );
      ( "report",
        [ Alcotest.test_case "renders everything" `Quick test_report_renders_everything ] );
      ( "service",
        [
          Alcotest.test_case "end-to-end fix distribution" `Quick
            test_hive_end_to_end_fix_distribution;
          Alcotest.test_case "WER human delay" `Quick test_hive_wer_mode_uses_human_delay;
        ] );
    ]
