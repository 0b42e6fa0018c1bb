(* The SoftBorg experiment harness.

   One experiment per figure/claim of the paper (see DESIGN.md §4 and
   EXPERIMENTS.md for the index), plus Bechamel micro-benchmarks of the
   hot paths and the fleet, rollout and repair suites that write
   BENCH_*.json.  `dune exec bench/main.exe` runs everything; pass
   experiment ids (e1 e3 micro ...) to run a subset.

   The harness measures; the test suite asserts.  An invariant a run
   must hold is checked by the test that owns it, not here.  The only
   modes `dune runtest` runs are the `micro-*-smoke` ones (aliases
   @bench-smoke and @vm-smoke), which keep the suites themselves from
   rotting. *)

module Rng = Softborg_util.Rng
module Stats = Softborg_util.Stats
module Tabular = Softborg_util.Tabular
module Bitvec = Softborg_util.Bitvec
module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Generator = Softborg_prog.Generator
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Bytecode = Softborg_exec.Bytecode
module Engine = Softborg_exec.Engine
module Build = Softborg_prog.Build
module Outcome = Softborg_exec.Outcome
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Compress = Softborg_trace.Compress
module Sampling = Softborg_trace.Sampling
module Anonymize = Softborg_trace.Anonymize
module Exec_tree = Softborg_tree.Exec_tree
module Cnf = Softborg_solver.Cnf
module Dpll = Softborg_solver.Dpll
module Portfolio = Softborg_solver.Portfolio
module Sym_exec = Softborg_symexec.Sym_exec
module Consistency = Softborg_symexec.Consistency
module Immunity = Softborg_conc.Immunity
module Schedule_explore = Softborg_conc.Schedule_explore
module Fault_plan = Softborg_net.Fault_plan
module Hive = Softborg_hive.Hive
module Knowledge = Softborg_hive.Knowledge
module Trace_store = Softborg_hive.Trace_store
module Ids = Softborg_util.Ids
module Fixgen = Softborg_hive.Fixgen
module Isolate = Softborg_hive.Isolate
module Prover = Softborg_hive.Prover
module Allocate = Softborg_hive.Allocate
module Guidance = Softborg_hive.Guidance
module Gap_memo = Softborg_hive.Gap_memo
module Protocol = Softborg_hive.Protocol
module Sim = Softborg_net.Sim
module Transport = Softborg_net.Transport
module Pod = Softborg_pod.Pod
module Workload = Softborg_pod.Workload
module Corpus_bench = Softborg_corpus.Corpus_bench
module Repair_score = Softborg_hive.Repair_score
module Platform = Softborg.Platform
module Scenario = Softborg.Scenario
module Metrics = Softborg.Metrics

let col = Tabular.column
let rcol = Tabular.column ~align:Tabular.Right
let fmt_f = Tabular.fmt_float
let heading title = Printf.printf "\n================ %s ================\n" title

let run_once ?(fault_plan = Env.No_faults) ?(seed = 7) ?(sched = Sched.Round_robin)
    ?(max_steps = 20_000) program inputs =
  let env = Env.make ~fault_plan ~seed ~inputs () in
  Interp.run ~max_steps ~program ~env ~sched ()

(* ==================================================================== *)
(* E1 — Figure 1 / §2: the platform loop makes software more reliable   *)
(* the more it is used.                                                 *)
(* ==================================================================== *)

let e1 () =
  heading "E1: reliability grows with use (Figure 1 loop, paper-§2 hypothesis)";
  let config, population = Scenario.buggy_population ~seed:11 ~n_pods:9 () in
  let config = { config with Platform.duration = 1500.0; sample_interval = 150.0 } in
  Printf.printf "population: %d generated programs, planted bugs:\n" (List.length population);
  List.iter
    (fun ((prog : Ir.t), planted) ->
      List.iter
        (fun (p : Generator.planted) ->
          Printf.printf "  %-12s %s\n" prog.Ir.name p.Generator.description)
        planted)
    population;
  let report = Platform.run config in
  let rows =
    List.map
      (fun (w : Metrics.window) ->
        [
          Printf.sprintf "%.0f-%.0f" w.Metrics.t_start w.Metrics.t_end;
          string_of_int w.Metrics.w_sessions;
          string_of_int w.Metrics.w_failures;
          string_of_int w.Metrics.w_averted;
          fmt_f ~decimals:4 w.Metrics.w_failure_rate;
        ])
      (Metrics.windows report.Platform.snapshots)
  in
  Tabular.print ~title:"user-visible failure rate per window (expect decay toward 0)"
    [ col "window"; rcol "sessions"; rcol "failures"; rcol "averted"; rcol "fail-rate" ]
    rows;
  let f = report.Platform.final in
  Printf.printf
    "final: %d sessions, %d failures, %d averted, %d fixes deployed, %d valid proofs\n"
    f.Metrics.sessions f.Metrics.user_failures f.Metrics.averted_crashes
    f.Metrics.fixes_deployed f.Metrics.proofs_valid

(* ==================================================================== *)
(* E2 — Figures 2 & 3: programs as execution trees; dynamic             *)
(* construction by LCA-paste merging of natural executions.             *)
(* ==================================================================== *)

let e2 () =
  heading "E2: collective execution trees (Figures 2 & 3)";
  let rng = Rng.create 7 in
  let looped, _ =
    Generator.generate (Rng.create 5)
      { Generator.default_params with Generator.block_depth = 3; stmts_per_block = 5; bugs = [] }
  in
  let subjects =
    [ ("fig2-write", Corpus.fig2_write); ("parser", Corpus.parser); ("generated", looped) ]
  in
  let n = 1500 in
  let rows =
    List.map
      (fun (name, (program : Ir.t)) ->
        let tree = Exec_tree.create () in
        let shared = Stats.Online.create () in
        let created = Stats.Online.create () in
        let recorded = Stats.Online.create () in
        let rle = Stats.Online.create () in
        for _ = 1 to n do
          let inputs = Array.init program.Ir.n_inputs (fun _ -> Rng.int_in rng (-64) 255) in
          let r = run_once ~seed:(Rng.int rng 10_000) program inputs in
          let stats = Exec_tree.add_path tree r.Interp.full_path r.Interp.outcome in
          Stats.Online.add shared (float_of_int stats.Exec_tree.shared_depth);
          Stats.Online.add created (float_of_int stats.Exec_tree.new_nodes);
          let decisions = List.length r.Interp.full_path in
          if decisions > 0 then
            Stats.Online.add recorded
              (float_of_int (Bitvec.length r.Interp.bits) /. float_of_int decisions);
          Stats.Online.add rle (Compress.compression_ratio r.Interp.bits)
        done;
        [
          name;
          string_of_int n;
          string_of_int (Exec_tree.n_distinct_paths tree);
          string_of_int (Exec_tree.n_nodes tree);
          string_of_int (Exec_tree.depth tree);
          fmt_f (Stats.Online.mean shared);
          fmt_f (Stats.Online.mean created);
          Tabular.fmt_pct (Stats.Online.mean recorded);
          fmt_f (Stats.Online.mean rle);
        ])
      subjects
  in
  Tabular.print
    ~title:
      "merging natural executions (LCA depth = shared prefix; recorded = input-dependent \
       branch fraction; RLE ratio <1 means plain packing wins and the wire format uses it)"
    [
      col "program"; rcol "execs"; rcol "paths"; rcol "nodes"; rcol "depth"; rcol "LCA depth";
      rcol "new nodes"; rcol "recorded"; rcol "RLE ratio";
    ]
    rows;
  let tree = Exec_tree.create () in
  List.iter
    (fun p ->
      let r = run_once Corpus.fig2_write [| p |] in
      ignore (Exec_tree.add_path tree r.Interp.full_path r.Interp.outcome))
    [ -20; 0; 5; 50; 99; 100; 150; 1000 ];
  Printf.printf
    "fig2-write sweep: %d distinct root-to-leaf paths (Figure 2 has 4 syntactic leaves, of \
     which 1 is infeasible)\n"
    (Exec_tree.n_distinct_paths tree);
  (* Ablation (DESIGN §5): record every branch vs input-dependent
     branches only (paper §3.1's cost reduction).  Wire sizes compare
     the actual trace against one whose bit-vector covers all
     decisions. *)
  let rng = Rng.create 15 in
  let rows =
    List.map
      (fun (name, (program : Ir.t)) ->
        let dep_bytes = Stats.Online.create () in
        let all_bytes = Stats.Online.create () in
        for i = 1 to 300 do
          let inputs = Array.init program.Ir.n_inputs (fun _ -> Rng.int_in rng (-64) 255) in
          let r = run_once ~seed:i program inputs in
          let trace = Trace.of_result ~program_digest:(Ir.digest program) ~pod:1 ~fix_epoch:0 r in
          Stats.Online.add dep_bytes (float_of_int (String.length (Wire.encode trace)));
          (* Record-all variant: one bit per decision, deterministic or
             not. *)
          let full_bits = Bitvec.create () in
          List.iter (fun (_, taken) -> Bitvec.push full_bits taken) r.Interp.full_path;
          let all = { trace with Trace.bits = full_bits } in
          Stats.Online.add all_bytes (float_of_int (String.length (Wire.encode all)))
        done;
        [
          name;
          fmt_f ~decimals:1 (Stats.Online.mean all_bytes);
          fmt_f ~decimals:1 (Stats.Online.mean dep_bytes);
          Tabular.fmt_pct
            (1.0 -. (Stats.Online.mean dep_bytes /. Stats.Online.mean all_bytes));
        ])
      [
        ("parser", Corpus.parser);
        ("checksum", Corpus.checksum);
        ("generated", looped);
      ]
  in
  Tabular.print
    ~title:
      "ablation: record-all vs input-dependent-only branch recording (wire bytes/trace; \
       checksum's control flow is mostly deterministic, the paper's common case)"
    [ col "program"; rcol "record-all"; rcol "input-dep only"; rcol "saving" ]
    rows

(* ==================================================================== *)
(* E3 — §4 claim: a portfolio of three SAT solvers gives ~10x speedup   *)
(* in constraint-solving time for ~3x the resources.                    *)
(* ==================================================================== *)

let random_3sat rng ~n_vars ~n_clauses =
  let clause () =
    List.init 3 (fun _ ->
        let v = 1 + Rng.int rng n_vars in
        if Rng.bool rng then v else -v)
  in
  Cnf.make ~n_vars (List.init n_clauses (fun _ -> clause ()))

(* An implication-chain instance with a planted contradiction: unit
   propagation kills it instantly (DPLL), while local search can only
   burn its budget — the opposite profile from loose random SAT. *)
let chain_unsat ~n_vars =
  let clauses =
    [ [ 1 ] ] @ List.init (n_vars - 1) (fun i -> [ -(i + 1); i + 2 ]) @ [ [ -n_vars ] ]
  in
  Cnf.make ~n_vars clauses

let e3 () =
  heading "E3: SAT-solver portfolio — the 10x-at-3x claim (paper §4)";
  let budget = 3_000_000 in
  let rng = Rng.create 99 in
  let families =
    [
      (* Large under-constrained SAT: local search shines, systematic
         search wanders. *)
      ("loose-sat", List.init 8 (fun _ -> random_3sat rng ~n_vars:150 ~n_clauses:450));
      (* Near the phase transition: hard for everyone, DPLL worst. *)
      ("phase-mix", List.init 8 (fun _ -> random_3sat rng ~n_vars:60 ~n_clauses:255));
      (* Over-constrained UNSAT: DPLL refutes, WalkSAT burns budget. *)
      ("dense-unsat", List.init 8 (fun _ -> random_3sat rng ~n_vars:26 ~n_clauses:190));
      (* Structured UNSAT chain: unit propagation kills it instantly. *)
      ("chain-unsat", List.init 4 (fun i -> chain_unsat ~n_vars:(200 + (50 * i))));
    ]
  in
  (* A fresh portfolio per race so the stochastic members replay the
     same rng streams in the preemptive race and the whole-budget
     baseline — making the two runs trajectory-identical and their
     verdicts comparable instance by instance. *)
  let members () = Portfolio.standard_three ~budget ~seed:5 in
  let solver_names = List.map (fun (s : Portfolio.solver) -> s.Portfolio.name) (members ()) in
  let per_solver_steps : (string, float list) Hashtbl.t = Hashtbl.create 8 in
  let note name steps =
    Hashtbl.replace per_solver_steps name
      (steps :: Option.value ~default:[] (Hashtbl.find_opt per_solver_steps name))
  in
  let portfolio_steps = ref [] in
  let sliced_resources = ref 0 in
  let whole_resources = ref 0 in
  let resource_ratios = ref [] in
  let rows =
    List.map
      (fun (family, instances) ->
        let family_single : (string, float list) Hashtbl.t = Hashtbl.create 8 in
        let walls = ref [] in
        let family_sliced = ref 0 in
        let family_whole = ref 0 in
        List.iter
          (fun formula ->
            (* The preemptive sliced race: resource_steps is work the
               losers actually performed before cancellation. *)
            let race = Portfolio.race (members ()) formula in
            (* The pre-preemption baseline: everyone runs to its own
               verdict or budget; its runs are the single-solver costs. *)
            let whole = Portfolio.race_whole_budget (members ()) formula in
            assert (race.Portfolio.verdict = whole.Portfolio.verdict);
            walls := float_of_int race.Portfolio.wall_steps :: !walls;
            portfolio_steps := float_of_int race.Portfolio.wall_steps :: !portfolio_steps;
            family_sliced := !family_sliced + race.Portfolio.resource_steps;
            family_whole := !family_whole + whole.Portfolio.resource_steps;
            if race.Portfolio.wall_steps > 0 then
              resource_ratios :=
                (float_of_int race.Portfolio.resource_steps
                /. float_of_int race.Portfolio.wall_steps)
                :: !resource_ratios;
            List.iter
              (fun (r : Portfolio.run) ->
                note r.Portfolio.solver (float_of_int r.Portfolio.steps);
                Hashtbl.replace family_single r.Portfolio.solver
                  (float_of_int r.Portfolio.steps
                  :: Option.value ~default:[] (Hashtbl.find_opt family_single r.Portfolio.solver)))
              whole.Portfolio.runs)
          instances;
        sliced_resources := !sliced_resources + !family_sliced;
        whole_resources := !whole_resources + !family_whole;
        let mean name =
          (Stats.summarize (Option.value ~default:[ 0.0 ] (Hashtbl.find_opt family_single name)))
            .Stats.mean
        in
        family
        :: fmt_f ~decimals:0 (Stats.summarize !walls).Stats.mean
        :: Tabular.fmt_ratio (float_of_int !family_whole /. float_of_int (max 1 !family_sliced))
        :: List.map (fun name -> fmt_f ~decimals:0 (mean name)) solver_names)
      families
  in
  Tabular.print ~title:"mean solving steps per instance family (budget 3M steps)"
    (col "family" :: rcol "portfolio" :: rcol "preempt gain" :: List.map (fun n -> rcol n) solver_names)
    rows;
  let wall_mean = (Stats.summarize !portfolio_steps).Stats.mean in
  let rows =
    List.map
      (fun name ->
        let steps = Option.value ~default:[ 0.0 ] (Hashtbl.find_opt per_solver_steps name) in
        let mean = (Stats.summarize steps).Stats.mean in
        [ name; fmt_f ~decimals:0 mean; Tabular.fmt_ratio (mean /. wall_mean) ])
      solver_names
  in
  Tabular.print ~title:"portfolio speedup over each single solver (all instances)"
    [ col "single solver"; rcol "mean steps"; rcol "portfolio speedup" ]
    rows;
  let all_single =
    List.concat_map
      (fun n -> Option.value ~default:[] (Hashtbl.find_opt per_solver_steps n))
      solver_names
  in
  let preempt_gain = float_of_int !whole_resources /. float_of_int (max 1 !sliced_resources) in
  Printf.printf
    "aggregate: %.1fx speedup over the average single solver at %.2fx resources (paper \
     reports ~10x at 3x)\n"
    ((Stats.summarize all_single).Stats.mean /. wall_mean)
    (Stats.summarize !resource_ratios).Stats.mean;
  Printf.printf
    "preemption: %d executed steps vs %d whole-budget (%.1fx fewer; verdicts identical on \
     every instance)\n"
    !sliced_resources !whole_resources preempt_gain;
  (* The tentpole's acceptance bar: cancelling losers must cut executed
     work by at least 5x on this mix. *)
  assert (preempt_gain >= 5.0)

(* ==================================================================== *)
(* E4 — §3.3: execution guidance accelerates learning.                  *)
(* ==================================================================== *)

let e4 () =
  heading "E4: execution guidance vs natural executions (paper §3.3)";
  let run ~guidance =
    let config = Scenario.single_program ~seed:21 Corpus.parser in
    let hive_config =
      { config.Platform.hive_config with Hive.guidance_max = (if guidance then 8 else 0) }
    in
    let config =
      {
        config with
        Platform.duration = 600.0;
        sample_interval = 60.0;
        hive_config;
        pod_config =
          {
            config.Platform.pod_config with
            Pod.workload = Workload.Zipf_inputs { lo = 0; hi = 191; exponent = 1.3 };
            arrival_rate = 2.0;
          };
      }
    in
    Platform.run config
  in
  let natural = run ~guidance:false in
  let guided = run ~guidance:true in
  let rows =
    List.map2
      (fun (a : Metrics.snapshot) (b : Metrics.snapshot) ->
        [
          Printf.sprintf "%.0f" a.Metrics.time;
          string_of_int a.Metrics.tree_paths;
          Tabular.fmt_pct a.Metrics.tree_completeness;
          string_of_int b.Metrics.tree_paths;
          Tabular.fmt_pct b.Metrics.tree_completeness;
        ])
      natural.Platform.snapshots guided.Platform.snapshots
  in
  Tabular.print ~title:"tree growth: natural Zipf workload vs hive-guided pods"
    [
      col "time"; rcol "nat paths"; rcol "nat complete"; rcol "guided paths";
      rcol "guided complete";
    ]
    rows;
  let fixes r =
    List.length
      (List.filter Fixgen.is_deployable (List.concat_map Knowledge.fixes r.Platform.knowledge))
  in
  Printf.printf
    "natural: %d fixes, %d user failures | guided: %d fixes, %d user failures (%d guided \
     runs found the bug first)\n"
    (fixes natural) natural.Platform.final.Metrics.user_failures (fixes guided)
    guided.Platform.final.Metrics.user_failures guided.Platform.final.Metrics.guided_runs

(* ==================================================================== *)
(* E5 — §3.1: sampling rate vs capture overhead vs isolation quality.   *)
(* ==================================================================== *)

let e5 () =
  heading "E5: coordinated sampling — overhead vs bug-isolation quality (paper §3.1)";
  let program = Corpus.parser in
  let rng = Rng.create 31 in
  let trigger_run = run_once program Corpus.parser_trigger in
  let true_predicate =
    match List.rev trigger_run.Interp.full_path with
    | (site, direction) :: _ -> { Sampling.site; direction }
    | [] -> failwith "no decisions"
  in
  let n_runs = 600 in
  let inputs_for () =
    if Rng.bernoulli rng 0.05 then Array.copy Corpus.parser_trigger
    else Array.init 3 (fun _ -> Rng.int_in rng 0 191)
  in
  let runs =
    List.init n_runs (fun i ->
        let r = run_once ~seed:i program (inputs_for ()) in
        (r.Interp.full_path, r.Interp.outcome))
  in
  let rows =
    List.map
      (fun rate ->
        let isolate = Isolate.create () in
        let overheads = Stats.Online.create () in
        let widths = Stats.Online.create () in
        List.iter
          (fun (full_path, outcome) ->
            let sampled = Sampling.sample rng ~rate ~full_path ~outcome in
            Stats.Online.add overheads (Sampling.modeled_overhead sampled);
            Stats.Online.add widths (Sampling.family_width_log2 sampled);
            Isolate.record isolate sampled)
          runs;
        let rank =
          match Isolate.localization_rank isolate ~target:true_predicate with
          | Some r -> string_of_int r
          | None -> "lost"
        in
        [
          Printf.sprintf "1/%d" rate;
          Tabular.fmt_pct (Stats.Online.mean overheads);
          fmt_f (Stats.Online.mean widths);
          string_of_int (Isolate.failing_runs isolate);
          rank;
        ])
      [ 1; 10; 100; 1000 ]
  in
  Tabular.print
    ~title:
      (Printf.sprintf
         "sampling sweep over %d runs (~5%% crashing); bug rank 1 = perfectly localized"
         n_runs)
    [ col "rate"; rcol "overhead"; rcol "family log2"; rcol "fail obs"; rcol "bug rank" ]
    rows;
  (* The paper's counterweight: what sparse sampling loses, the size of
     the user community wins back — "no software organization can match
     the aggregate resources of a real user population" (§2). *)
  let rate = 100 in
  let rows =
    List.map
      (fun community ->
        let isolate = Isolate.create () in
        for i = 1 to community do
          let r = run_once ~seed:i program (inputs_for ()) in
          let sampled =
            Sampling.sample rng ~rate ~full_path:r.Interp.full_path ~outcome:r.Interp.outcome
          in
          Isolate.record isolate sampled
        done;
        let rank =
          match Isolate.localization_rank isolate ~target:true_predicate with
          | Some r -> string_of_int r
          | None -> "lost"
        in
        [
          string_of_int community;
          string_of_int (Isolate.failing_runs isolate);
          rank;
        ])
      [ 500; 2_000; 8_000; 32_000 ]
  in
  Tabular.print
    ~title:(Printf.sprintf "community size compensates sparse sampling (fixed rate 1/%d)" rate)
    [ rcol "community runs"; rcol "failing runs"; rcol "bug rank" ]
    rows

(* ==================================================================== *)
(* E6 — §3.3: deadlock immunity.                                        *)
(* ==================================================================== *)

let e6 () =
  heading "E6: deadlock immunity (paper §3.3, after Jula et al. [16])";
  let make_env () = Env.make ~seed:3 ~inputs:[| 2 |] () in
  let explore hooks =
    Schedule_explore.explore ~max_runs:200 ?hooks ~program:Corpus.worker_pool ~make_env ()
  in
  let count result =
    List.fold_left
      (fun acc (o, _) -> match o with Outcome.Deadlock _ -> acc + 1 | _ -> acc)
      0 result.Schedule_explore.outcomes
  in
  let before = explore None in
  let immunizer = Immunity.create ~patterns:[ [ 0; 1 ] ] in
  let after = explore (Some (Immunity.hooks immunizer)) in
  let deferred = ref 0 and runs = 500 in
  for seed = 0 to runs - 1 do
    let r =
      Interp.run ~hooks:(Immunity.hooks immunizer) ~program:Corpus.worker_pool
        ~env:(make_env ())
        ~sched:(Sched.Random_sched (Rng.create seed))
        ()
    in
    deferred := !deferred + r.Interp.deferred_acquisitions
  done;
  Tabular.print ~title:"systematic schedule exploration of worker-pool"
    [ col "configuration"; rcol "schedules"; rcol "deadlocks" ]
    [
      [
        "unprotected";
        string_of_int before.Schedule_explore.distinct_schedules;
        string_of_int (count before);
      ];
      [
        "with immunity";
        string_of_int after.Schedule_explore.distinct_schedules;
        string_of_int (count after);
      ];
    ];
  Printf.printf "avoidance overhead: %.3f deferred acquisitions per run (%d runs)\n"
    (float_of_int !deferred /. float_of_int runs)
    runs

(* ==================================================================== *)
(* E7 — §5: SoftBorg vs WER vs CBI on the same fleet.                   *)
(* ==================================================================== *)

let e7 () =
  heading "E7: SoftBorg vs WER-style vs CBI-style feedback loops (paper §5)";
  let runs =
    List.map
      (fun (name, config) ->
        let config = { config with Platform.duration = 1500.0; sample_interval = 300.0 } in
        (name, Platform.run config))
      (Scenario.three_way_comparison ~seed:17 ())
  in
  let windows = List.map (fun (name, r) -> (name, Metrics.windows r.Platform.snapshots)) runs in
  let n_windows = List.fold_left (fun acc (_, ws) -> min acc (List.length ws)) max_int windows in
  let rows =
    List.init n_windows (fun i ->
        let w0 = List.nth (snd (List.hd windows)) i in
        Printf.sprintf "%.0f-%.0f" w0.Metrics.t_start w0.Metrics.t_end
        :: List.map
             (fun (_, ws) -> fmt_f ~decimals:4 (List.nth ws i).Metrics.w_failure_rate)
             windows)
  in
  Tabular.print ~title:"user-visible failure rate per window"
    (col "window" :: List.map (fun (n, _) -> rcol n) windows)
    rows;
  let rows =
    List.map
      (fun (name, r) ->
        let f = r.Platform.final in
        [
          name;
          string_of_int f.Metrics.sessions;
          string_of_int f.Metrics.user_failures;
          fmt_f ~decimals:5 (Metrics.failure_rate f);
          string_of_int f.Metrics.averted_crashes;
          string_of_int f.Metrics.fixes_deployed;
          string_of_int f.Metrics.proofs_valid;
        ])
      runs
  in
  Tabular.print ~title:"final totals"
    [
      col "platform"; rcol "sessions"; rcol "failures"; rcol "fail-rate"; rcol "averted";
      rcol "fixes"; rcol "proofs";
    ]
    rows

(* ==================================================================== *)
(* E8 — §4: relaxed execution consistency (after S2E).                  *)
(* ==================================================================== *)

let e8 () =
  heading "E8: execution-consistency relaxation (paper §4, after S2E)";
  let deadlocked, _ =
    Generator.generate (Rng.create 3)
      { Generator.default_params with Generator.bugs = [ Generator.Deadlock_pair ] }
  in
  let subjects =
    [
      ("worker-pool", Corpus.worker_pool);
      ("racy-counter", Corpus.racy_counter);
      ("generated", deadlocked);
    ]
  in
  let config = { Sym_exec.default_config with Sym_exec.max_paths = 256 } in
  let rows =
    List.concat_map
      (fun (name, program) ->
        let describe level_name (report : Sym_exec.report) =
          let by_verdict v =
            List.length
              (List.filter
                 (fun (p : Sym_exec.path) -> p.Sym_exec.solver_verdict = v)
                 report.Sym_exec.paths)
          in
          let paths = List.length report.Sym_exec.paths in
          [
            name;
            level_name;
            string_of_int paths;
            string_of_int report.Sym_exec.total_steps;
            fmt_f
              (1000.0 *. float_of_int paths /. float_of_int (max 1 report.Sym_exec.total_steps));
            string_of_int (by_verdict `Sat);
            string_of_int (by_verdict `Unsat);
          ]
        in
        let strict = Sym_exec.explore ~config program Consistency.Strict in
        let local = Sym_exec.explore ~config program (Consistency.Local { thread = 1 }) in
        [ describe "strict" strict; describe "local(t1)" local ])
      subjects
  in
  Tabular.print
    ~title:
      "strict (system-level) vs local (unit-level, havoced globals); UNSAT paths under \
       local = over-approximation artifacts"
    [
      col "program"; col "consistency"; rcol "paths"; rcol "steps"; rcol "paths/kstep";
      rcol "feasible"; rcol "overapprox";
    ]
    rows

(* ==================================================================== *)
(* E9 — §3.1: privacy (anonymization) vs diagnostic utility.            *)
(* ==================================================================== *)

let e9 () =
  heading "E9: trace anonymization vs hive diagnosis quality (paper §3.1)";
  let rng = Rng.create 13 in
  let n = 400 in
  (* Two subjects: file-copy discloses syscall values (its bug needs a
     fault, so its auto-fix is a suppression regardless of level);
     parser's bug is input-triggered, so the guard fix is derivable as
     long as control flow survives the scrubbing. *)
  let subjects =
    [
      ( "file-copy",
        Corpus.file_copy,
        fun i ->
          let inputs = Array.init 2 (fun _ -> Rng.int_in rng 0 40) in
          run_once ~fault_plan:(Env.Random_faults 0.15) ~seed:i Corpus.file_copy inputs );
      ( "parser",
        Corpus.parser,
        fun i ->
          let inputs =
            if i mod 20 = 0 then Array.copy Corpus.parser_trigger
            else Array.init 3 (fun _ -> Rng.int_in rng 0 191)
          in
          run_once ~seed:i Corpus.parser inputs );
    ]
  in
  let rows =
    List.concat_map
      (fun (name, program, make_run) ->
        let traces =
          List.init n (fun i ->
              Trace.of_result ~program_digest:(Ir.digest program) ~pod:1 ~fix_epoch:0
                (make_run i))
        in
        List.map
          (fun level ->
            let k = Knowledge.create program in
            let residual = Stats.Online.create () in
            List.iter
              (fun trace ->
                let scrubbed = Anonymize.apply level trace in
                Stats.Online.add residual (Anonymize.residual_bits scrubbed);
                ignore (Knowledge.ingest_trace k scrubbed))
              traces;
            let fixes = Knowledge.analyze k in
            let fix_quality =
              if
                List.exists
                  (fun f -> match f.Fixgen.kind with Fixgen.Input_guard _ -> true | _ -> false)
                  fixes
              then "guard"
              else if
                List.exists
                  (fun f ->
                    match f.Fixgen.kind with Fixgen.Crash_suppression _ -> true | _ -> false)
                  fixes
              then "suppress"
              else "none"
            in
            [
              name;
              Anonymize.level_name level;
              fmt_f ~decimals:0 (Stats.Online.mean residual);
              string_of_int (Exec_tree.n_distinct_paths (Knowledge.tree k));
              string_of_int (Knowledge.replay_errors k);
              string_of_int (List.length (Knowledge.crash_evidence k));
              fix_quality;
            ])
          Anonymize.all_levels)
      subjects
  in
  Tabular.print
    ~title:
      (Printf.sprintf "%d traces per program ingested at each anonymization level" n)
    [
      col "program"; col "level"; rcol "bits/trace"; rcol "tree paths"; rcol "replay errs";
      rcol "buckets"; col "fix derivable";
    ]
    rows

(* ==================================================================== *)
(* E10 — §4: portfolio-theoretic allocation of hive nodes.              *)
(* ==================================================================== *)

let e10 () =
  heading "E10: hive-node allocation over subtrees (Markowitz, paper §4)";
  (* Subtree exploration has diminishing, depleting returns: a subtree
     holds a finite pool of undiscovered paths, each node assigned to
     it finds a yet-unseen path with some probability, and discoveries
     shrink the pool.  Some subtrees are also bursty: their paths sit
     behind rare branch conditions, so per-node success is noisy.
     Going all-in on the current best estimate both saturates that
     subtree and risks the estimate being wrong — the reason the paper
     reaches for portfolio diversification. *)
  let capacity = [| 300.0; 280.0; 220.0; 200.0; 150.0; 120.0; 60.0; 40.0 |] in
  let hit_prob = [| 0.30; 0.28; 0.22; 0.20; 0.15; 0.35; 0.25; 0.20 |] in
  (* Probability that a subtree's burst state flips each round.  Burst
     phases persist: a subtree whose paths hide behind a rare branch
     condition can stay dark for many rounds, then open up. *)
  let flip_prob = 0.12 in
  let n_tasks = Array.length capacity in
  let nodes = 16 in
  let rounds = 80 in
  let repetitions = 15 in
  let policies =
    [ Allocate.Uniform; Allocate.Greedy; Allocate.Mean_variance { risk_aversion = 0.5 } ]
  in
  let simulate_policy policy seed =
    let rng = Rng.create seed in
    let tasks = List.init n_tasks Allocate.task in
    let remaining = Array.copy capacity in
    let blocked = Array.init n_tasks (fun i -> i mod 2 = 0) in
    let total = ref 0.0 in
    for _ = 1 to rounds do
      Array.iteri
        (fun i b -> if Rng.bernoulli rng flip_prob then blocked.(i) <- not b)
        blocked;
      let allocation = Allocate.allocate policy ~nodes tasks in
      List.iter
        (fun (task_id, n) ->
          let task = List.nth tasks task_id in
          for _ = 1 to n do
            let depletion = remaining.(task_id) /. capacity.(task_id) in
            let p = if blocked.(task_id) then 0.0 else hit_prob.(task_id) *. depletion in
            let found = if Rng.bernoulli rng p then 1.0 else 0.0 in
            remaining.(task_id) <- Float.max 0.0 (remaining.(task_id) -. found);
            total := !total +. found;
            Allocate.observe_reward task found
          done)
        allocation
    done;
    !total
  in
  let rows =
    List.map
      (fun policy ->
        let totals = List.init repetitions (fun rep -> simulate_policy policy (100 + rep)) in
        let s = Stats.summarize totals in
        [
          Allocate.policy_name policy;
          fmt_f ~decimals:0 s.Stats.mean;
          fmt_f ~decimals:0 s.Stats.min;
          fmt_f ~decimals:0 s.Stats.stddev;
        ])
      policies
  in
  Tabular.print
    ~title:
      (Printf.sprintf
         "%d hive nodes, %d depleting subtrees with persistent dark phases, %d rounds x %d \
          repetitions (reward = newly discovered paths; min/stddev = risk)"
         nodes n_tasks rounds repetitions)
    [ col "policy"; rcol "mean found"; rcol "worst run"; rcol "stddev" ]
    rows;
  (* The real thing: a coordinator dynamically partitions an actual
     execution tree's frontier across worker nodes over the simulated
     network, and closure time scales with the worker pool. *)
  let module Coop = Softborg_hive.Coop_symexec in
  let module Sim = Softborg_net.Sim in
  let module Transport = Softborg_net.Transport in
  let program, _ =
    Generator.generate (Rng.create 5)
      { Generator.default_params with Generator.block_depth = 3; stmts_per_block = 5; bugs = [] }
  in
  let rows =
    List.map
      (fun n_workers ->
        let sim = Sim.create () in
        let rng = Rng.create 19 in
        (* Seed the tree with a couple of natural executions; the rest
           of the frontier is the pool's job. *)
        let tree = Exec_tree.create () in
        for i = 1 to 2 do
          let inputs = Array.init program.Ir.n_inputs (fun _ -> Rng.int_in rng 0 40) in
          let r = run_once ~seed:i program inputs in
          ignore (Exec_tree.add_path tree r.Interp.full_path r.Interp.outcome)
        done;
        let initial_gaps = Exec_tree.frontier_size tree in
        let workers =
          List.init n_workers (fun _ ->
              let coord_end, worker_end =
                Transport.endpoint_pair ~sim ~rng:(Rng.create (Rng.int rng 10_000)) ()
              in
              ignore (Coop.Worker.create ~program ~endpoint:worker_end ());
              coord_end)
        in
        let coordinator = Coop.Coordinator.create ~sim ~program ~tree ~workers () in
        Coop.Coordinator.start coordinator;
        (* Run until every branch direction is decided (covered or
           proven infeasible) or a generous horizon passes. *)
        let horizon = 2000.0 in
        let rec drive () =
          if Sim.now sim >= horizon || Coop.Coordinator.done_ coordinator then Sim.now sim
          else begin
            Sim.run ~until:(Sim.now sim +. 5.0) sim;
            drive ()
          end
        in
        let elapsed = Float.max 1.0 (drive ()) in
        let p = Coop.Coordinator.progress coordinator in
        (n_workers, initial_gaps, p.Coop.Coordinator.gaps_resolved, elapsed))
      [ 1; 2; 4; 8 ]
  in
  let base_time = match rows with (_, _, _, t) :: _ -> t | [] -> 1.0 in
  Tabular.print
    ~title:
      "cooperative symbolic execution: deciding every branch direction of a generated \
       loop-heavy program with a worker pool over the network"
    [ rcol "workers"; rcol "initial gaps"; rcol "directions decided"; rcol "time (s)"; rcol "speedup" ]
    (List.map
       (fun (n_workers, initial_gaps, resolved, elapsed) ->
         [
           string_of_int n_workers;
           string_of_int initial_gaps;
           string_of_int resolved;
           fmt_f ~decimals:0 elapsed;
           Tabular.fmt_ratio (base_time /. elapsed);
         ])
       rows)

(* ==================================================================== *)
(* E11 — §3.3: cumulative proofs from natural executions + symbolic     *)
(* closure; invalidation on fix deployment.                             *)
(* ==================================================================== *)

let e11 () =
  heading "E11: cumulative proofs (paper §3.3)";
  let rng = Rng.create 23 in
  let proof_row name (program : Ir.t) ~executions =
    let k = Knowledge.create program in
    for i = 1 to executions do
      let inputs = Array.init program.Ir.n_inputs (fun _ -> Rng.int_in rng (-64) 255) in
      let r = run_once ~seed:i program inputs in
      let trace = Trace.of_result ~program_digest:(Knowledge.digest k) ~pod:1 ~fix_epoch:0 r in
      ignore (Knowledge.ingest_trace k trace)
    done;
    let before = Exec_tree.completeness (Knowledge.tree k) in
    let closed = Prover.close_gaps program (Knowledge.tree k) in
    let after = Exec_tree.completeness (Knowledge.tree k) in
    let crash_observations =
      List.fold_left
        (fun acc (e : Fixgen.crash_evidence) -> acc + e.Fixgen.count)
        0 (Knowledge.crash_evidence k)
    in
    let proof =
      Prover.attempt_assert_safety ~program ~tree:(Knowledge.tree k) ~crash_observations
        ~epoch:(Knowledge.epoch k) ()
    in
    let strength =
      match proof with
      | Some p -> Prover.strength_name p.Prover.strength
      | None -> "none (bug observed)"
    in
    [
      name;
      string_of_int executions;
      string_of_int (Exec_tree.n_distinct_paths (Knowledge.tree k));
      Tabular.fmt_pct before;
      string_of_int closed;
      Tabular.fmt_pct after;
      strength;
    ]
  in
  Tabular.print ~title:"assert-safety: execution evidence + symbolic closure of the tree"
    [
      col "program"; rcol "execs"; rcol "paths"; rcol "complete"; rcol "closed"; rcol "after";
      col "proof";
    ]
    [
      proof_row "fig2-write" Corpus.fig2_write ~executions:400;
      proof_row "parser" Corpus.parser ~executions:400;
      proof_row "file-copy" Corpus.file_copy ~executions:400;
    ];
  let k = Knowledge.create Corpus.fig2_write in
  for i = 1 to 50 do
    let r = run_once ~seed:i Corpus.fig2_write [| Rng.int_in rng (-64) 255 |] in
    ignore
      (Knowledge.ingest_trace k
         (Trace.of_result ~program_digest:(Knowledge.digest k) ~pod:1 ~fix_epoch:0 r))
  done;
  (match
     Prover.attempt_assert_safety ~program:Corpus.fig2_write ~tree:(Knowledge.tree k)
       ~crash_observations:0 ~epoch:(Knowledge.epoch k) ()
   with
  | Some proof -> Knowledge.record_proof k proof
  | None -> ());
  let valid_before = List.length (Knowledge.valid_proofs k) in
  ignore
    (Knowledge.add_fix k
       (Fixgen.Crash_suppression
          {
            bucket = "synthetic";
            site = { Ir.thread = 0; pc = 0 };
            crash_kind = Outcome.Assertion_failure;
          }));
  let valid_after = List.length (Knowledge.valid_proofs k) in
  Printf.printf
    "proof invalidation on fix deployment: %d valid proof(s) before the epoch bump, %d after\n"
    valid_before valid_after

(* ==================================================================== *)
(* Micro-benchmarks (Bechamel): the platform's hot paths.               *)
(* ==================================================================== *)

let micro () =
  heading "micro: hot-path benchmarks (Bechamel, ns/run via OLS)";
  let open Bechamel in
  let open Toolkit in
  let parser_run = run_once Corpus.parser [| 7; 13; 4 |] in
  let parser_trace =
    Trace.of_result ~program_digest:(Ir.digest Corpus.parser) ~pod:1 ~fix_epoch:0 parser_run
  in
  let encoded = Wire.encode parser_trace in
  let path = parser_run.Interp.full_path in
  let sat_instance = random_3sat (Rng.create 9) ~n_vars:20 ~n_clauses:80 in
  let tests =
    [
      Test.make ~name:"interp-run-fig2"
        (Staged.stage (fun () ->
             ignore
               (Interp.run ~program:Corpus.fig2_write
                  ~env:(Env.make ~seed:3 ~inputs:[| 42 |] ())
                  ~sched:Sched.Round_robin ())));
      Test.make ~name:"trace-wire-encode"
        (Staged.stage (fun () -> ignore (Wire.encode parser_trace)));
      Test.make ~name:"trace-wire-decode"
        (Staged.stage (fun () -> ignore (Wire.decode encoded)));
      Test.make ~name:"tree-add-path"
        (Staged.stage (fun () ->
             let tree = Exec_tree.create () in
             ignore (Exec_tree.add_path tree path Outcome.Success)));
      Test.make ~name:"dpll-3sat-20v"
        (Staged.stage (fun () -> ignore (Dpll.solve sat_instance)));
      Test.make ~name:"bitvec-push-256"
        (Staged.stage (fun () ->
             let v = Bitvec.create () in
             for i = 0 to 255 do
               Bitvec.push v (i land 1 = 0)
             done));
    ]
  in
  let grouped = Test.make_grouped ~name:"softborg" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> Float.nan
      in
      rows := [ name; fmt_f ~decimals:0 estimate; fmt_f ~decimals:2 (estimate /. 1000.0) ] :: !rows)
    results;
  Tabular.print ~title:"hot paths"
    [ col "benchmark"; rcol "ns/run"; rcol "us/run" ]
    (List.sort compare !rows)

(* ==================================================================== *)
(* micro-ingest: the fleet-scale ingestion hot paths — tree merging,    *)
(* the per-tick change-detection query (incremental vs recompute        *)
(* oracle), store admission, and the wire round-trip.  Emits machine-   *)
(* readable results to BENCH_ingest.json for the perf trajectory.       *)
(* ==================================================================== *)

(* Skewed synthetic workload: one branch site per depth with a biased
   direction, so prefixes share heavily — the popularity skew of a real
   user population. *)
let synthetic_path rng =
  let len = Rng.int_in rng 12 24 in
  List.init len (fun d -> ({ Ir.thread = 0; pc = d }, Rng.bernoulli rng 0.8))

let synthetic_tree ~paths =
  let rng = Rng.create 42 in
  let tree = Exec_tree.create () in
  for _ = 1 to paths do
    ignore (Exec_tree.add_path tree (synthetic_path rng) Outcome.Success)
  done;
  tree

let synthetic_trace rng =
  let bits = Bitvec.create () in
  let n = Rng.int_in rng 8 48 in
  for _ = 1 to n do
    Bitvec.push bits (Rng.bool rng)
  done;
  {
    Trace.trace_id = Ids.Trace_id.fresh ();
    program_digest = "bench-ingest";
    pod = Rng.int_in rng 0 1000;
    bits;
    n_decisions = n;
    schedule = [];
    syscalls = [];
    outcome = Outcome.Success;
    steps = n * 3;
    fix_epoch = 0;
    attribution = None;
  }

(* Run one Bechamel batch and return (name, ns/run) pairs. *)
let ns_per_run ~quota ~limit tests =
  let open Bechamel in
  let open Toolkit in
  let grouped = Test.make_grouped ~name:"ingest" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      let estimate =
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> Float.nan
      in
      (name, estimate) :: acc)
    results []

let micro_ingest ?(smoke = false) () =
  heading
    (if smoke then "micro-ingest (smoke: tiny iteration counts, no JSON)"
     else "micro-ingest: single-pass ingestion & O(1) tree analytics");
  let sizes = if smoke then [ 1_000 ] else [ 10_000; 100_000 ] in
  let quota = if smoke then 0.02 else 0.75 in
  let limit = if smoke then 10 else 300 in
  let label n = if n >= 1000 then Printf.sprintf "%dk" (n / 1000) else string_of_int n in
  let all_results = ref [] in
  List.iter
    (fun n ->
      let s = label n in
      let tree = synthetic_tree ~paths:n in
      (* Sanity oracle checks at this scale — this is what makes the
         bench-smoke alias catch aggregate bit-rot, not just compile
         errors. *)
      assert (Exec_tree.frontier_size tree = List.length (Exec_tree.frontier_recompute tree));
      assert (Exec_tree.n_edges tree = Exec_tree.n_edges_recompute tree);
      assert (Exec_tree.is_complete tree = Exec_tree.is_complete_recompute tree);
      (* The tree was merged without one frontier read, so its first
         read re-keys almost every open gap in the index.  Pay that
         here: the frontier rows time steady-state reads, as a hive's
         tick does when it reads after one tick's worth of merges. *)
      ignore (Exec_tree.frontier_top tree 1);
      let store = Trace_store.create () in
      let preload_rng = Rng.create 77 in
      for _ = 1 to n do
        ignore (Trace_store.admit store (synthetic_trace preload_rng))
      done;
      let pool =
        let rng = Rng.create 1234 in
        Array.init 1024 (fun _ -> synthetic_trace rng)
      in
      let pool_i = ref 0 in
      let add_tree = synthetic_tree ~paths:(min n 1_000) in
      let add_rng = Rng.create 5 in
      let plan_memo = Gap_memo.create () in
      Exec_tree.iter_open_dirs tree (fun site missing ->
          Gap_memo.add plan_memo ~site ~direction:missing `Unknown);
      (* What a hive's issued set holds after an [Unknown] verdict:
         every open direction. *)
      let issued = Hashtbl.create 64 in
      Exec_tree.iter_open_dirs tree (fun site missing -> Hashtbl.replace issued (site, missing) ());
      let rekey_tree = synthetic_tree ~paths:n in
      let recorded =
        let rng = Rng.create 99 in
        List.init 256 (fun _ -> synthetic_path rng)
      in
      let open Bechamel in
      let tests =
        [
          Test.make
            ~name:(Printf.sprintf "tick-query-incr-%s" s)
            (Staged.stage (fun () ->
                 ignore (Exec_tree.frontier_size tree);
                 ignore (Exec_tree.completeness tree)));
          Test.make
            ~name:(Printf.sprintf "tick-query-oracle-%s" s)
            (Staged.stage (fun () ->
                 ignore (List.length (Exec_tree.frontier_recompute tree));
                 ignore (Exec_tree.completeness_recompute tree)));
          Test.make
            ~name:(Printf.sprintf "frontier-list-%s" s)
            (Staged.stage (fun () -> ignore (Exec_tree.frontier tree)));
          Test.make
            ~name:(Printf.sprintf "frontier-top8-%s" s)
            (Staged.stage (fun () -> ignore (Exec_tree.frontier_top tree 8)));
          Test.make
            ~name:(Printf.sprintf "plan-tick-%s" s)
            (Staged.stage (fun () ->
                 (* Memo pre-filled Unknown for every open direction, so
                    this measures the planning walk itself — lazy index
                    reads, exclusion checks, memo lookups — with the
                    symbolic solver out of the picture. *)
                 ignore (Guidance.plan ~memo:plan_memo Corpus.parser tree)));
          Test.make
            ~name:(Printf.sprintf "plan-excluded-%s" s)
            (Staged.stage (fun () ->
                 (* Every open direction excluded: the walk over the
                    whole index, each gap skipped on its key. *)
                 ignore (Guidance.plan ~exclude:issued ~memo:plan_memo Corpus.parser tree)));
          Test.make
            ~name:(Printf.sprintf "rekey-%s" s)
            (Staged.stage (fun () ->
                 (* One tick's worth of merges bumps the hit counts
                    along 256 paths; the next read re-keys each touched
                    node's open gaps once. *)
                 List.iter
                   (fun path -> ignore (Exec_tree.add_path rekey_tree path Outcome.Success))
                   recorded;
                 ignore (Exec_tree.frontier_top rekey_tree 8)));
          Test.make
            ~name:(Printf.sprintf "add-path-%s" s)
            (Staged.stage (fun () ->
                 ignore (Exec_tree.add_path add_tree (synthetic_path add_rng) Outcome.Success)));
          Test.make
            ~name:(Printf.sprintf "store-admit-%s" s)
            (Staged.stage (fun () ->
                 incr pool_i;
                 ignore (Trace_store.admit store pool.(!pool_i land 1023))));
        ]
      in
      all_results := !all_results @ ns_per_run ~quota ~limit tests)
    sizes;
  (* Wire round-trip (size-independent). *)
  let parser_run = run_once Corpus.parser [| 7; 13; 4 |] in
  let parser_trace =
    Trace.of_result ~program_digest:(Ir.digest Corpus.parser) ~pod:1 ~fix_epoch:0 parser_run
  in
  let encoded = Wire.encode parser_trace in
  let open Bechamel in
  all_results :=
    !all_results
    @ ns_per_run ~quota ~limit
        [
          Test.make ~name:"wire-encode"
            (Staged.stage (fun () -> ignore (Wire.encode parser_trace)));
          Test.make ~name:"wire-decode"
            (Staged.stage (fun () -> ignore (Wire.decode encoded)));
          Test.make ~name:"wire-roundtrip"
            (Staged.stage (fun () ->
                 ignore (Wire.decode (Wire.encode parser_trace))));
        ];
  let results = List.sort compare !all_results in
  Tabular.print ~title:"ingestion hot paths"
    [ col "benchmark"; rcol "ns/run"; rcol "us/run" ]
    (List.map
       (fun (name, ns) ->
         [ name; fmt_f ~decimals:0 ns; fmt_f ~decimals:2 (ns /. 1000.0) ])
       results);
  let find suffix =
    List.find_opt
      (fun (name, _) ->
        let ls = String.length suffix and ln = String.length name in
        ln >= ls && String.sub name (ln - ls) ls = suffix)
      results
  in
  let big = label (List.fold_left max 0 sizes) in
  let speedup =
    match (find ("tick-query-oracle-" ^ big), find ("tick-query-incr-" ^ big)) with
    | Some (_, oracle), Some (_, incr)
      when incr > 0.0 && Float.is_finite oracle && Float.is_finite incr ->
      Some (oracle, incr, oracle /. incr)
    | _ -> None
  in
  (match speedup with
  | Some (oracle, incr, sp) ->
    Printf.printf
      "tick-query speedup at %s executions: %.0fx (oracle %.0f ns vs incremental %.0f ns)\n" big
      sp oracle incr
  | None -> Printf.printf "tick-query speedup at %s: estimate unavailable\n" big);
  let frontier_speedup =
    match (find ("frontier-list-" ^ big), find ("frontier-top8-" ^ big)) with
    | Some (_, full), Some (_, top)
      when top > 0.0 && Float.is_finite full && Float.is_finite top ->
      Some (full, top, full /. top)
    | _ -> None
  in
  (match frontier_speedup with
  | Some (full, top, sp) ->
    Printf.printf
      "frontier-top8 speedup at %s executions: %.0fx (full list %.0f ns vs top-8 %.0f ns)\n" big
      sp full top
  | None -> Printf.printf "frontier-top8 speedup at %s: estimate unavailable\n" big);
  if not smoke then begin
    let oc = open_out "BENCH_ingest.json" in
    Printf.fprintf oc "{\n  \"suite\": \"micro-ingest\",\n  \"cores\": %d,\n"
      (Domain.recommended_domain_count ());
    (match speedup with
    | Some (oracle, incr, sp) ->
      Printf.fprintf oc
        "  \"tick_query\": { \"at\": %S, \"oracle_ns\": %.1f, \"incremental_ns\": %.1f, \"speedup\": %.1f },\n"
        big oracle incr sp
    | None -> ());
    (match frontier_speedup with
    | Some (full, top, sp) ->
      Printf.fprintf oc
        "  \"frontier_top8\": { \"at\": %S, \"full_list_ns\": %.1f, \"top8_ns\": %.1f, \"speedup\": %.1f },\n"
        big full top sp
    | None -> ());
    Printf.fprintf oc "  \"results\": [\n";
    let last = List.length results - 1 in
    List.iteri
      (fun i (name, ns) ->
        Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %.1f }%s\n" name
          (if Float.is_finite ns then ns else 0.0)
          (if i = last then "" else ","))
      results;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote BENCH_ingest.json\n"
  end

(* ==================================================================== *)
(* micro-solver: wall-clock of the preemptive sliced race against the   *)
(* whole-budget baseline, verdict-cache hit vs miss on a feasibility    *)
(* query, and gap-verdict derivation at the hive's symexec config.     *)
(* Emits BENCH_solver.json.                                             *)
(* ==================================================================== *)

let micro_solver ?(smoke = false) () =
  heading
    (if smoke then "micro-solver (smoke: tiny iteration counts, no JSON)"
     else "micro-solver: preemptive racing & verdict cache");
  let quota = if smoke then 0.02 else 0.75 in
  let limit = if smoke then 4 else 100 in
  let budget = if smoke then 100_000 else 500_000 in
  let rng = Rng.create 2024 in
  (* E3's phase-mix shape: near the phase transition all three members
     run long before one decides, so the race still pays for many loser
     slices.  Of E3's families it has the smallest preemption gain. *)
  let instances =
    if smoke then [ random_3sat rng ~n_vars:40 ~n_clauses:170 ]
    else List.init 3 (fun _ -> random_3sat rng ~n_vars:60 ~n_clauses:255)
  in
  let members () = Portfolio.standard_three ~budget ~seed:5 in
  (* Verdict-cache oracle: a hit answers identically and instantly. *)
  let module Pc_solve = Softborg_solver.Pc_solve in
  let module Verdict_cache = Softborg_solver.Verdict_cache in
  let module Path_cond = Softborg_solver.Path_cond in
  let feas_cond =
    [
      Path_cond.atom
        (Ir.Binop (Ir.Eq, Ir.Binop (Ir.Mod, Ir.Input 0, Ir.Const 64), Ir.Const 13))
        true;
      Path_cond.atom (Ir.Binop (Ir.Lt, Ir.Input 1, Ir.Input 0)) true;
    ]
  in
  let domain = (-64, 255) in
  let warm = Verdict_cache.create () in
  let miss_outcome = Pc_solve.solve ~cache:warm ~domain ~n_inputs:2 feas_cond in
  let hit_outcome = Pc_solve.solve ~cache:warm ~domain ~n_inputs:2 feas_cond in
  assert (miss_outcome.Softborg_solver.Interval.verdict = hit_outcome.Softborg_solver.Interval.verdict);
  assert (hit_outcome.Softborg_solver.Interval.steps = 0);
  (* Gap verdicts as the hive derives them: both directions of every
     branch site at [Hive.default_config]'s symexec config, with a fresh
     verdict cache per program per run (as a new knowledge has), so the
     row times derivation rather than cache lookups.  The full suite
     runs the [analysis] benchmark population, the smoke the corpus. *)
  let gap_config = (Hive.default_config Hive.Full).Hive.symexec_config in
  let gap_programs =
    if smoke then List.map snd Corpus.all
    else
      let _, population =
        Scenario.buggy_population ~seed:42 ~n_programs:8
          ~bugs:
            [ Generator.Rare_assert; Generator.Unchecked_syscall; Generator.Div_by_zero;
              Generator.Deadlock_pair ]
          ()
      in
      List.map fst population
  in
  let gap_directions =
    List.map
      (fun program ->
        ( program,
          List.concat_map (fun site -> [ (site, true); (site, false) ]) (Ir.branch_sites program) ))
      gap_programs
  in
  let derive_gap_verdicts () =
    List.iter
      (fun (program, directions) ->
        let cache = Verdict_cache.create () in
        List.iter
          (fun (site, direction) ->
            ignore
              (Softborg_symexec.Testgen.for_direction ~config:gap_config ~cache program ~site
                 ~direction))
          directions)
      gap_directions
  in
  Printf.printf "gap-verdicts: %d directions over %d programs\n"
    (List.fold_left (fun acc (_, directions) -> acc + List.length directions) 0 gap_directions)
    (List.length gap_programs);
  (* The hive's two whole-program explorations over the same programs
     and config: [Fixgen.propose] with one crash evidence per (site,
     kind) a fully solved exploration crashes at, then an assertion-
     safety attempt on a one-execution tree, with a fresh verdict cache
     per program per run. *)
  let proof_tree = Exec_tree.create () in
  ignore (Exec_tree.add_path proof_tree [] Outcome.Success);
  let fix_inputs =
    List.map
      (fun (program : Ir.t) ->
        let report = Sym_exec.explore ~config:gap_config program Consistency.Strict in
        let crashes =
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
                   bucket = Format.asprintf "%a:%s" Ir.pp_site site (Outcome.crash_kind_name crash_kind);
                   count = 1;
                 })
        in
        (program, crashes))
      gap_programs
  in
  let fix_and_proof () =
    List.iter
      (fun (program, crashes) ->
        ignore
          (Fixgen.propose ~symexec_config:gap_config ~program ~deadlock_patterns:[] ~crashes
             ~existing:[] ~next_epoch:1 ());
        ignore
          (Prover.attempt_assert_safety ~config:gap_config ~cache:(Verdict_cache.create ())
             ~program ~tree:proof_tree ~crash_observations:0 ~epoch:0 ()))
      fix_inputs
  in
  Printf.printf "fix-and-proof: %d crash evidences over %d programs\n"
    (List.fold_left (fun acc (_, crashes) -> acc + List.length crashes) 0 fix_inputs)
    (List.length fix_inputs);
  let open Bechamel in
  let results =
    ns_per_run ~quota ~limit
      [
        Test.make ~name:"race-whole-budget"
          (Staged.stage (fun () ->
               List.iter (fun f -> ignore (Portfolio.race_whole_budget (members ()) f)) instances));
        Test.make ~name:"race-sliced-seq"
          (Staged.stage (fun () ->
               List.iter (fun f -> ignore (Portfolio.race (members ()) f)) instances));
        Test.make ~name:"pc-solve-cache-miss"
          (Staged.stage (fun () ->
               ignore (Pc_solve.solve ~cache:(Verdict_cache.create ()) ~domain ~n_inputs:2 feas_cond)));
        Test.make ~name:"pc-solve-cache-hit"
          (Staged.stage (fun () ->
               ignore (Pc_solve.solve ~cache:warm ~domain ~n_inputs:2 feas_cond)));
      ]
  in
  (* One derivation takes a good part of a second, so these rows get
     their own quota. *)
  let gap_results =
    ns_per_run ~quota:(if smoke then 0.02 else 5.0) ~limit
      [
        Test.make ~name:"gap-verdicts" (Staged.stage derive_gap_verdicts);
        Test.make ~name:"fix-and-proof" (Staged.stage fix_and_proof);
      ]
  in
  let results = List.sort compare (results @ gap_results) in
  Tabular.print ~title:"solver racing wall-clock"
    [ col "benchmark"; rcol "ns/run"; rcol "us/run" ]
    (List.map
       (fun (name, ns) -> [ name; fmt_f ~decimals:0 ns; fmt_f ~decimals:2 (ns /. 1000.0) ])
       results);
  let find suffix =
    List.find_opt
      (fun (name, _) ->
        let ls = String.length suffix and ln = String.length name in
        ln >= ls && String.sub name (ln - ls) ls = suffix)
      results
  in
  let ratio a b =
    match (find a, find b) with
    | Some (_, x), Some (_, y) when y > 0.0 && Float.is_finite x && Float.is_finite y ->
      Some (x, y, x /. y)
    | _ -> None
  in
  let report label = function
    | Some (x, y, r) -> Printf.printf "%s: %.1fx (%.0f ns vs %.0f ns)\n" label r x y
    | None -> Printf.printf "%s: estimate unavailable\n" label
  in
  let preempt = ratio "race-whole-budget" "race-sliced-seq" in
  let cache = ratio "pc-solve-cache-miss" "pc-solve-cache-hit" in
  report "preemption wall-clock gain (whole-budget vs sliced)" preempt;
  report "verdict-cache hit vs miss" cache;
  if not smoke then begin
    let oc = open_out "BENCH_solver.json" in
    Printf.fprintf oc "{\n  \"suite\": \"micro-solver\",\n  \"cores\": %d,\n"
      (Domain.recommended_domain_count ());
    let field name = function
      | Some (x, y, r) ->
        Printf.fprintf oc
          "  \"%s\": { \"baseline_ns\": %.1f, \"new_ns\": %.1f, \"speedup\": %.2f },\n" name x
          y r
      | None -> ()
    in
    field "preemption" preempt;
    field "verdict_cache" cache;
    Printf.fprintf oc "  \"results\": [\n";
    let last = List.length results - 1 in
    List.iteri
      (fun i (name, ns) ->
        Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %.1f }%s\n" name
          (if Float.is_finite ns then ns else 0.0)
          (if i = last then "" else ","))
      results;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote BENCH_solver.json\n"
  end

(* ==================================================================== *)
(* E12 — §5 under faults: hive crashes, pod churn, degraded links.      *)
(* ==================================================================== *)

let e12 () =
  heading "E12: SoftBorg vs WER vs CBI under hive crashes, churn, and bad links";
  let configs =
    List.map
      (fun (name, config) ->
        let config = { config with Platform.duration = 1500.0; sample_interval = 300.0 } in
        (name, Scenario.with_chaos ~chaos_seed:99 config))
      (Scenario.three_way_comparison ~seed:17 ())
  in
  (match configs with
  | (_, { Platform.chaos = Some plan; _ }) :: _ ->
    Printf.printf "fault plan (%d events, identical across all three modes):\n"
      (Fault_plan.length plan);
    List.iter (fun e -> Format.printf "  %a@." Fault_plan.pp_event e) (Fault_plan.events plan)
  | _ -> ());
  let runs = List.map (fun (name, config) -> (name, Platform.run config)) configs in
  let windows = List.map (fun (name, r) -> (name, Metrics.windows r.Platform.snapshots)) runs in
  let n_windows = List.fold_left (fun acc (_, ws) -> min acc (List.length ws)) max_int windows in
  let rows =
    List.init n_windows (fun i ->
        let w0 = List.nth (snd (List.hd windows)) i in
        Printf.sprintf "%.0f-%.0f" w0.Metrics.t_start w0.Metrics.t_end
        :: List.map
             (fun (_, ws) -> fmt_f ~decimals:4 (List.nth ws i).Metrics.w_failure_rate)
             windows)
  in
  Tabular.print ~title:"user-visible failure rate per window (with faults)"
    (col "window" :: List.map (fun (n, _) -> rcol n) windows)
    rows;
  let rows =
    List.map
      (fun (name, r) ->
        let f = r.Platform.final in
        [
          name;
          string_of_int f.Metrics.sessions;
          string_of_int f.Metrics.user_failures;
          fmt_f ~decimals:5 (Metrics.failure_rate f);
          string_of_int f.Metrics.fixes_deployed;
          string_of_int f.Metrics.proofs_valid;
          string_of_int f.Metrics.checkpoints;
          string_of_int f.Metrics.restores;
        ])
      runs
  in
  Tabular.print ~title:"final totals"
    [
      col "platform"; rcol "sessions"; rcol "failures"; rcol "fail-rate"; rcol "fixes";
      rcol "proofs"; rcol "ckpts"; rcol "restores";
    ]
    rows;
  (* The headline: does the SoftBorg curve still out-decay the baselines
     when the hive keeps crashing?  Compare late-run failure rates. *)
  let late name =
    let ws = List.assoc name windows in
    let tail = List.filteri (fun i _ -> i >= List.length ws - 2) ws in
    List.fold_left (fun acc w -> acc +. w.Metrics.w_failure_rate) 0.0 tail
    /. float_of_int (max 1 (List.length tail))
  in
  let sb = late "softborg" and wer = late "wer" and cbi = late "cbi" in
  Printf.printf "late-run failure rate: softborg %.5f vs wer %.5f vs cbi %.5f — %s\n" sb wer cbi
    (if sb < wer && sb < cbi then "collective recycling wins through the faults"
     else "WARNING: chaos erased the collective advantage")

(* ==================================================================== *)
(* E13 — overload protection: graceful degradation under spikes.        *)
(* An arrival spike 5x the nominal fleet drives the hive's ingest       *)
(* queue into shedding.  Compares the three shed policies: the          *)
(* failure-preferring one must shed only success traces, so the bug     *)
(* haul survives the overload intact.                                   *)
(* ==================================================================== *)

let e13_config () =
  let config = Scenario.single_program ~seed:13 Corpus.parser in
  {
    config with
    Platform.n_pods = 4;
    duration = 240.0;
    sample_interval = 60.0;
    pod_config =
      {
        config.Platform.pod_config with
        Pod.arrival_rate = 1.0;
        workload = Workload.Uniform_inputs { lo = 0; hi = 40 };
      };
  }

let e13 () =
  heading "E13: overload protection — graceful degradation under spikes";
  let spiked policy =
    let overload =
      {
        Hive.default_overload_config with
        Hive.queue_bound = 24;
        service_interval = 0.25;
        shed_policy = policy;
      }
    in
    Platform.run
      (Scenario.overload_spike ~spike_pods:20 ~spike_start:60.0 ~spike_end:150.0
         (Scenario.with_overload ~overload (e13_config ())))
  in
  let rows =
    List.map
      (fun (name, policy) ->
        let r = spiked policy in
        let h = r.Platform.hive_stats in
        let f = r.Platform.final in
        [
          name;
          string_of_int h.Hive.shed_success;
          string_of_int h.Hive.shed_failure;
          string_of_int h.Hive.peak_queue_depth;
          string_of_int f.Metrics.thinned_uploads;
          string_of_int h.Hive.pressure_updates_sent;
          string_of_int
            (List.fold_left
               (fun acc k -> acc + Knowledge.failures_observed k)
               0 r.Platform.knowledge);
        ])
      [
        ("drop-newest", Hive.Drop_newest);
        ("drop-oldest", Hive.Drop_oldest);
        ("prefer-failures", Hive.Prefer_failures);
      ]
  in
  Tabular.print
    [
      col "shed policy"; rcol "shed ok"; rcol "shed fail"; rcol "peak q"; rcol "thinned";
      rcol "pressure msgs"; rcol "failures seen";
    ]
    rows;
  print_endline
    "Claim: failure-preferring shedding preserves the failure haul under overload\n\
     (shed fail = 0) while bounding the queue and thinning only success traffic."

(* ==================================================================== *)
(* micro-vm: bytecode VM vs tree-walk interpreter.  Cross-checks both  *)
(* engines on a generated population (every by-product byte-equal),    *)
(* measures executions/sec at population scale, the compile-cache hit  *)
(* rate, and the marginal minor-heap words per dispatched instruction  *)
(* (must be ~0: allocation in the hot loop would trigger cross-domain  *)
(* minor collections on OCaml 5).  Emits BENCH_vm.json.                *)
(* ==================================================================== *)

let micro_vm ?(smoke = false) () =
  heading
    (if smoke then "micro-vm (smoke: tiny population, no JSON)"
     else "micro-vm: bytecode VM vs tree-walk execution throughput");
  let n_programs = if smoke then 8 else 64 in
  let cocktails =
    [|
      [];
      [ Generator.Rare_assert; Generator.Div_by_zero ];
      [ Generator.Deadlock_pair ];
      [ Generator.Atomicity_race; Generator.Unchecked_syscall ];
    |]
  in
  let population =
    Array.init n_programs (fun i ->
        let params =
          {
            Generator.default_params with
            Generator.bugs = cocktails.(i mod Array.length cocktails);
            block_depth = 4;
            stmts_per_block = 8;
          }
        in
        fst (Generator.generate (Rng.create (1000 + i)) params))
  in
  (* Throughput workloads: input-bounded loops (tainted branches, so
     every iteration records a decision bit), modular arithmetic, and —
     on every other program — a second thread contending on a lock.
     Generated programs above average ~140 steps, which measures setup
     cost, not execution; these average ~2k steps per run, which is
     where dispatch dominates. *)
  let workload i =
    let open Build.Infix in
    let trip = 200 + (17 * i mod 250) in
    let main =
      [
        Build.assign (Build.lvar "i")
          ((Build.input 0 %: Build.const 64) +: Build.const trip);
        Build.assign (Build.lvar "acc") (Build.const 0);
        Build.while_
          (Build.local "i" >: Build.const 0)
          ([
             Build.assign (Build.lvar "acc")
               (Build.local "acc" +: (Build.local "i" *: Build.const (2 + (i mod 5))));
             Build.assign (Build.lvar "acc") (Build.local "acc" %: Build.const 997);
           ]
          @ (if i mod 3 = 0 then
               [
                 Build.lock 0;
                 Build.assign (Build.gvar "shared") (Build.glob "shared" +: Build.const 1);
                 Build.unlock 0;
               ]
             else [])
          @ [ Build.assign (Build.lvar "i") (Build.local "i" -: Build.const 1) ]);
        Build.halt;
      ]
    in
    let second =
      [
        Build.assign (Build.lvar "j") (Build.const (20 + (i mod 30)));
        Build.while_
          (Build.local "j" >: Build.const 0)
          [
            Build.lock 0;
            Build.assign (Build.gvar "shared") (Build.glob "shared" +: Build.const 2);
            Build.unlock 0;
            Build.assign (Build.lvar "j") (Build.local "j" -: Build.const 1);
          ];
        Build.halt;
      ]
    in
    Build.program
      ~name:(Printf.sprintf "vm-workload-%d" i)
      ~globals:[ "shared" ] ~n_inputs:1 ~n_locks:1
      (if i mod 2 = 0 then [ main; second ] else [ main ])
  in
  let workloads = Array.init n_programs workload in
  let max_steps = 8_000 in
  let env_for prog i =
    let inputs =
      Array.init prog.Ir.n_inputs (fun k -> (((i * 131) + (k * 17)) mod 601) - 100)
    in
    Env.make ~seed:i ~inputs ()
  in
  let run ?(max_steps = max_steps) ~engine ~cache ~sched prog i =
    Engine.run ~max_steps ~cache ~engine ~program:prog ~env:(env_for prog i) ~sched ()
  in
  (* Engine equivalence on both populations: both engines from
     identical (inputs, seed, schedule policy) must agree on every
     by-product.  This is what @vm-smoke contributes to `dune
     runtest`. *)
  let results_equal (a : Interp.result) (b : Interp.result) =
    a.Interp.outcome = b.Interp.outcome
    && Bitvec.equal a.Interp.bits b.Interp.bits
    && a.Interp.full_path = b.Interp.full_path
    && a.Interp.schedule = b.Interp.schedule
    && a.Interp.syscalls = b.Interp.syscalls
    && a.Interp.lock_events = b.Interp.lock_events
    && a.Interp.steps = b.Interp.steps
  in
  let check_cache = Bytecode.create_cache () in
  let checked = ref 0 in
  Array.iter
    (fun prog ->
      for rep = 0 to 2 do
        let i = (3 * !checked) + rep in
        let sched () = Sched.Random_sched (Rng.create (7 * i)) in
        let tree = run ~engine:Engine.Tree ~cache:check_cache ~sched:(sched ()) prog i in
        let vm = run ~engine:Engine.Vm ~cache:check_cache ~sched:(sched ()) prog i in
        assert (results_equal tree vm)
      done;
      incr checked)
    (Array.append population workloads);
  Printf.printf "engine equivalence: %d programs x 3 runs — tree = vm on every by-product\n"
    !checked;
  (* The bug-benchmark corpus rides the same equivalence check: every
     buggy/fixed pair, one natural run plus the instance's certified
     trigger recipe (inputs, fault plan, failing schedule). *)
  let corpus_checked = ref 0 in
  List.iter
    (fun (inst : Corpus_bench.instance) ->
      let check ~program ~inputs ~fault_plan ~sched_of =
        let go engine =
          Engine.run ~cache:check_cache ~engine ~program
            ~env:(Env.make ~fault_plan ~seed:13 ~inputs ())
            ~sched:(sched_of ()) ()
        in
        assert (results_equal (go Engine.Tree) (go Engine.Vm))
      in
      List.iter
        (fun program ->
          let inputs =
            Array.init program.Ir.n_inputs (fun k -> ((37 * !corpus_checked) + (k * 11)) mod 97)
          in
          check ~program ~inputs ~fault_plan:Env.No_faults ~sched_of:(fun () ->
              Sched.Random_sched (Rng.create (31 * !corpus_checked)));
          check ~program ~inputs:inst.Corpus_bench.trigger_inputs
            ~fault_plan:inst.Corpus_bench.fault_plan
            ~sched_of:(fun () ->
              match inst.Corpus_bench.schedule_hint with
              | Some hint -> Sched.Replay hint
              | None -> Sched.Round_robin);
          incr corpus_checked)
        [ inst.Corpus_bench.buggy; inst.Corpus_bench.fixed ])
    (Corpus_bench.corpus ~seeds:[ 1 ] ());
  Printf.printf
    "engine equivalence: %d corpus-bench programs x 2 runs (incl. trigger recipes) — tree = vm\n"
    !corpus_checked;
  (* Marginal allocation per dispatched instruction: two straight-line
     programs of different lengths, identical everywhere else, so the
     fixed per-run overhead (env, machine, result materialization)
     cancels in the difference.  Straight-line assignments carry no
     decisions, so the difference isolates the dispatch loop itself,
     which must allocate nothing (an allocating loop would trigger
     cross-domain stop-the-world minor collections on OCaml 5). *)
  let straightline_program n =
    let open Build.Infix in
    Build.program ~name:(Printf.sprintf "vm-straight-%d" n)
      [
        List.init n (fun k ->
            Build.assign (Build.lvar "acc") (Build.local "acc" +: Build.const (k mod 7)))
        @ [ Build.halt ];
      ]
  in
  let words_cache = Bytecode.create_cache () in
  let minor_words_for prog reps =
    let go () =
      Engine.run ~max_steps:100_000 ~cache:words_cache ~engine:Engine.Vm ~program:prog
        ~env:(Env.make ~seed:0 ~inputs:[||] ()) ~sched:Sched.Round_robin ()
    in
    ignore (go ());
    (* warm: compile + touch every code path once *)
    let w0 = Gc.minor_words () in
    let steps = ref 0 in
    for _ = 1 to reps do
      steps := !steps + (go ()).Interp.steps
    done;
    (Gc.minor_words () -. w0, !steps)
  in
  let reps = if smoke then 2 else 5 in
  let w_small, s_small = minor_words_for (straightline_program 1_000) reps in
  let w_big, s_big = minor_words_for (straightline_program 5_000) reps in
  let words_per_instr = (w_big -. w_small) /. float_of_int (s_big - s_small) in
  Printf.printf "vm dispatch allocation: %.4f minor words/instruction (over %d instrs)\n"
    words_per_instr (s_big - s_small);
  assert (Float.abs words_per_instr < 0.05);
  (* Throughput: rotate over a population under a deterministic
     scheduler, fresh compile cache per measurement so the hit rate is
     honest (misses = population size). *)
  let bench_engine ~engine ~programs ~max_steps total =
    let cache = Bytecode.create_cache () in
    let steps = ref 0 in
    let t0 = Unix.gettimeofday () in
    for i = 0 to total - 1 do
      steps :=
        !steps
        + (run ~max_steps ~engine ~cache ~sched:Sched.Round_robin programs.(i mod n_programs) i)
            .Interp.steps
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "  [%s] avg %.0f steps/execution\n" (Engine.to_string engine)
      (float_of_int !steps /. float_of_int total);
    let stats = Bytecode.cache_stats cache in
    let served = stats.Bytecode.hits + stats.Bytecode.fast_hits + stats.Bytecode.misses in
    let hit_rate =
      if served = 0 then 0.0
      else float_of_int (stats.Bytecode.hits + stats.Bytecode.fast_hits) /. float_of_int served
    in
    (float_of_int total /. dt, hit_rate)
  in
  (* Rows: the loop workloads at ~2k steps per run, where dispatch
     dominates, and the generator population at the pod's default step
     budget: runs of ~140 steps, the setup-bound shape a fleet actually
     executes (sessions average ~14 steps). *)
  let sizes = if smoke then [ 1_000 ] else [ 10_000; 100_000 ] in
  let largest = List.fold_left max 0 sizes in
  let configs =
    List.map (fun total -> ("loops", workloads, max_steps, total)) sizes
    @ [ ("generator", population, Pod.default_config.Pod.max_steps, largest) ]
  in
  let rows =
    List.map
      (fun (name, programs, max_steps, total) ->
        let tree_eps, _ = bench_engine ~engine:Engine.Tree ~programs ~max_steps total in
        let vm_eps, hit_rate = bench_engine ~engine:Engine.Vm ~programs ~max_steps total in
        let speedup = vm_eps /. tree_eps in
        Printf.printf
          "%-9s max_steps %6d, %7d executions: tree %10.0f execs/s | vm %10.0f execs/s | speedup %.2fx | cache hit-rate %.4f\n"
          name max_steps total tree_eps vm_eps speedup hit_rate;
        (name, max_steps, total, tree_eps, vm_eps, speedup, hit_rate))
      configs
  in
  List.iter
    (fun (name, _, total, _, _, speedup, _) ->
      if (not smoke) && name = "loops" && total = largest && speedup < 3.0 then
        Printf.printf "WARNING: vm speedup %.2fx at %d executions is below the 3x target\n" speedup
          total)
    rows;
  if not smoke then begin
    let oc = open_out "BENCH_vm.json" in
    Printf.fprintf oc "{\n  \"suite\": \"micro-vm\",\n";
    Printf.fprintf oc "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
    Printf.fprintf oc "  \"population\": %d,\n" n_programs;
    Printf.fprintf oc "  \"minor_words_per_instruction\": %.4f,\n" words_per_instr;
    Printf.fprintf oc "  \"results\": [\n";
    let last = List.length rows - 1 in
    List.iteri
      (fun i (name, max_steps, total, tree_eps, vm_eps, speedup, hit_rate) ->
        Printf.fprintf oc
          "    { \"workload\": \"%s\", \"max_steps\": %d, \"executions\": %d, \"tree_execs_per_sec\": %.0f, \"vm_execs_per_sec\": %.0f, \"speedup\": %.2f, \"cache_hit_rate\": %.4f }%s\n"
          name max_steps total tree_eps vm_eps speedup hit_rate
          (if i = last then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote BENCH_vm.json\n"
  end

(* Repair scoring over the versioned bug-benchmark corpus: per family,
   fix precision/recall against the known fixed version, executions to
   isolation, trigger aversion under the deployed hooks, and proof
   coverage of the fixed program's tree.  The yardstick (every instance
   localized, averted, at precision 1.0, coverage above 0.5) is
   asserted by test_corpus_bench's "localizes and averts every
   instance"; this suite records the scores. *)
let repair_suite () =
  heading "repair: corpus-bench repair scoring (writes BENCH_repair.json)";
  let seeds = Corpus_bench.default_seeds in
  let config = Repair_score.default_config in
  let t0 = Unix.gettimeofday () in
  let instances = Corpus_bench.corpus ~seeds () in
  Printf.printf
    "corpus: %d instances (%d families x %d seeds), every one reproduction-checked under both engines at construction (%.2fs)\n"
    (List.length instances)
    (List.length Corpus_bench.families)
    (List.length seeds)
    (Unix.gettimeofday () -. t0);
  let scores, families = Repair_score.score_corpus ~config instances in
  Printf.printf "%-26s %5s %4s %5s %5s %6s %6s %6s  %s\n" "instance" "fails" "tti" "fixes"
    "corr" "loc" "avert" "cover" "proposals";
  List.iter
    (fun (s : Repair_score.instance_score) ->
      Printf.printf "%-26s %5d %4s %5d %5d %6b %6b %6.3f  %s\n" s.Repair_score.name
        s.Repair_score.failures_seen
        (match s.Repair_score.time_to_isolation with None -> "-" | Some i -> string_of_int i)
        s.Repair_score.proposed s.Repair_score.correct s.Repair_score.localized
        s.Repair_score.averted s.Repair_score.proof_coverage
        (String.concat "," s.Repair_score.fix_kinds))
    scores;
  Printf.printf "%-18s %2s %9s %6s %8s %8s %6s %8s\n" "family" "n" "precision" "recall"
    "isolated" "mean-tti" "avert" "coverage";
  List.iter
    (fun (f : Repair_score.family_score) ->
      Printf.printf "%-18s %2d %9.2f %6.2f %8d %8.1f %6.2f %8.3f\n" f.Repair_score.family
        f.Repair_score.instances f.Repair_score.precision f.Repair_score.recall
        f.Repair_score.isolated f.Repair_score.mean_time_to_isolation
        f.Repair_score.averted_rate f.Repair_score.mean_proof_coverage)
    families;
  (* Fixgen false positives: fixes proposed on the fixed variants,
     driven through the identical traffic (trigger recipes included). *)
  Printf.printf "fixed-variant sweep: %d fixes proposed across %d instances\n"
    (List.length (List.concat_map (Repair_score.fixed_variant_fixes ~config) instances))
    (List.length instances);
  let oc = open_out "BENCH_repair.json" in
  Printf.fprintf oc "{\n  \"suite\": \"repair\",\n";
  Printf.fprintf oc "  \"seeds\": [%s],\n"
    (String.concat ", " (List.map string_of_int seeds));
  Printf.fprintf oc "  \"runs_per_instance\": %d,\n" config.Repair_score.runs;
  Printf.fprintf oc "  \"instances\": %d,\n" (List.length scores);
  Printf.fprintf oc "  \"families\": [\n";
  let last = List.length families - 1 in
  List.iteri
    (fun i (f : Repair_score.family_score) ->
      let threaded =
        match Corpus_bench.find_family f.Repair_score.family with
        | Some fam -> fam.Corpus_bench.threaded
        | None -> false
      in
      Printf.fprintf oc
        "    { \"family\": \"%s\", \"version\": %d, \"instances\": %d, \"concurrent\": %b, \
         \"fix_precision\": %.3f, \"fix_recall\": %.3f, \"isolated\": %d, \
         \"mean_time_to_isolation\": %.2f, \"averted_rate\": %.3f, \"proof_coverage\": %.3f }%s\n"
        f.Repair_score.family f.Repair_score.version f.Repair_score.instances threaded
        f.Repair_score.precision f.Repair_score.recall f.Repair_score.isolated
        f.Repair_score.mean_time_to_isolation f.Repair_score.averted_rate
        f.Repair_score.mean_proof_coverage
        (if i = last then "" else ","))
    families;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_repair.json\n"

(* ==================================================================== *)
(* fleet — fleet-scale ingestion: bytes/trace of batched delta frames   *)
(* against single frames, and a 10^5-pod sustained-load pressure sweep. *)
(* Writes BENCH_fleet.json.  test_fleet asserts the framing invariants  *)
(* (knowledge bytes identical for every framing, the >= 2x reduction).  *)
(* ==================================================================== *)

let fleet_suite () =
  heading "fleet: sustained-load ingestion at fleet scale (writes BENCH_fleet.json)";
  let prog = Corpus.checksum in
  let digest = Ir.digest prog in
  let trace_of ~pod inputs =
    let env = Env.make ~seed:7 ~inputs () in
    Trace.of_result ~program_digest:digest ~pod ~fix_epoch:0
      (Interp.run ~program:prog ~env ~sched:Sched.Round_robin ())
  in
  (* Checksum keeps a constant step count across inputs, so a fleet's
     traces share both the path prefix and the step counter — the shape
     delta records exist for. *)
  let fleet_traces n =
    let rng = Rng.create 23 in
    List.init n (fun i ->
        trace_of ~pod:(1 + (i mod 5))
          (Array.init prog.Ir.n_inputs (fun _ -> Rng.int rng 200)))
  in
  let single_frame t = Protocol.encode (Protocol.Trace_upload (Wire.encode t)) in
  let rec chunks size = function
    | [] -> []
    | xs ->
      List.filteri (fun i _ -> i < size) xs :: chunks size (List.filteri (fun i _ -> i >= size) xs)
  in
  (* The pods' frame shape: leading record full, the rest
     delta-encoded against it. *)
  let batch_frame chunk =
    let records =
      match chunk with
      | [] -> []
      | first :: rest -> Wire.encode_record first :: List.map (Wire.encode_record ~basis:first) rest
    in
    Protocol.encode
      (Protocol.Batch_upload { program_digest = digest; records })
  in
  let frame_bytes frames = List.fold_left (fun a f -> a + String.length f) 0 frames in
  (* ---- Wire reduction --------------------------------------------------- *)
  let wire_traces = fleet_traces 512 in
  let n_wire = List.length wire_traces in
  let full_per =
    float_of_int (frame_bytes (List.map single_frame wire_traces)) /. float_of_int n_wire
  in
  let batched_per =
    float_of_int (frame_bytes (List.map batch_frame (chunks 16 wire_traces)))
    /. float_of_int n_wire
  in
  let reduction = full_per /. batched_per in
  Printf.printf
    "bytes/trace over %d traces: singles %.1f | batch-16+delta %.1f | %.2fx reduction\n"
    n_wire full_per batched_per reduction;
  (* ---- Sustained-load pressure sweep, 10^5 pod slots -------------------- *)
  (* Arrival shape per target level: bursts sized so queue occupancy
     lands in the wanted pressure quartile (level = 4*queue/bound),
     spaced so the queue fully drains between bursts.  Level 3 bursts
     exceed the bound outright and must shed. *)
  let n_pods = 100_000 in
  let olc = Hive.default_overload_config in
  let service = olc.Hive.service_interval in
  let bound = olc.Hive.queue_bound in
  let payloads = Array.of_list (List.map single_frame (fleet_traces 64)) in
  let pressure_row target =
    let burst =
      match target with
      | 0 -> 1
      | 1 -> (bound / 4) + 2
      | 2 -> (bound / 2) + 2
      | _ -> 2 * bound
    in
    let spacing =
      Float.max (2.0 *. service)
        (1.5 *. float_of_int (min burst bound + 1) *. service)
    in
    let sim = Sim.create () in
    let hive =
      Hive.create ~config:{ (Hive.default_config Hive.Full) with Hive.overload = Some olc } ~sim ()
    in
    ignore (Hive.register_program hive prog);
    let peak = ref 0 in
    let sent = ref 0 in
    let next = ref 1.0 in
    while !sent < n_pods do
      let b = min burst (n_pods - !sent) in
      let t0 = !next in
      for j = 0 to b - 1 do
        let slot = !sent + j in
        let payload = payloads.(slot mod Array.length payloads) in
        Sim.schedule_at sim ~time:t0 (fun () -> Hive.inject hive ~slot payload)
      done;
      if burst > 1 then
        Sim.schedule_at sim
          ~time:(t0 +. (0.5 *. service))
          (fun () -> peak := max !peak (Hive.pressure_level hive));
      sent := !sent + b;
      next := t0 +. spacing
    done;
    let sim_end = !next in
    let wall_start = Unix.gettimeofday () in
    Sim.run sim;
    let wall = Unix.gettimeofday () -. wall_start in
    let s = Hive.stats hive in
    let shed = s.Hive.shed_success + s.Hive.shed_failure in
    let ingested = s.Hive.traces_received in
    assert (ingested + shed = n_pods);
    (match target with
    | 0 -> assert (shed = 0 && !peak = 0)
    | 1 | 2 -> assert (!peak = target)
    | _ -> assert (shed > 0 && !peak = 3));
    ( target,
      burst,
      float_of_int burst /. spacing,
      ingested,
      shed,
      float_of_int shed /. float_of_int n_pods,
      !peak,
      float_of_int ingested /. wall,
      sim_end )
  in
  let sweep = List.map pressure_row [ 0; 1; 2; 3 ] in
  Tabular.print
    ~title:(Printf.sprintf "sustained load, %d pod slots per row" n_pods)
    [ rcol "target"; rcol "burst"; rcol "arrivals/s"; rcol "ingested"; rcol "shed";
      rcol "shed-rate"; rcol "peak-pressure"; rcol "ingest-traces/s" ]
    (List.map
       (fun (target, burst, rate, ingested, shed, shed_rate, peak, tp, _) ->
         [
           string_of_int target;
           string_of_int burst;
           fmt_f ~decimals:1 rate;
           string_of_int ingested;
           string_of_int shed;
           fmt_f ~decimals:3 shed_rate;
           string_of_int peak;
           fmt_f ~decimals:0 tp;
         ])
       sweep);
  (* ---- BENCH_fleet.json --------------------------------------------- *)
  let out = open_out "BENCH_fleet.json" in
  Printf.fprintf out "{\n  \"suite\": \"fleet\",\n";
  Printf.fprintf out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf out "  \"simulated_pods\": %d,\n" n_pods;
  Printf.fprintf out "  \"bytes_per_trace_full\": %.2f,\n" full_per;
  Printf.fprintf out "  \"bytes_per_trace_batched_delta\": %.2f,\n" batched_per;
  Printf.fprintf out "  \"wire_reduction\": %.2f,\n" reduction;
  Printf.fprintf out "  \"results\": [\n";
  let last = List.length sweep - 1 in
  List.iteri
    (fun i (target, burst, rate, ingested, shed, shed_rate, peak, tp, sim_end) ->
      Printf.fprintf out
        "    { \"target_pressure\": %d, \"burst\": %d, \"arrivals_per_sec\": %.1f, \
         \"pods\": %d, \"ingested\": %d, \"shed\": %d, \"shed_rate\": %.3f, \
         \"peak_pressure\": %d, \"ingest_traces_per_sec\": %.0f, \
         \"sim_seconds\": %.0f, \"bytes_per_trace_full\": %.2f, \
         \"bytes_per_trace_batched_delta\": %.2f }%s\n"
        target burst rate n_pods ingested shed shed_rate peak tp sim_end full_per
        batched_per
        (if i = last then "" else ","))
    sweep;
  Printf.fprintf out "  ]\n}\n";
  close_out out;
  Printf.printf "wrote BENCH_fleet.json\n"

(* --------------------------------------------------------------------- *)
(* rollout — staged fix rollout vs naive instant-fleet deployment.  A    *)
(* sabotaged fix (an over-broad immunity set that livelocks benign       *)
(* schedules) is injected mid-run into Corpus.audit_ledger, whose        *)
(* natural failure rate is zero.  Deployed instantly fleet-wide it       *)
(* degrades every pod forever; staged through a canary cohort the hive's *)
(* health test retracts it, and only the cohort was ever exposed.  A     *)
(* second pair of runs shows the price of staging a GOOD fix.  Emits     *)
(* BENCH_rollout.json; test_rollout's "saboteur confined and retracted"  *)
(* asserts the acceptance bars on a shorter run of the same arms.        *)
(* --------------------------------------------------------------------- *)

let rollout_suite () =
  let module Fix_lifecycle = Softborg_hive.Fix_lifecycle in
  heading "rollout: staged canary rollout vs naive instant-fleet deployment";
  let duration = 900.0 in
  let sample_interval = 15.0 in
  (* 36 pods at a 12.5% canary fraction: every plausible fix id (the
     saboteur's 1_000_000+k as well as synthesized ids 1..4) lands a
     non-empty cohort well under the 30% exposure bar — the rendezvous
     hash is a pure function, so this is checkable up front. *)
  let n_pods = 36 in
  let inject_at = 120.0 in
  let staged_config =
    {
      Fix_lifecycle.default_config with
      Fix_lifecycle.canary_mils = 125;
      min_exposed = 4;
      min_control = 8;
      (* Hold unsampled canaries longer than the default: with a small
         cohort the verdict should come from evidence, not a timeout. *)
      max_hold_ticks = 6;
    }
  in
  let arm ?(rollout = false) ?(bad_fix = false) ?(shards = 1) program =
    let c = Scenario.single_program ~seed:9 program in
    let c = { c with Platform.duration; n_pods; sample_interval } in
    (* Halved arrival rate and a tighter step ceiling keep the naive
       arm affordable: a livelocked session burns its whole budget. *)
    let c =
      {
        c with
        Platform.pod_config =
          { c.Platform.pod_config with Pod.arrival_rate = 0.5; max_steps = 4_000 };
      }
    in
    let c = if rollout then Scenario.with_rollout ~rollout:staged_config c else c in
    let c = if bad_fix then Scenario.inject_bad_fix ~at:inject_at c else c in
    if shards > 1 then Scenario.with_shards shards c else c
  in
  let first_time pred report =
    List.find_opt pred report.Platform.snapshots |> Option.map (fun s -> s.Metrics.time)
  in
  let rate report = Metrics.failure_rate report.Platform.final in
  (* Injected fixes mint ids from 1_000_000 up; synthesized ones count
     from 1 — so the saboteur's fate is identifiable in the ledger. *)
  let injected_retracted report =
    List.concat_map
      (fun k -> List.filter (fun id -> id >= 1_000_000) (Knowledge.retracted_ids k))
      report.Platform.knowledge
  in
  (* ---- the saboteur over the benign lock-rich audit-ledger ---- *)
  let baseline = Platform.run (arm Corpus.audit_ledger) in
  let naive = Platform.run (arm ~bad_fix:true Corpus.audit_ledger) in
  let staged = Platform.run (arm ~rollout:true ~bad_fix:true Corpus.audit_ledger) in
  let bad_id =
    match injected_retracted staged with
    | [ id ] -> id
    | ids ->
      failwith (Printf.sprintf "rollout: expected one retracted saboteur, got %d" (List.length ids))
  in
  (* The pods that ran the saboteur while it was a canary.  The naive
     arm gets no such field: an instant rollout stages no canary, so
     the count reads 0 there. *)
  let exposed_pods = staged.Platform.final.Metrics.pods_exposed in
  let exposed_fraction = float_of_int exposed_pods /. float_of_int n_pods in
  let ttr =
    match first_time (fun s -> s.Metrics.fix_retractions > 0) staged with
    | Some t -> t -. inject_at
    | None -> failwith "rollout: staged run never retracted the saboteur"
  in
  let analysis_interval =
    (arm Corpus.audit_ledger).Platform.hive_config.Hive.analysis_interval
  in
  let retracted report = report.Platform.final.Metrics.fix_retractions > 0 in
  Printf.printf "baseline (no saboteur):      failure rate %.4f\n" (rate baseline);
  Printf.printf "naive instant-fleet:         failure rate %.4f, retractions %d\n"
    (rate naive) naive.Platform.final.Metrics.fix_retractions;
  Printf.printf
    "staged canary (%.1f%% cohort): failure rate %.4f, retracted fix %d in %.0fs, %d/%d pods exposed\n"
    (float_of_int staged_config.Fix_lifecycle.canary_mils /. 10.0)
    (rate staged) bad_id ttr exposed_pods n_pods;
  (* ---- the cost of staging a good fix: parser's synthesized guard ---- *)
  let instant = Platform.run (arm Corpus.parser) in
  let staged_good = Platform.run (arm ~rollout:true Corpus.parser) in
  let ttff_instant =
    match first_time (fun s -> s.Metrics.fixes_deployed > 0) instant with
    | Some t -> t
    | None -> failwith "rollout: instant run never deployed the parser fix"
  in
  let ttff_staged =
    match first_time (fun s -> s.Metrics.fix_promotions > 0) staged_good with
    | Some t -> t
    | None -> failwith "rollout: staged run never promoted the parser fix"
  in
  Printf.printf
    "good fix fleet-wide: instant %.0fs, staged %.0fs (promotion lag %.0fs, tick %.0fs)\n"
    ttff_instant ttff_staged (ttff_staged -. ttff_instant) analysis_interval;
  (* ---- determinism: the retraction outcome is a pure function of the
     evidence — same verdict, same ledger, same cohort for any shard
     count.  One shard is the staged run itself (same config). ---- *)
  let shard_runs =
    (1, staged)
    :: List.map
         (fun shards ->
           (shards, Platform.run (arm ~rollout:true ~bad_fix:true ~shards Corpus.audit_ledger)))
         [ 2; 4 ]
  in
  List.iter
    (fun (shards, r) ->
      Printf.printf "shards=%d: retracted=%s exposed=%d\n" shards
        (String.concat "," (List.map string_of_int (injected_retracted r)))
        r.Platform.final.Metrics.pods_exposed)
    shard_runs;
  (* Every shard republishes the coordinator's ledger, so dedupe
     before comparing against the single-hive verdict. *)
  let identical =
    List.for_all
      (fun (_, r) -> List.sort_uniq Int.compare (injected_retracted r) = [ bad_id ])
      shard_runs
  in
  let out = open_out "BENCH_rollout.json" in
  Printf.fprintf out "{\n";
  Printf.fprintf out "  \"config\": { \"n_pods\": %d, \"duration_s\": %.0f, \"inject_at_s\": %.0f, \"canary_mils\": %d },\n"
    n_pods duration inject_at staged_config.Fix_lifecycle.canary_mils;
  Printf.fprintf out "  \"bad_fix\": {\n";
  Printf.fprintf out "    \"baseline_failure_rate\": %.5f,\n" (rate baseline);
  Printf.fprintf out
    "    \"naive\": { \"final_failure_rate\": %.5f, \"retracted\": %b },\n"
    (rate naive) (retracted naive);
  Printf.fprintf out
    "    \"staged\": { \"final_failure_rate\": %.5f, \"retracted\": %b, \
     \"time_to_retraction_s\": %.0f, \"peak_exposed_fraction\": %.3f, \
     \"exposed_pods\": %d }\n"
    (rate staged) (retracted staged) ttr exposed_fraction exposed_pods;
  Printf.fprintf out "  },\n";
  Printf.fprintf out
    "  \"good_fix\": { \"ttff_instant_s\": %.0f, \"ttff_staged_s\": %.0f, \
     \"promotion_lag_s\": %.0f, \"analysis_interval_s\": %.0f },\n"
    ttff_instant ttff_staged (ttff_staged -. ttff_instant) analysis_interval;
  Printf.fprintf out "  \"determinism\": {\n";
  Printf.fprintf out "    \"shard_counts\": [%s],\n"
    (String.concat ", " (List.map (fun (s, _) -> string_of_int s) shard_runs));
  Printf.fprintf out "    \"retracted_ids_identical\": %b\n" identical;
  Printf.fprintf out "  }\n}\n";
  close_out out;
  Printf.printf "wrote BENCH_rollout.json\n"

let experiments =
  [
    ("e1", "reliability grows with use (Fig 1)", e1);
    ("e2", "collective execution trees (Figs 2-3)", e2);
    ("e3", "SAT portfolio 10x-at-3x claim", e3);
    ("e4", "execution guidance", e4);
    ("e5", "sampling vs isolation", e5);
    ("e6", "deadlock immunity", e6);
    ("e7", "SoftBorg vs WER vs CBI", e7);
    ("e8", "relaxed consistency", e8);
    ("e9", "privacy vs utility", e9);
    ("e10", "portfolio allocation", e10);
    ("e11", "cumulative proofs", e11);
    ("e12", "three-way comparison under faults (chaos harness)", e12);
    ("e13", "overload protection: graceful degradation under spikes", e13);
    ("micro", "hot-path micro-benchmarks", micro);
    ("micro-ingest", "ingestion/analytics benchmarks (writes BENCH_ingest.json)", fun () ->
      micro_ingest ());
    ("micro-ingest-smoke", "tiny micro-ingest run for @bench-smoke", fun () ->
      micro_ingest ~smoke:true ());
    ("micro-solver", "solver racing benchmarks (writes BENCH_solver.json)", fun () ->
      micro_solver ());
    ("micro-solver-smoke", "tiny micro-solver run for @bench-smoke", fun () ->
      micro_solver ~smoke:true ());
    ("micro-vm", "bytecode VM vs tree-walk throughput (writes BENCH_vm.json)", fun () ->
      micro_vm ());
    ("micro-vm-smoke", "tiny micro-vm run with engine-equivalence asserts for @vm-smoke",
      fun () -> micro_vm ~smoke:true ());
    ("repair", "corpus-bench repair scoring (writes BENCH_repair.json)", repair_suite);
    ("fleet", "fleet-scale ingestion: wire reduction, pressure sweep (writes BENCH_fleet.json)",
      fleet_suite);
    ("rollout", "staged canary rollout vs naive instant-fleet (writes BENCH_rollout.json)",
      rollout_suite);
  ]

let () =
  let selected =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map (fun (id, _, _) -> id) experiments
  in
  (* Resolve every name before running anything: a misspelled name
     exits 2, so a smoke rule naming it fails the build instead of
     passing silently. *)
  let find id = List.find_opt (fun (eid, _, _) -> eid = id) experiments in
  match List.filter (fun id -> find id = None) selected with
  | [] -> List.iter (fun id -> Option.iter (fun (_, _, f) -> f ()) (find id)) selected
  | unknown ->
    List.iter (Printf.eprintf "unknown experiment %s\n") unknown;
    exit 2
