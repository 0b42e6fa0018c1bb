(* The SoftBorg command-line interface.

   Subcommands map onto the platform's main capabilities:

     softborg run       — execute a corpus program once and dump its by-products
     softborg simulate  — run a whole-fleet platform simulation
     softborg explore   — symbolically enumerate a program's paths
     softborg schedules — systematically explore thread interleavings
     softborg immunize  — demonstrate deadlock immunity on a program
     softborg prove     — attempt cumulative proofs for a program
     softborg solve     — race the SAT portfolio on random instances
     softborg list      — list corpus programs *)

module Rng = Softborg_util.Rng
module Tabular = Softborg_util.Tabular
module Bitvec = Softborg_util.Bitvec
module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Generator = Softborg_prog.Generator
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Vm = Softborg_exec.Vm
module Outcome = Softborg_exec.Outcome
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Exec_tree = Softborg_tree.Exec_tree
module Fault_plan = Softborg_net.Fault_plan
module Cnf = Softborg_solver.Cnf
module Portfolio = Softborg_solver.Portfolio
module Sym_exec = Softborg_symexec.Sym_exec
module Consistency = Softborg_symexec.Consistency
module Immunity = Softborg_conc.Immunity
module Schedule_explore = Softborg_conc.Schedule_explore
module Hive = Softborg_hive.Hive
module Fix_lifecycle = Softborg_hive.Fix_lifecycle
module Knowledge = Softborg_hive.Knowledge
module Fixgen = Softborg_hive.Fixgen
module Prover = Softborg_hive.Prover
module Platform = Softborg.Platform
module Scenario = Softborg.Scenario
module Metrics = Softborg.Metrics
open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let verbose_flag =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log hive decisions as they happen.")

let program_by_name name =
  match List.assoc_opt name Corpus.all with
  | Some program -> Ok program
  | None ->
    if String.length name >= 4 && String.sub name 0 4 = "gen:" then begin
      let seed = int_of_string_opt (String.sub name 4 (String.length name - 4)) in
      match seed with
      | Some seed ->
        let prog, _ =
          Generator.generate (Rng.create seed)
            { Generator.default_params with Generator.bugs = [ Generator.Rare_assert ] }
        in
        Ok prog
      | None -> Error (`Msg "gen:<seed> expects an integer seed")
    end
    else
      Error
        (`Msg
          (Printf.sprintf "unknown program %S; try `softborg list` or gen:<seed>" name))

let program_conv =
  let parse s = program_by_name s in
  let print fmt (p : Ir.t) = Format.pp_print_string fmt p.Ir.name in
  Arg.conv (parse, print)

let program_arg =
  Arg.(
    required
    & pos 0 (some program_conv) None
    & info [] ~docv:"PROGRAM" ~doc:"Corpus program name (see $(b,softborg list)) or gen:<seed>.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic random seed.")

(* ---- list -------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Tabular.print ~title:"corpus programs"
      [ Tabular.column "name"; Tabular.column ~align:Tabular.Right "threads";
        Tabular.column ~align:Tabular.Right "inputs"; Tabular.column ~align:Tabular.Right "locks";
        Tabular.column ~align:Tabular.Right "instrs" ]
      (List.map
         (fun (name, (p : Ir.t)) ->
           [
             name;
             string_of_int (Array.length p.Ir.threads);
             string_of_int p.Ir.n_inputs;
             string_of_int p.Ir.n_locks;
             string_of_int (Ir.instr_count p);
           ])
         Corpus.all)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the corpus programs.") Term.(const run $ const ())

(* ---- run --------------------------------------------------------------- *)

let inputs_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "inputs" ] ~docv:"N,N,..." ~doc:"Program input vector (missing slots are 0).")

let run_cmd =
  let run program inputs seed =
    let padded = Array.make program.Ir.n_inputs 0 in
    List.iteri (fun i v -> if i < Array.length padded then padded.(i) <- v) inputs;
    let env = Env.make ~seed ~inputs:padded () in
    let r = Vm.execute ~program ~env ~sched:Sched.Round_robin () in
    Format.printf "program:  %s@." program.Ir.name;
    Format.printf "inputs:   [%s]@."
      (String.concat "; " (Array.to_list (Array.map string_of_int padded)));
    Format.printf "outcome:  %a@." Outcome.pp r.Interp.outcome;
    Format.printf "steps:    %d@." r.Interp.steps;
    Format.printf "decisions: %d (recorded bits: %d = %.0f%%)@."
      (List.length r.Interp.full_path)
      (Bitvec.length r.Interp.bits)
      (100.
      *. float_of_int (Bitvec.length r.Interp.bits)
      /. float_of_int (max 1 (List.length r.Interp.full_path)));
    Format.printf "schedule: %d contended choices@." (List.length r.Interp.schedule);
    Format.printf "syscalls: %d@." (List.length r.Interp.syscalls);
    let trace = Trace.of_result ~program_digest:(Ir.digest program) ~pod:0 ~fix_epoch:0 r in
    Format.printf "wire size: %d bytes@." (String.length (Wire.encode trace))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program once and show its by-products.")
    Term.(const run $ program_arg $ inputs_arg $ seed_arg)

(* ---- simulate ----------------------------------------------------------- *)

let mode_conv =
  Arg.enum [ ("softborg", Hive.Full); ("wer", Hive.Wer); ("cbi", Hive.Cbi) ]

let simulate_cmd =
  let duration_arg =
    Arg.(value & opt float 600.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated time.")
  in
  let pods_arg = Arg.(value & opt int 6 & info [ "pods" ] ~docv:"N" ~doc:"Fleet size.") in
  let mode_arg =
    Arg.(
      value & opt mode_conv Hive.Full
      & info [ "mode" ] ~docv:"MODE" ~doc:"Platform mode: softborg, wer, or cbi.")
  in
  let chaos_flag =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Inject a generated fault plan: hive crashes restored from checkpoints, pod \
             churn, and link-degradation windows.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 1337
      & info [ "chaos-seed" ] ~docv:"SEED" ~doc:"Seed the fault plan is generated from.")
  in
  let overload_flag =
    Arg.(
      value & flag
      & info [ "overload" ]
          ~doc:
            "Enable hive overload protection and script an arrival spike: extra pods join \
             mid-run, driving the ingest queue into shedding and backpressure, then leave.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Federate the hive across $(docv) path-prefix shards with a deterministic \
             superstep merge; 1 (the default) runs the classic single hive.")
  in
  let batch_arg =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Batch $(docv) traces per upload frame (delta-encoded against the \
             hive-announced prefix basis unless $(b,--no-delta)); 1 (the default) keeps \
             the classic one-frame-per-trace wire format.")
  in
  let no_delta_flag =
    Arg.(
      value & flag
      & info [ "no-delta" ]
          ~doc:"With $(b,--batch), send full records instead of delta-encoded ones.")
  in
  let rollout_conv = Arg.enum [ ("off", false); ("canary", true) ] in
  let rollout_arg =
    Arg.(
      value
      & opt rollout_conv false
      & info [ "rollout" ] ~docv:"MODE"
          ~doc:
            "Fix rollout policy: $(b,off) (the default — fixes deploy fleet-wide \
             instantly, byte-identical to builds without staged rollout) or $(b,canary) \
             (every new fix is staged through a canary cohort and promoted or retracted \
             by the hive's health test).")
  in
  let canary_fraction_arg =
    Arg.(
      value & opt float 0.125
      & info [ "canary-fraction" ] ~docv:"F"
          ~doc:"With $(b,--rollout canary), the fleet fraction in each fix's cohort.")
  in
  let run verbose program mode duration pods seed chaos chaos_seed overload shards batch
      no_delta rollout canary_fraction =
    setup_logs verbose;
    let config = Scenario.single_program ~mode ~seed program in
    let config =
      { config with Platform.duration; n_pods = pods; sample_interval = duration /. 10.0 }
    in
    let config = if chaos then Scenario.with_chaos ~chaos_seed config else config in
    let config =
      if overload then
        Scenario.overload_spike ~spike_start:(duration /. 4.0) ~spike_end:(duration /. 2.0)
          (Scenario.with_overload config)
      else config
    in
    let config = if shards > 1 then Scenario.with_shards shards config else config in
    let config =
      if batch > 1 then Scenario.with_fleet_encoding ~batch ~delta:(not no_delta) config
      else config
    in
    let config =
      if rollout then
        let mils = max 1 (min 1000 (int_of_float ((canary_fraction *. 1000.0) +. 0.5))) in
        Scenario.with_rollout
          ~rollout:{ Fix_lifecycle.default_config with Fix_lifecycle.canary_mils = mils }
          config
      else config
    in
    let report = Platform.run config in
    Format.printf "%a" Platform.pp_report report;
    let f = report.Platform.final in
    Format.printf "failure rate: %.5f (%d averted)@."
      (Metrics.failure_rate f) f.Metrics.averted_crashes;
    if overload then
      Format.printf "overload: shed=%d quarantined=%d muted=%d peak-queue=%d thinned=%d@."
        f.Metrics.shed_uploads f.Metrics.quarantined_frames f.Metrics.pods_muted
        f.Metrics.peak_queue_depth f.Metrics.thinned_uploads;
    if rollout then
      Format.printf "rollout: canary=%d promoted=%d retracted=%d quarantined=%d exposed=%d@."
        f.Metrics.canary_fixes f.Metrics.fix_promotions f.Metrics.fix_retractions
        f.Metrics.quarantined_fix_traces f.Metrics.pods_exposed;
    match config.Platform.chaos with
    | None -> ()
    | Some plan ->
      Format.printf "chaos: %d faults scheduled, %d checkpoints taken, %d restores@."
        (Fault_plan.length plan) f.Metrics.checkpoints f.Metrics.restores
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a whole-fleet platform simulation on one program.")
    Term.(
      const run $ verbose_flag $ program_arg $ mode_arg $ duration_arg $ pods_arg $ seed_arg
      $ chaos_flag $ chaos_seed_arg $ overload_flag $ shards_arg $ batch_arg $ no_delta_flag
      $ rollout_arg $ canary_fraction_arg)

(* ---- explore -------------------------------------------------------------- *)

let explore_cmd =
  let local_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "local" ] ~docv:"THREAD"
          ~doc:"Use local (unit-level) consistency for the given thread instead of strict.")
  in
  let max_paths_arg =
    Arg.(value & opt int 256 & info [ "max-paths" ] ~docv:"N" ~doc:"Path budget.")
  in
  let run program local max_paths =
    let level =
      match local with None -> Consistency.Strict | Some thread -> Consistency.Local { thread }
    in
    let config = { Sym_exec.default_config with Sym_exec.max_paths } in
    let report = Sym_exec.explore ~config program level in
    Format.printf "consistency: %a@." Consistency.pp level;
    Format.printf "paths: %d (pruned %d infeasible forks%s)@."
      (List.length report.Sym_exec.paths)
      report.Sym_exec.pruned_infeasible
      (if report.Sym_exec.truncated then "; TRUNCATED" else "");
    List.iteri
      (fun i (p : Sym_exec.path) ->
        let verdict =
          match p.Sym_exec.solver_verdict with
          | `Sat -> "SAT"
          | `Unsat -> "UNSAT"
          | `Timeout -> "TIMEOUT"
          | `Unsolved -> "-"
        in
        let outcome =
          match p.Sym_exec.outcome with
          | Sym_exec.Completed -> "completed"
          | Sym_exec.Crashed { message; _ } -> Printf.sprintf "CRASH(%s)" message
          | Sym_exec.Path_deadlock -> "deadlock"
          | Sym_exec.Step_limit -> "step-limit"
        in
        Format.printf "  #%-3d %-9s %-24s %a@." i verdict outcome
          Softborg_solver.Path_cond.pp p.Sym_exec.condition)
      report.Sym_exec.paths
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Symbolically enumerate a program's execution paths.")
    Term.(const run $ program_arg $ local_arg $ max_paths_arg)

(* ---- schedules --------------------------------------------------------------- *)

let schedules_cmd =
  let max_runs_arg =
    Arg.(value & opt int 200 & info [ "max-runs" ] ~docv:"N" ~doc:"Execution budget.")
  in
  let run program inputs max_runs seed =
    let padded = Array.make program.Ir.n_inputs 0 in
    List.iteri (fun i v -> if i < Array.length padded then padded.(i) <- v) inputs;
    let make_env () = Env.make ~seed ~inputs:padded () in
    let result = Schedule_explore.explore ~max_runs ~program ~make_env () in
    Format.printf "runs: %d, distinct schedules: %d, failing: %d@." result.Schedule_explore.runs
      result.Schedule_explore.distinct_schedules
      (List.length result.Schedule_explore.failures);
    List.iter
      (fun (outcome, schedule) ->
        Format.printf "  %a via schedule [%s]@." Outcome.pp outcome
          (String.concat ";" (List.map string_of_int schedule)))
      result.Schedule_explore.failures
  in
  Cmd.v
    (Cmd.info "schedules" ~doc:"Systematically explore thread interleavings.")
    Term.(const run $ program_arg $ inputs_arg $ max_runs_arg $ seed_arg)

(* ---- immunize ------------------------------------------------------------------ *)

let immunize_cmd =
  let run program inputs seed =
    let padded = Array.make program.Ir.n_inputs 0 in
    List.iteri (fun i v -> if i < Array.length padded then padded.(i) <- v) inputs;
    let make_env () = Env.make ~seed ~inputs:padded () in
    let before = Schedule_explore.explore ~max_runs:200 ~program ~make_env () in
    let deadlock_sets =
      List.filter_map
        (fun (o, _) ->
          match o with
          | Outcome.Deadlock { waiting } ->
            Some (List.sort_uniq Int.compare (List.map snd waiting))
          | _ -> None)
        before.Schedule_explore.outcomes
      |> List.sort_uniq compare
    in
    if deadlock_sets = [] then Format.printf "no deadlocks found in %d schedules@." before.Schedule_explore.runs
    else begin
      Format.printf "deadlock patterns found: %s@."
        (String.concat " "
           (List.map
              (fun locks -> "{" ^ String.concat "," (List.map string_of_int locks) ^ "}")
              deadlock_sets));
      let immunizer = Immunity.create ~patterns:deadlock_sets in
      let after =
        Schedule_explore.explore ~max_runs:200 ~hooks:(Immunity.hooks immunizer) ~program
          ~make_env ()
      in
      let count result =
        List.fold_left
          (fun acc (o, _) -> match o with Outcome.Deadlock _ -> acc + 1 | _ -> acc)
          0 result.Schedule_explore.outcomes
      in
      Format.printf "deadlocking schedules: %d before, %d after immunity@." (count before)
        (count after)
    end
  in
  Cmd.v
    (Cmd.info "immunize" ~doc:"Mine deadlock patterns and demonstrate immunity.")
    Term.(const run $ program_arg $ inputs_arg $ seed_arg)

(* ---- prove ---------------------------------------------------------------------- *)

let prove_cmd =
  let executions_arg =
    Arg.(value & opt int 300 & info [ "executions" ] ~docv:"N" ~doc:"Evidence executions.")
  in
  let run program executions seed =
    let k = Knowledge.create program in
    let rng = Rng.create seed in
    for i = 1 to executions do
      let inputs = Array.init program.Ir.n_inputs (fun _ -> Rng.int_in rng (-64) 255) in
      let env = Env.make ~seed:i ~inputs () in
      let r = Vm.execute ~program ~env ~sched:(Sched.Random_sched (Rng.split rng)) () in
      ignore
        (Knowledge.ingest_trace k
           (Trace.of_result ~program_digest:(Knowledge.digest k) ~pod:0 ~fix_epoch:0 r))
    done;
    Format.printf "evidence: %d executions, %d distinct paths, completeness %.2f@." executions
      (Exec_tree.n_distinct_paths (Knowledge.tree k))
      (Exec_tree.completeness (Knowledge.tree k));
    let closed = Prover.close_gaps program (Knowledge.tree k) in
    Format.printf "symbolic closure: %d gaps proven infeasible (completeness now %.2f)@." closed
      (Exec_tree.completeness (Knowledge.tree k));
    let crash_observations =
      List.fold_left
        (fun acc (e : Fixgen.crash_evidence) -> acc + e.Fixgen.count)
        0 (Knowledge.crash_evidence k)
    in
    (match
       Prover.attempt_assert_safety ~program ~tree:(Knowledge.tree k) ~crash_observations
         ~epoch:0 ()
     with
    | Some proof -> Format.printf "assert-safety:    %a@." Prover.pp proof
    | None -> Format.printf "assert-safety:    no proof (crashes observed or feasible)@.");
    match
      Prover.attempt_deadlock_freedom ~program ~tree:(Knowledge.tree k)
        ~deadlock_observations:
          (List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Knowledge.deadlock_bucket_info k))
        ~lock_cycles:(Knowledge.deadlock_pattern_sets k)
        ~make_env:(fun () -> Env.make ~seed ~inputs:(Array.make program.Ir.n_inputs 1) ())
        ~hooks:(Knowledge.current_hooks k) ~epoch:0 ()
    with
    | Some proof -> Format.printf "deadlock-freedom: %a@." Prover.pp proof
    | None -> Format.printf "deadlock-freedom: no proof (deadlock evidence exists)@."
  in
  Cmd.v
    (Cmd.info "prove" ~doc:"Attempt cumulative proofs from executions + symbolic closure.")
    Term.(const run $ program_arg $ executions_arg $ seed_arg)

(* ---- solve ----------------------------------------------------------------------- *)

let solve_cmd =
  let n_arg = Arg.(value & opt int 10 & info [ "instances" ] ~docv:"N" ~doc:"Instance count.") in
  let vars_arg = Arg.(value & opt int 40 & info [ "vars" ] ~docv:"N" ~doc:"Variables.") in
  let clauses_arg = Arg.(value & opt int 160 & info [ "clauses" ] ~docv:"N" ~doc:"Clauses.") in
  let run n vars clauses seed =
    let rng = Rng.create seed in
    let members = Portfolio.standard_three ~budget:3_000_000 ~seed in
    let rows =
      List.init n (fun i ->
          let clause () =
            List.init 3 (fun _ ->
                let v = 1 + Rng.int rng vars in
                if Rng.bool rng then v else -v)
          in
          let formula = Cnf.make ~n_vars:vars (List.init clauses (fun _ -> clause ())) in
          let race = Portfolio.race members formula in
          [
            string_of_int i;
            (match race.Portfolio.verdict with
            | Portfolio.V_sat -> "SAT"
            | Portfolio.V_unsat -> "UNSAT"
            | Portfolio.V_unknown -> "?");
            Option.value ~default:"-" race.Portfolio.winner;
            string_of_int race.Portfolio.wall_steps;
            string_of_int race.Portfolio.resource_steps;
          ])
    in
    Tabular.print
      ~title:(Printf.sprintf "portfolio races on random 3-SAT (%d vars, %d clauses)" vars clauses)
      [
        Tabular.column "instance"; Tabular.column "verdict"; Tabular.column "winner";
        Tabular.column ~align:Tabular.Right "wall steps";
        Tabular.column ~align:Tabular.Right "resource steps";
      ]
      rows
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Race the SAT-solver portfolio on random instances.")
    Term.(const run $ n_arg $ vars_arg $ clauses_arg $ seed_arg)

(* ---- report --------------------------------------------------------------------- *)

let report_cmd =
  let duration_arg =
    Arg.(value & opt float 600.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated time.")
  in
  let run program duration seed =
    let config = Scenario.single_program ~seed program in
    let config =
      { config with Platform.duration; sample_interval = duration /. 5.0 }
    in
    let result = Platform.run config in
    List.iter
      (fun k -> print_string (Softborg_hive.Report.render k))
      result.Platform.knowledge
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run a fleet simulation and publish the hive's reliability report.")
    Term.(const run $ program_arg $ duration_arg $ seed_arg)

let () =
  let info =
    Cmd.info "softborg" ~version:"1.0.0"
      ~doc:"Collective information recycling: every execution is a test run."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; simulate_cmd; explore_cmd; schedules_cmd; immunize_cmd;
            prove_cmd; solve_cmd; report_cmd;
          ]))
