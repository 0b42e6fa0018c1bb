(* Tests for symbolic execution: path enumeration against the concrete
   interpreter, consistency levels, directed search, and testgen. *)

module Ir = Softborg_prog.Ir
module Build = Softborg_prog.Build
module Corpus = Softborg_prog.Corpus
module Generator = Softborg_prog.Generator
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Outcome = Softborg_exec.Outcome
module Sym_state = Softborg_symexec.Sym_state
module Sym_exec = Softborg_symexec.Sym_exec
module Consistency = Softborg_symexec.Consistency
module Testgen = Softborg_symexec.Testgen
module Path_cond = Softborg_solver.Path_cond
module Rng = Softborg_util.Rng
module Hive = Softborg_hive.Hive
module Scenario = Softborg.Scenario

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---- Sym_state -------------------------------------------------------- *)

let test_constant_folding () =
  let open Sym_state in
  (match eval_binop Ir.Add (const 2) (const 3) with
  | Value (Concrete 5) -> ()
  | _ -> Alcotest.fail "2+3 <> 5");
  match eval_binop Ir.Div (const 1) (const 0) with
  | Trap Sym_div_by_zero -> ()
  | _ -> Alcotest.fail "1/0 should trap"

let test_symbolic_guard () =
  let open Sym_state in
  match eval_binop Ir.Div (const 10) (symbol 0) with
  | Guarded { on_zero = Sym_div_by_zero; _ } -> ()
  | _ -> Alcotest.fail "division by symbol must be guarded"

let test_simplification () =
  let open Sym_state in
  (match eval_binop Ir.Mul (symbol 0) (const 0) with
  | Value (Symbolic (Ir.Const 0)) -> ()
  | Value (Concrete 0) -> ()
  | _ -> Alcotest.fail "x*0 should fold to 0");
  match eval_binop Ir.Add (symbol 0) (const 0) with
  | Value (Symbolic (Ir.Input 0)) -> ()
  | _ -> Alcotest.fail "x+0 should fold to x"

(* ---- explore: fig2 ------------------------------------------------------ *)

let test_fig2_enumerates_all_feasible_paths () =
  let report = Sym_exec.explore Corpus.fig2_write Consistency.Strict in
  checkb "not truncated" false report.Sym_exec.truncated;
  (* Four syntactic leaves; one ((p>=100) and (p<=3)) is infeasible. *)
  let sat_paths =
    List.filter (fun p -> p.Sym_exec.solver_verdict = `Sat) report.Sym_exec.paths
  in
  checki "three feasible leaves" 3 (List.length sat_paths);
  (* The (p>=100, p<=3) leaf is refuted by interval propagation at the
     fork itself. *)
  checki "infeasible leaf pruned at fork" 1 report.Sym_exec.pruned_infeasible

let test_fig2_models_replay_concretely () =
  (* Each SAT model, run concretely, must follow exactly the symbolic
     path's decision sequence. *)
  let report = Sym_exec.explore Corpus.fig2_write Consistency.Strict in
  List.iter
    (fun (p : Sym_exec.path) ->
      match p.Sym_exec.model with
      | None -> ()
      | Some model ->
        let tc =
          Testgen.of_model ~n_inputs:Corpus.fig2_write.Ir.n_inputs ~model
            ~origins:p.Sym_exec.origins
        in
        let env = Env.make ~fault_plan:tc.Testgen.fault_plan ~seed:1 ~inputs:tc.Testgen.inputs () in
        let r = Interp.run ~program:Corpus.fig2_write ~env ~sched:Sched.Round_robin () in
        Alcotest.(check int)
          "same path length" (List.length p.Sym_exec.decisions)
          (List.length r.Interp.full_path);
        checkb "same decisions" true (r.Interp.full_path = p.Sym_exec.decisions))
    report.Sym_exec.paths

let test_parser_crash_found_symbolically () =
  let report = Sym_exec.explore Corpus.parser Consistency.Strict in
  let crashes =
    List.filter
      (fun (p : Sym_exec.path) ->
        match (p.Sym_exec.outcome, p.Sym_exec.solver_verdict) with
        | Sym_exec.Crashed { kind = Outcome.Assertion_failure; _ }, `Sat -> true
        | _ -> false)
      report.Sym_exec.paths
  in
  checki "exactly one feasible crash path" 1 (List.length crashes);
  (* The model must concretely trigger the crash. *)
  match (List.hd crashes).Sym_exec.model with
  | None -> Alcotest.fail "no model"
  | Some model ->
    let tc =
      Testgen.of_model ~n_inputs:Corpus.parser.Ir.n_inputs ~model
        ~origins:(List.hd crashes).Sym_exec.origins
    in
    let env = Env.make ~fault_plan:tc.Testgen.fault_plan ~seed:1 ~inputs:tc.Testgen.inputs () in
    let r = Interp.run ~program:Corpus.parser ~env ~sched:Sched.Round_robin () in
    (match r.Interp.outcome with
    | Outcome.Crash { kind = Outcome.Assertion_failure; _ } -> ()
    | o -> Alcotest.failf "model did not crash: %a" Outcome.pp o)

let test_syscall_fault_path_found () =
  (* file_copy's planted bug: an unchecked dst-open fault.  Symbolic
     execution must find a crash path whose model requires a syscall
     fault, and testgen must produce a fault plan triggering it. *)
  let report = Sym_exec.explore Corpus.file_copy Consistency.Strict in
  let crash_with_fault =
    List.filter_map
      (fun (p : Sym_exec.path) ->
        match (p.Sym_exec.outcome, p.Sym_exec.model) with
        | Sym_exec.Crashed { kind = Outcome.Division_by_zero; _ }, Some model ->
          let tc =
            Testgen.of_model ~n_inputs:Corpus.file_copy.Ir.n_inputs ~model
              ~origins:p.Sym_exec.origins
          in
          (match tc.Testgen.fault_plan with Env.Targeted _ -> Some tc | _ -> None)
        | _ -> None)
      report.Sym_exec.paths
  in
  checkb "found fault-triggered crash" true (crash_with_fault <> []);
  let tc = List.hd crash_with_fault in
  let env = Env.make ~fault_plan:tc.Testgen.fault_plan ~seed:1 ~inputs:tc.Testgen.inputs () in
  let r = Interp.run ~program:Corpus.file_copy ~env ~sched:Sched.Round_robin () in
  match r.Interp.outcome with
  | Outcome.Crash { kind = Outcome.Division_by_zero; _ } -> ()
  | o -> Alcotest.failf "fault plan did not reproduce the crash: %a" Outcome.pp o

(* ---- Consistency levels -------------------------------------------------- *)

(* Thread 1 branches on [flag == 2], a global only thread 0 writes,
   setting it to 1: under strict consistency only the false direction
   is feasible, under local consistency (havoced global) both are. *)
let overapprox_program () =
  let open Build in
  let open Build.Infix in
  program ~name:"overapprox" ~globals:[ "flag" ]
    [
      [ assign (gvar "flag") (const 1) ];
      [ if_ (glob "flag" ==: const 2) [ assign (lvar "x") (const 1) ] [ assign (lvar "x") (const 2) ] ];
    ]

let test_local_consistency_overapproximates () =
  let prog = overapprox_program () in
  let strict = Sym_exec.explore prog Consistency.Strict in
  let local = Sym_exec.explore prog (Consistency.Local { thread = 1 }) in
  checki "strict: single path" 1 (List.length strict.Sym_exec.paths);
  checki "local: both directions" 2 (List.length local.Sym_exec.paths)

let test_local_cheaper_on_multithreaded () =
  let strict = Sym_exec.explore Corpus.worker_pool Consistency.Strict in
  let local = Sym_exec.explore Corpus.worker_pool (Consistency.Local { thread = 1 }) in
  checkb "local explores fewer total steps" true
    (local.Sym_exec.total_steps < strict.Sym_exec.total_steps)

(* ---- Directed search / testgen -------------------------------------------- *)

let parser_crash_site () =
  match Ir.assert_sites Corpus.parser with
  | [ site ] -> site
  | sites -> Alcotest.failf "expected one assert site, got %d" (List.length sites)

let test_direction_feasible_finds_rare_path () =
  ignore (parser_crash_site ());
  (* Target the guard of the parser's crash: the last decision of the
     known crashing execution (the way the hive would target an
     observed gap's sibling direction). *)
  let env = Env.make ~seed:1 ~inputs:Corpus.parser_trigger () in
  let r = Interp.run ~program:Corpus.parser ~env ~sched:Sched.Round_robin () in
  let site, direction =
    match List.rev r.Interp.full_path with
    | last :: _ -> last
    | [] -> Alcotest.fail "trigger run has no decisions"
  in
  match Testgen.for_direction Corpus.parser ~site ~direction with
  | `Test tc ->
    let env = Env.make ~fault_plan:tc.Testgen.fault_plan ~seed:1 ~inputs:tc.Testgen.inputs () in
    let r = Interp.run ~program:Corpus.parser ~env ~sched:Sched.Round_robin () in
    checkb "guided input reaches the crash" true (Outcome.is_failure r.Interp.outcome)
  | `Infeasible -> Alcotest.fail "rare path wrongly infeasible"
  | `Unknown -> Alcotest.fail "rare path unknown"

let test_direction_infeasible_detected () =
  (* fig2's dead direction: under p>=100, p>3 cannot be false. *)
  let sites = Ir.branch_sites Corpus.fig2_write in
  (* The p>3 site is the branch reached only when p<100 fails; find it
     by asking symexec for each site's false direction and expecting
     exactly one verdict other than Feasible among them. *)
  let not_feasible config =
    List.filter
      (function Sym_exec.Feasible _ -> false | Sym_exec.Infeasible | Sym_exec.Unknown -> true)
      (List.map
         (fun site -> Sym_exec.direction_feasible ~config Corpus.fig2_write ~site ~direction:false)
         sites)
  in
  checkb "one infeasible direction" true
    (not_feasible Sym_exec.default_config = [ Sym_exec.Infeasible ]);
  (* At a budget of 10 steps the dead direction's target is never
     reached, so no target solve runs; one of its finished paths'
     solves times out, and that alone makes the verdict Unknown. *)
  checkb "unknown once an end-of-path solve times out" true
    (not_feasible { Sym_exec.default_config with Sym_exec.solver_budget = 10 }
    = [ Sym_exec.Unknown ])

(* Every verdict [Testgen.for_direction] gives at the hive's symexec
   config, over both directions of every branch site of the corpus and
   of the [analysis] benchmark population, serialized and hashed.  The
   constant includes the local first step on multi-threaded programs,
   which moves 10 of the 110 lines, all on the two 3-thread generated
   programs. *)
let directed_verdicts_digest = "cd91e2cba465bd31aa6db7b588a36cb8"

(* Env seeds the hashed tests are replayed at: none of them is one
   [Testgen] validates a local model at. *)
let replay_seeds = [ 5; 6; 7; 8; 101; 202 ]

let test_directed_verdicts_pinned () =
  let config = (Hive.default_config Hive.Full).Hive.symexec_config in
  let _, population =
    Scenario.buggy_population ~seed:42 ~n_programs:8
      ~bugs:
        [ Generator.Rare_assert; Generator.Unchecked_syscall; Generator.Div_by_zero;
          Generator.Deadlock_pair ]
      ()
  in
  let programs = List.map snd Corpus.all @ List.map fst population in
  let buf = Buffer.create 4096 in
  List.iter
    (fun program ->
      List.iter
        (fun (site : Ir.site) ->
          List.iter
            (fun direction ->
              Printf.bprintf buf "%d:%d:%b=" site.Ir.thread site.Ir.pc direction;
              (match Testgen.for_direction ~config program ~site ~direction with
              | `Test { Testgen.inputs; fault_plan } ->
                (* A test is worth hashing only if it does what it
                   claims: the oracle takes the direction with it. *)
                List.iter
                  (fun seed ->
                    let env = Env.make ~fault_plan ~seed ~inputs () in
                    let r = Interp.run ~program ~env ~sched:Sched.Round_robin () in
                    if not (List.mem (site, direction) r.Interp.full_path) then
                      Alcotest.failf "%s %d:%d=%b: test misses its direction at env seed %d"
                        program.Ir.name site.Ir.thread site.Ir.pc direction seed)
                  replay_seeds;
                Printf.bprintf buf "test[%s]"
                  (String.concat "," (Array.to_list (Array.map string_of_int inputs)));
                (match fault_plan with
                | Env.No_faults -> ()
                | Env.Random_faults p -> Printf.bprintf buf "random %h" p
                | Env.Targeted indices ->
                  Printf.bprintf buf "faults[%s]"
                    (String.concat "," (List.map string_of_int indices)))
              | `Infeasible -> Buffer.add_string buf "infeasible"
              | `Unknown -> Buffer.add_string buf "unknown");
              Buffer.add_char buf '\n')
            [ true; false ])
        (Ir.branch_sites program))
    programs;
  Alcotest.(check string)
    "verdict digest" directed_verdicts_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_local_model_checked_concretely () =
  (* Havocing [flag] lets the local search take the true direction
     with flag = 2, a model no input can realize; the concrete check
     must reject it, and the strict query then answers Unknown. *)
  let prog = overapprox_program () in
  let site =
    match List.filter (fun (s : Ir.site) -> s.Ir.thread = 1) (Ir.branch_sites prog) with
    | [ site ] -> site
    | sites -> Alcotest.failf "expected one branch in thread 1, got %d" (List.length sites)
  in
  let local = Sym_exec.explore prog (Consistency.Local { thread = 1 }) in
  checkb "local search takes the true direction" true
    (List.exists
       (fun (p : Sym_exec.path) ->
         p.Sym_exec.solver_verdict = `Sat && List.mem (site, true) p.Sym_exec.decisions)
       local.Sym_exec.paths);
  (match Testgen.for_direction prog ~site ~direction:true with
  | `Unknown -> ()
  | `Test _ -> Alcotest.fail "true direction: kept a model that holds only under havoc"
  | `Infeasible -> Alcotest.fail "true direction: Infeasible claimed for a multi-threaded program");
  match Testgen.for_direction prog ~site ~direction:false with
  | `Test _ -> ()
  | `Unknown -> Alcotest.fail "false direction: no test"
  | `Infeasible -> Alcotest.fail "false direction: Infeasible claimed for a multi-threaded program"

let test_direction_unknown_for_multithreaded () =
  let sites = Ir.branch_sites Corpus.worker_pool in
  let site = List.hd sites in
  match Sym_exec.direction_feasible Corpus.worker_pool ~site ~direction:true with
  | Sym_exec.Feasible _ | Sym_exec.Unknown -> ()
  | Sym_exec.Infeasible -> Alcotest.fail "must not claim Infeasible for multithreaded programs"

let prop_symexec_models_replay =
  QCheck.Test.make ~name:"symbolic models replay concretely (random programs)" ~count:40
    QCheck.small_nat (fun seed ->
      (* Single-threaded programs only: symexec schedules round-robin. *)
      let prog, _ =
        Generator.generate (Rng.create (seed + 1))
          {
            Generator.default_params with
            Generator.bugs = (if seed mod 2 = 0 then [ Generator.Rare_assert ] else []);
            block_depth = 2;
            stmts_per_block = 3;
          }
      in
      let config = { Sym_exec.default_config with Sym_exec.max_paths = 64 } in
      let report = Sym_exec.explore ~config prog Consistency.Strict in
      List.for_all
        (fun (p : Sym_exec.path) ->
          match p.Sym_exec.model with
          | None -> true
          | Some model ->
            let tc = Testgen.of_model ~n_inputs:prog.Ir.n_inputs ~model ~origins:p.Sym_exec.origins in
            let env =
              Env.make ~fault_plan:tc.Testgen.fault_plan ~seed:1 ~inputs:tc.Testgen.inputs ()
            in
            let r = Interp.run ~max_steps:5000 ~program:prog ~env ~sched:Sched.Round_robin () in
            (* The concrete run must follow the symbolic decision
               sequence as a prefix (symbolic paths can be cut short by
               step limits). *)
            let rec is_prefix xs ys =
              match (xs, ys) with
              | [], _ -> true
              | x :: xs, y :: ys -> x = y && is_prefix xs ys
              | _ :: _, [] -> false
            in
            is_prefix p.Sym_exec.decisions r.Interp.full_path
            || is_prefix r.Interp.full_path p.Sym_exec.decisions)
        report.Sym_exec.paths)

(* The strongest check in the suite: over a small finite input domain,
   the set of decision sequences found by symbolic exploration (SAT
   paths) must equal the set produced by exhaustively running every
   input vector concretely.  Soundness and completeness in one. *)
let prop_symexec_equals_enumeration =
  QCheck.Test.make ~name:"symexec path set = exhaustive concrete enumeration" ~count:25
    QCheck.small_nat (fun seed ->
      (* Syscall-free single-threaded programs only: syscall results
         range outside the tiny enumeration domain. *)
      let rec gen_program attempt =
        if attempt > 50 then None
        else
          let prog, _ =
            Generator.generate
              (Rng.create ((seed * 57) + attempt))
              {
                Generator.default_params with
                Generator.bugs = [];
                block_depth = 2;
                stmts_per_block = 3;
                n_inputs = 2;
              }
          in
          let has_syscall =
            Array.exists
              (fun body ->
                Array.exists (function Ir.Syscall _ -> true | _ -> false) body)
              prog.Ir.threads
          in
          if has_syscall then gen_program (attempt + 1) else Some prog
      in
      match gen_program 0 with
      | None -> true  (* no syscall-free program found; skip *)
      | Some prog ->
        let lo, hi = (0, 7) in
        let concrete_paths = Hashtbl.create 64 in
        for a = lo to hi do
          for b = lo to hi do
            let env = Env.make ~seed:1 ~inputs:[| a; b |] () in
            let r = Interp.run ~max_steps:5000 ~program:prog ~env ~sched:Sched.Round_robin () in
            Hashtbl.replace concrete_paths r.Interp.full_path ()
          done
        done;
        let config =
          {
            Sym_exec.default_config with
            Sym_exec.domain = (lo, hi);
            max_paths = 2048;
            max_steps_per_path = 5000;
            solver_budget = 500_000;
          }
        in
        let report = Sym_exec.explore ~config prog Consistency.Strict in
        if report.Sym_exec.truncated then true  (* inconclusive; don't fail *)
        else begin
          try
          let symbolic_paths = Hashtbl.create 64 in
          List.iter
            (fun (p : Sym_exec.path) ->
              match p.Sym_exec.solver_verdict with
              | `Sat -> Hashtbl.replace symbolic_paths p.Sym_exec.decisions ()
              | `Unsat -> ()
              | `Timeout | `Unsolved -> raise Exit)
            report.Sym_exec.paths;
          let subset a b =
            Hashtbl.fold (fun path () acc -> acc && Hashtbl.mem b path) a true
          in
          let complete = subset concrete_paths symbolic_paths in
          let sound = subset symbolic_paths concrete_paths in
          if not complete then
            QCheck.Test.fail_report "a concrete path is missing from symbolic exploration";
          if not sound then
            QCheck.Test.fail_report "a SAT symbolic path has no concrete witness in domain";
          true
          with Exit -> true  (* solver timeout: inconclusive *)
        end)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_symexec"
    [
      ( "sym_state",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "symbolic guard" `Quick test_symbolic_guard;
          Alcotest.test_case "simplification" `Quick test_simplification;
        ] );
      ( "explore",
        [
          Alcotest.test_case "fig2 all paths" `Quick test_fig2_enumerates_all_feasible_paths;
          Alcotest.test_case "fig2 models replay" `Quick test_fig2_models_replay_concretely;
          Alcotest.test_case "parser crash found" `Quick test_parser_crash_found_symbolically;
          Alcotest.test_case "syscall fault path" `Quick test_syscall_fault_path_found;
          q prop_symexec_models_replay;
          q prop_symexec_equals_enumeration;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "local overapproximates" `Quick test_local_consistency_overapproximates;
          Alcotest.test_case "local cheaper" `Quick test_local_cheaper_on_multithreaded;
        ] );
      ( "directed",
        [
          Alcotest.test_case "finds rare path" `Quick test_direction_feasible_finds_rare_path;
          Alcotest.test_case "detects infeasible" `Quick test_direction_infeasible_detected;
          Alcotest.test_case "unknown for multithreaded" `Quick
            test_direction_unknown_for_multithreaded;
          Alcotest.test_case "hive-config verdicts pinned" `Quick test_directed_verdicts_pinned;
          Alcotest.test_case "local model checked concretely" `Quick
            test_local_model_checked_concretely;
        ] );
    ]
