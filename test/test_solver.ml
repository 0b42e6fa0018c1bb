(* Tests for the constraint-solver stack: CNF/Tseitin, DPLL vs brute
   force, WalkSAT soundness, the interval path-condition solver, and
   portfolio racing. *)

module Ir = Softborg_prog.Ir
module Cnf = Softborg_solver.Cnf
module Dpll = Softborg_solver.Dpll
module Walksat = Softborg_solver.Walksat
module Brute = Softborg_solver.Brute
module Path_cond = Softborg_solver.Path_cond
module Interval = Softborg_solver.Interval
module Portfolio = Softborg_solver.Portfolio
module Rng = Softborg_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---- CNF ----------------------------------------------------------- *)

let test_cnf_eval () =
  let f = Cnf.make ~n_vars:2 [ [ 1; 2 ]; [ -1; 2 ] ] in
  let a = [| false; false; true |] in
  checkb "satisfied" true (Cnf.eval a f);
  let b = [| false; true; false |] in
  checkb "unsatisfied" false (Cnf.eval b f);
  checki "one unsatisfied clause" 1 (List.length (Cnf.unsatisfied b f))

let test_cnf_rejects_bad_literal () =
  Alcotest.check_raises "literal 0" (Invalid_argument "Cnf.make: literal 0 out of range (n_vars=1)")
    (fun () -> ignore (Cnf.make ~n_vars:1 [ [ 0 ] ]));
  checkb "out of range" true
    (try
       ignore (Cnf.make ~n_vars:1 [ [ 2 ] ]);
       false
     with Invalid_argument _ -> true)

let test_tseitin_equisatisfiable () =
  (* (x1 /\ x2) \/ ~x3 *)
  let e = Cnf.Or [ Cnf.And [ Cnf.Var 1; Cnf.Var 2 ]; Cnf.Not (Cnf.Var 3) ] in
  let f = Cnf.tseitin ~n_vars:3 e in
  (match Brute.solve f with
  | Brute.Sat a ->
    (* Check the model against the original expression. *)
    let v i = a.(i) in
    checkb "model satisfies source expr" true ((v 1 && v 2) || not (v 3))
  | Brute.Unsat -> Alcotest.fail "satisfiable expression became UNSAT");
  (* A contradiction must stay UNSAT. *)
  let contra = Cnf.And [ Cnf.Var 1; Cnf.Not (Cnf.Var 1) ] in
  match Brute.solve (Cnf.tseitin ~n_vars:1 contra) with
  | Brute.Unsat -> ()
  | Brute.Sat _ -> Alcotest.fail "contradiction became SAT"

let test_tseitin_constants () =
  (match Brute.solve (Cnf.tseitin ~n_vars:1 (Cnf.Const true)) with
  | Brute.Sat _ -> ()
  | Brute.Unsat -> Alcotest.fail "true is sat");
  match Brute.solve (Cnf.tseitin ~n_vars:1 (Cnf.Const false)) with
  | Brute.Unsat -> ()
  | Brute.Sat _ -> Alcotest.fail "false is unsat"

(* Random small formulas for oracle comparisons. *)
let random_formula rng ~n_vars ~n_clauses ~clause_len =
  let clause () =
    List.init clause_len (fun _ ->
        let v = 1 + Rng.int rng n_vars in
        if Rng.bool rng then v else -v)
  in
  Cnf.make ~n_vars (List.init n_clauses (fun _ -> clause ()))

(* ---- DPLL ----------------------------------------------------------- *)

let test_dpll_trivial () =
  let f = Cnf.make ~n_vars:1 [ [ 1 ] ] in
  (match (Dpll.solve f).Dpll.verdict with
  | Dpll.Sat a -> checkb "x1 true" true a.(1)
  | _ -> Alcotest.fail "expected SAT");
  let g = Cnf.make ~n_vars:1 [ [ 1 ]; [ -1 ] ] in
  match (Dpll.solve g).Dpll.verdict with
  | Dpll.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_dpll_empty_formula () =
  let f = Cnf.make ~n_vars:3 [] in
  match (Dpll.solve f).Dpll.verdict with
  | Dpll.Sat _ -> ()
  | _ -> Alcotest.fail "empty formula is SAT"

let test_dpll_timeout () =
  let rng = Rng.create 5 in
  let f = random_formula rng ~n_vars:30 ~n_clauses:128 ~clause_len:3 in
  match (Dpll.solve ~budget:5 f).Dpll.verdict with
  | Dpll.Timeout -> ()
  | _ -> Alcotest.fail "tiny budget should time out"

let dpll_agrees_with_brute heuristic =
  QCheck.Test.make
    ~name:(Printf.sprintf "dpll agrees with brute force")
    ~count:150 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let n_vars = 3 + Rng.int rng 8 in
      let n_clauses = 2 + Rng.int rng 25 in
      let f = random_formula rng ~n_vars ~n_clauses ~clause_len:3 in
      let brute = Brute.solve f in
      match ((Dpll.solve ~heuristic f).Dpll.verdict, brute) with
      | Dpll.Sat a, Brute.Sat _ -> Cnf.eval a f
      | Dpll.Unsat, Brute.Unsat -> true
      | Dpll.Timeout, _ -> QCheck.Test.fail_report "unexpected timeout"
      | Dpll.Sat _, Brute.Unsat | Dpll.Unsat, Brute.Sat _ ->
        QCheck.Test.fail_report "verdict mismatch")

let prop_dpll_maxocc = dpll_agrees_with_brute Dpll.Max_occurrence
let prop_dpll_jw = dpll_agrees_with_brute Dpll.Jeroslow_wang

let prop_dpll_random_branch =
  QCheck.Test.make ~name:"dpll random-branch agrees with brute" ~count:100 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed + 2) in
      let f = random_formula rng ~n_vars:8 ~n_clauses:20 ~clause_len:3 in
      let brute = Brute.solve f in
      match
        ((Dpll.solve ~heuristic:(Dpll.Random_branch (Rng.create seed)) f).Dpll.verdict, brute)
      with
      | Dpll.Sat a, Brute.Sat _ -> Cnf.eval a f
      | Dpll.Unsat, Brute.Unsat -> true
      | _ -> false)

(* ---- WalkSAT -------------------------------------------------------- *)

let test_walksat_finds_model () =
  let f = Cnf.make ~n_vars:4 [ [ 1; 2 ]; [ -1; 3 ]; [ -3; 4 ]; [ 2; -4 ] ] in
  match (Walksat.solve ~rng:(Rng.create 3) f).Walksat.verdict with
  | Walksat.Sat a -> checkb "model valid" true (Cnf.eval a f)
  | Walksat.Timeout -> Alcotest.fail "easy instance timed out"

let test_walksat_empty () =
  let f = Cnf.make ~n_vars:0 [] in
  match (Walksat.solve ~rng:(Rng.create 1) f).Walksat.verdict with
  | Walksat.Sat _ -> ()
  | Walksat.Timeout -> Alcotest.fail "empty formula"

let test_walksat_gives_up_on_unsat () =
  let f = Cnf.make ~n_vars:1 [ [ 1 ]; [ -1 ] ] in
  match (Walksat.solve ~budget:10_000 ~rng:(Rng.create 2) f).Walksat.verdict with
  | Walksat.Timeout -> ()
  | Walksat.Sat _ -> Alcotest.fail "found a model of an UNSAT formula"

let prop_walksat_models_valid =
  QCheck.Test.make ~name:"walksat models satisfy the formula" ~count:100 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed + 3) in
      let f = random_formula rng ~n_vars:10 ~n_clauses:20 ~clause_len:3 in
      match (Walksat.solve ~budget:200_000 ~rng:(Rng.create seed) f).Walksat.verdict with
      | Walksat.Sat a -> Cnf.eval a f
      | Walksat.Timeout -> true)

(* ---- Path conditions -------------------------------------------------- *)

let atom_lt slot c = Path_cond.atom (Ir.Binop (Ir.Lt, Ir.Input slot, Ir.Const c)) true
let atom_mod_eq slot m r expected =
  Path_cond.atom
    (Ir.Binop (Ir.Eq, Ir.Binop (Ir.Mod, Ir.Input slot, Ir.Const m), Ir.Const r))
    expected

let test_path_cond_eval () =
  let pc = [ atom_lt 0 10; atom_mod_eq 1 4 2 true ] in
  checkb "satisfied" true (Path_cond.satisfied_by pc [| 5; 6 |]);
  checkb "violated first" false (Path_cond.satisfied_by pc [| 15; 6 |]);
  checkb "violated second" false (Path_cond.satisfied_by pc [| 5; 7 |])

let test_path_cond_metadata () =
  let pc = [ atom_lt 0 10; atom_mod_eq 2 64 13 true ] in
  Alcotest.(check (list int)) "inputs" [ 0; 2 ] (Path_cond.inputs_used pc);
  checkb "64 among moduli" true (List.mem 64 (Path_cond.moduli pc));
  checkb "13 among constants" true (List.mem 13 (Path_cond.constants pc));
  checkb "well formed" true (Path_cond.well_formed pc);
  checkb "var not well formed" false
    (Path_cond.well_formed [ Path_cond.atom (Ir.Var (Ir.Local "x")) true ])

let test_path_cond_div_zero_traps () =
  let pc = [ Path_cond.atom (Ir.Binop (Ir.Div, Ir.Const 10, Ir.Input 0)) true ] in
  checkb "div by zero fails the atom" false (Path_cond.satisfied_by pc [| 0 |]);
  checkb "nonzero ok" true (Path_cond.satisfied_by pc [| 2 |])

(* Every undefined value fails its atom, wherever it sits in the
   expression: [And]/[Or] evaluate both operands, so a trap is not
   short-circuited away. *)
let test_path_cond_undefined_fails () =
  let holds cond inputs = Path_cond.satisfied_by [ Path_cond.atom cond true ] inputs in
  let trap = Ir.Binop (Ir.Mod, Ir.Const 7, Ir.Input 0) in
  checkb "mod by zero" false (holds (Ir.Binop (Ir.Ge, trap, Ir.Const 0)) [| 0 |]);
  checkb "mod defined" true (holds (Ir.Binop (Ir.Ge, trap, Ir.Const 0)) [| 3 |]);
  checkb "input out of range" false (holds (Ir.Binop (Ir.Ge, Ir.Input 2, Ir.Const 0)) [| 1; 1 |]);
  checkb "stray var" false (holds (Ir.Var (Ir.Local "x")) [| 1 |]);
  checkb "and does not short-circuit" false (holds (Ir.Binop (Ir.And, Ir.Const 0, trap)) [| 0 |]);
  checkb "or does not short-circuit" false (holds (Ir.Binop (Ir.Or, Ir.Const 1, trap)) [| 0 |]);
  checkb "negated atom still fails" false
    (Path_cond.satisfied_by [ Path_cond.atom (Ir.Unop (Ir.Not, trap)) false ] [| 0 |])

(* ---- Interval solver --------------------------------------------------- *)

let solve ?budget pc ~n = Interval.solve ?budget ~domain:(-64, 255) ~n_inputs:n pc

let test_interval_finds_rare_residue () =
  (* The generator's rare-bug shape: in[0] mod 64 = 13. *)
  let pc = [ atom_mod_eq 0 64 13 true ] in
  match (solve pc ~n:1).Interval.verdict with
  | Interval.Sat model -> checki "model residue" 13 (((model.(0) mod 64) + 64) mod 64)
  | _ -> Alcotest.fail "expected SAT"

let test_interval_unsat () =
  let pc = [ atom_lt 0 5; Path_cond.atom (Ir.Binop (Ir.Gt, Ir.Input 0, Ir.Const 10)) true ] in
  match (solve pc ~n:1).Interval.verdict with
  | Interval.Unsat -> ()
  | _ -> Alcotest.fail "contradictory bounds should be UNSAT"

let test_interval_multi_input () =
  let pc =
    [
      Path_cond.atom
        (Ir.Binop (Ir.Eq, Ir.Binop (Ir.Add, Ir.Input 0, Ir.Input 1), Ir.Const 100))
        true;
      atom_lt 0 3;
      Path_cond.atom (Ir.Binop (Ir.Ge, Ir.Input 0, Ir.Const 0)) true;
    ]
  in
  match (solve pc ~n:2).Interval.verdict with
  | Interval.Sat model ->
    checkb "sum is 100" true (model.(0) + model.(1) = 100);
    checkb "first small" true (model.(0) < 3 && model.(0) >= 0)
  | _ -> Alcotest.fail "expected SAT"

let test_interval_domain_restriction () =
  (* in[0] > 300 has no model in domain [-64, 255]. *)
  let pc = [ Path_cond.atom (Ir.Binop (Ir.Gt, Ir.Input 0, Ir.Const 300)) true ] in
  match (solve pc ~n:1).Interval.verdict with
  | Interval.Unsat -> ()
  | _ -> Alcotest.fail "outside domain should be UNSAT"

let test_interval_empty_condition () =
  match (solve [] ~n:2).Interval.verdict with
  | Interval.Sat _ -> ()
  | _ -> Alcotest.fail "empty condition is trivially SAT"

let test_interval_negated_atoms () =
  let pc = [ atom_mod_eq 0 4 1 false; atom_lt 0 2 ] in
  match (solve pc ~n:1).Interval.verdict with
  | Interval.Sat model ->
    (* IR mod is OCaml's truncated mod; the negated atom speaks that
       dialect, so check it the same way. *)
    checkb "respects negation" true (model.(0) mod 4 <> 1);
    checkb "respects bound" true (model.(0) < 2)
  | _ -> Alcotest.fail "expected SAT"

let test_interval_check_only () =
  let impossible =
    [ atom_lt 0 0; Path_cond.atom (Ir.Binop (Ir.Ge, Ir.Input 0, Ir.Const 0)) true ]
  in
  checkb "refutes impossible" true
    (Interval.check_interval_only ~domain:(-64, 255) ~n_inputs:1 impossible = `Infeasible);
  checkb "admits possible" true
    (Interval.check_interval_only ~domain:(-64, 255) ~n_inputs:1 [ atom_lt 0 10 ] = `Feasible)

(* The random conditions the interval and race properties draw, one
   generator per property shape; each returns the arity and the atoms.
   The outcome pin below replays them at the hive's budget. *)

(* Random conjunctions of comparisons and residue constraints over up
   to three inputs. *)
let random_wide_condition rng =
  let n = 1 + Rng.int rng 3 in
  let atoms =
    List.init
      (1 + Rng.int rng 3)
      (fun _ ->
        let slot = Rng.int rng n in
        match Rng.int rng 3 with
        | 0 -> atom_lt slot (Rng.int_in rng (-10) 60)
        | 1 -> atom_mod_eq slot (2 + Rng.int rng 10) (Rng.int rng 5) (Rng.bool rng)
        | _ -> Path_cond.atom (Ir.Binop (Ir.Ge, Ir.Input slot, Ir.Const (Rng.int_in rng (-30) 30))) true)
  in
  (n, atoms)

(* Two atoms over one input. *)
let random_one_input_condition rng =
  let atoms =
    List.init 2 (fun _ ->
        match Rng.int rng 2 with
        | 0 -> atom_lt 0 (Rng.int_in rng (-20) 20)
        | _ -> atom_mod_eq 0 (2 + Rng.int rng 6) (Rng.int rng 4) (Rng.bool rng))
  in
  (1, atoms)

(* Up to three atoms over one or two inputs. *)
let random_small_condition rng =
  let n = 1 + Rng.int rng 2 in
  let atoms =
    List.init
      (1 + Rng.int rng 3)
      (fun _ ->
        let slot = Rng.int rng n in
        match Rng.int rng 3 with
        | 0 -> atom_lt slot (Rng.int_in rng (-10) 40)
        | 1 -> atom_mod_eq slot (2 + Rng.int rng 8) (Rng.int rng 5) (Rng.bool rng)
        | _ ->
          Path_cond.atom
            (Ir.Binop (Ir.Ge, Ir.Input slot, Ir.Const (Rng.int_in rng (-20) 20)))
            true)
  in
  (n, atoms)

let prop_interval_models_satisfy =
  QCheck.Test.make ~name:"interval SAT models satisfy the condition" ~count:150
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 11) in
      let n, atoms = random_wide_condition rng in
      match (solve atoms ~n).Interval.verdict with
      | Interval.Sat model -> Path_cond.satisfied_by atoms model
      | Interval.Unsat | Interval.Timeout -> true)

let prop_interval_unsat_means_no_model =
  QCheck.Test.make ~name:"interval UNSAT verified by sweep (1 input)" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 17) in
      let _, atoms = random_one_input_condition rng in
      match (Interval.solve ~domain:(-20, 40) ~n_inputs:1 atoms).Interval.verdict with
      | Interval.Unsat ->
        (* Exhaustive check over the domain. *)
        not
          (List.exists
             (fun v -> Path_cond.satisfied_by atoms [| v |])
             (List.init 61 (fun k -> k - 20)))
      | Interval.Sat _ | Interval.Timeout -> true)

(* ---- Portfolio ---------------------------------------------------------- *)

(* A deterministic fake member: [start] performs [start_steps] steps,
   then it performs steps until [total] and (if [verdict] is a decision)
   reports it.  V_unknown fakes never decide and just burn budget. *)
let fake ?(budget = 1_000_000) ?(start_steps = 0) name total verdict =
  {
    Portfolio.name;
    budget;
    start =
      (fun _ ->
        let steps = ref start_steps in
        {
          Portfolio.step =
            (fun ~fuel ->
              let decides = verdict <> Portfolio.V_unknown in
              if decides && !steps >= total then `Done verdict
              else begin
                let burn = if decides then min fuel (total - !steps) else fuel in
                steps := !steps + max 1 burn;
                if decides && !steps >= total then `Done verdict else `More
              end);
          Portfolio.steps = (fun () -> !steps);
        });
  }

let test_race_preempts_losers () =
  let f = Cnf.make ~n_vars:1 [ [ 1 ] ] in
  let result =
    Portfolio.race ~slice:16
      [
        fake "slow" 1000 Portfolio.V_sat;
        fake "fast" 10 Portfolio.V_sat;
        fake ~start_steps:100 "lost" 5000 Portfolio.V_unknown;
      ]
      f
  in
  (* Round 1: slow burns one 16-step slice, fast decides at 10 — so
     fast wins and lost is never started on a slice.  The race never
     reached lost, so the work its [start] did is not charged. *)
  Alcotest.(check (option string)) "winner" (Some "fast") result.Portfolio.winner;
  checki "wall steps" 10 result.Portfolio.wall_steps;
  checki "resource steps" 26 result.Portfolio.resource_steps;
  checkb "verdict" true (result.Portfolio.verdict = Portfolio.V_sat)

let test_race_round_tie_break () =
  (* Two members decide within the same round: the one earlier in
     portfolio order wins, even with a worse step count — the schedule
     order, not the step count, picks the winner. *)
  let f = Cnf.make ~n_vars:1 [ [ 1 ] ] in
  let result =
    Portfolio.race ~slice:16 [ fake "a" 10 Portfolio.V_sat; fake "b" 5 Portfolio.V_sat ] f
  in
  Alcotest.(check (option string)) "winner" (Some "a") result.Portfolio.winner;
  checki "wall steps" 10 result.Portfolio.wall_steps;
  (* b never runs: a decides before b's first slice. *)
  checki "resource steps" 10 result.Portfolio.resource_steps

let test_race_all_unknown () =
  let f = Cnf.make ~n_vars:1 [ [ 1 ] ] in
  let result =
    Portfolio.race ~slice:16
      [
        fake ~budget:100 "a" 0 Portfolio.V_unknown;
        fake ~budget:50 "b" 0 Portfolio.V_unknown;
      ]
      f
  in
  checkb "no winner" true (result.Portfolio.winner = None);
  checki "wall is max" 100 result.Portfolio.wall_steps;
  checki "resources are sum" 150 result.Portfolio.resource_steps

let test_standard_three_correct () =
  let rng = Rng.create 77 in
  for _ = 1 to 20 do
    let f = random_formula rng ~n_vars:8 ~n_clauses:18 ~clause_len:3 in
    let brute = Brute.solve f in
    let result = Portfolio.race (Portfolio.standard_three ~budget:2_000_000 ~seed:9) f in
    match (result.Portfolio.verdict, brute) with
    | Portfolio.V_sat, Brute.Sat _ -> ()
    | Portfolio.V_unsat, Brute.Unsat -> ()
    | Portfolio.V_unknown, _ -> ()
    | Portfolio.V_sat, Brute.Unsat -> Alcotest.fail "portfolio claimed SAT on UNSAT"
    | Portfolio.V_unsat, Brute.Sat _ -> Alcotest.fail "portfolio claimed UNSAT on SAT"
  done

let test_whole_budget_wall_equals_best () =
  let rng = Rng.create 123 in
  for _ = 1 to 10 do
    let f = random_formula rng ~n_vars:12 ~n_clauses:40 ~clause_len:3 in
    let members = Portfolio.standard_three ~budget:2_000_000 ~seed:5 in
    let result = Portfolio.race_whole_budget members f in
    let deciders =
      List.filter
        (fun (r : Portfolio.run) -> r.Portfolio.verdict <> Portfolio.V_unknown)
        result.Portfolio.runs
    in
    match deciders with
    | [] -> ()
    | _ ->
      let best =
        List.fold_left (fun acc (r : Portfolio.run) -> min acc r.Portfolio.steps) max_int deciders
      in
      checki "wall = best single" best result.Portfolio.wall_steps
  done

let test_race_preemption_saves_resources () =
  (* The tentpole's point: on instances where profiles diverge, the
     preemptive race must execute strictly fewer steps than running
     everyone to the end. *)
  let rng = Rng.create 321 in
  let saved = ref 0 in
  for _ = 1 to 10 do
    let f = random_formula rng ~n_vars:10 ~n_clauses:25 ~clause_len:3 in
    let members seed = Portfolio.standard_three ~budget:2_000_000 ~seed in
    let sliced = Portfolio.race (members 5) f in
    let whole = Portfolio.race_whole_budget (members 5) f in
    checkb "verdicts agree" true (sliced.Portfolio.verdict = whole.Portfolio.verdict);
    checkb "sliced never does more" true
      (sliced.Portfolio.resource_steps <= whole.Portfolio.resource_steps);
    if sliced.Portfolio.resource_steps < whole.Portfolio.resource_steps then incr saved
  done;
  checkb "preemption saved work at least once" true (!saved > 0)

let test_speedup_guard () =
  checkb "nan on zero" true (Float.is_nan (Portfolio.speedup ~single_steps:10.0 ~portfolio_steps:0.0));
  Alcotest.(check (float 1e-9)) "ratio" 2.0 (Portfolio.speedup ~single_steps:10.0 ~portfolio_steps:5.0)

(* Satellite: sliced sequential, whole-budget, and the brute-force
   oracle must agree on verdicts, for any slice size. *)
let prop_race_verdicts_agree =
  QCheck.Test.make ~name:"race ~ whole-budget ~ brute verdicts" ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed + 31) in
      let n_vars = 3 + Rng.int rng 7 in
      let n_clauses = 2 + Rng.int rng 22 in
      let f = random_formula rng ~n_vars ~n_clauses ~clause_len:3 in
      let members () = Portfolio.standard_three ~budget:2_000_000 ~seed:(seed + 1) in
      let brute = Brute.solve f in
      let sliced = Portfolio.race ~slice:(1 + Rng.int rng 500) (members ()) f in
      let whole = Portfolio.race_whole_budget (members ()) f in
      let agrees = function
        | Portfolio.V_sat -> (match brute with Brute.Sat _ -> true | Brute.Unsat -> false)
        | Portfolio.V_unsat -> brute = Brute.Unsat
        | Portfolio.V_unknown -> true
      in
      agrees sliced.Portfolio.verdict && agrees whole.Portfolio.verdict
      && sliced.Portfolio.verdict = whole.Portfolio.verdict)

(* Per-member accounting on real solvers: the winner's run is its
   whole-budget run, every loser stops no later than its whole-budget
   run, and [resource_steps] sums what the race charged.  Steps are not
   bounded by [budget]: DPLL can overshoot it by one step granule. *)
let prop_race_accounting_within_whole_budget =
  QCheck.Test.make ~name:"race accounting within whole-budget runs" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 61) in
      let n_vars = 3 + Rng.int rng 10 in
      let f =
        random_formula rng ~n_vars ~n_clauses:(2 + Rng.int rng (5 * n_vars)) ~clause_len:3
      in
      let slice = 1 + Rng.int rng 500 in
      let budget = 1 + Rng.int rng 20_000 in
      let members () = Portfolio.standard_three ~budget ~seed:(seed + 3) in
      let race = Portfolio.race ~slice (members ()) f in
      let whole = Portfolio.race_whole_budget (members ()) f in
      let charged (r : Portfolio.run) (w : Portfolio.run) =
        if Some r.Portfolio.solver = race.Portfolio.winner then
          r.Portfolio.verdict = w.Portfolio.verdict
          && r.Portfolio.steps = w.Portfolio.steps
          && race.Portfolio.wall_steps = w.Portfolio.steps
        else r.Portfolio.steps <= w.Portfolio.steps
      in
      List.for_all2 charged race.Portfolio.runs whole.Portfolio.runs
      && race.Portfolio.resource_steps
         = List.fold_left (fun acc (r : Portfolio.run) -> acc + r.Portfolio.steps) 0
             race.Portfolio.runs)

(* ---- Step slicing ------------------------------------------------------- *)

(* Drive a resumable machine with randomly-sized slices; trajectory
   and verdict must match the whole-budget run exactly. *)
let run_sliced rng step =
  let rec go () =
    match step ~fuel:(1 + Rng.int rng 64) with `Done v -> v | `More -> go ()
  in
  go ()

let prop_dpll_slicing_invariant =
  QCheck.Test.make ~name:"dpll slicing does not change the trajectory" ~count:80
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 51) in
      let f = random_formula rng ~n_vars:(3 + Rng.int rng 6) ~n_clauses:(2 + Rng.int rng 18) ~clause_len:3 in
      let whole = Dpll.start f in
      let sliced = Dpll.start f in
      let wv = match Dpll.step whole ~fuel:max_int with `Done v -> v | `More -> assert false in
      let sv = run_sliced rng (Dpll.step sliced) in
      let same_verdict =
        match (wv, sv) with
        | Dpll.Sat a, Dpll.Sat b -> a = b
        | Dpll.Unsat, Dpll.Unsat -> true
        | _ -> false
      in
      same_verdict && Dpll.steps whole = Dpll.steps sliced)

let prop_walksat_slicing_invariant =
  QCheck.Test.make ~name:"walksat slicing does not change the trajectory" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 61) in
      let f = random_formula rng ~n_vars:(3 + Rng.int rng 6) ~n_clauses:(2 + Rng.int rng 12) ~clause_len:3 in
      let whole = Walksat.start ~rng:(Rng.create seed) f in
      let sliced = Walksat.start ~rng:(Rng.create seed) f in
      let budget = 50_000 in
      let wv = Walksat.step whole ~fuel:budget in
      (* [fuel] is relative to the call ([start]'s recount already
         burned steps), so the sliced runner must budget consumed
         fuel, not absolute step counts. *)
      let start_steps = Walksat.steps sliced in
      let rec go () =
        let consumed = Walksat.steps sliced - start_steps in
        if consumed >= budget then `More
        else
          match Walksat.step sliced ~fuel:(min (1 + Rng.int rng 64) (budget - consumed)) with
          | `Done v -> `Done v
          | `More -> go ()
      in
      let sv = go () in
      match (wv, sv) with
      | `Done (Walksat.Sat a), `Done (Walksat.Sat b) ->
        a = b && Walksat.steps whole = Walksat.steps sliced
      | `More, `More -> Walksat.steps whole = Walksat.steps sliced
      | _ -> false)

let prop_interval_slicing_invariant =
  QCheck.Test.make ~name:"interval slicing does not change the trajectory" ~count:80
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 71) in
      let n, atoms = random_small_condition rng in
      let domain = (-20, 40) in
      let whole = Interval.start ~domain ~n_inputs:n atoms in
      let sliced = Interval.start ~domain ~n_inputs:n atoms in
      let wv = match Interval.step whole ~fuel:max_int with `Done v -> v | `More -> assert false in
      let sv = run_sliced rng (Interval.step sliced) in
      wv = sv && Interval.enum_steps whole = Interval.enum_steps sliced)

(* ---- Pc_solve and the verdict cache ------------------------------------- *)

module Pc_solve = Softborg_solver.Pc_solve
module Verdict_cache = Softborg_solver.Verdict_cache

let prop_pc_solve_agrees_with_interval =
  QCheck.Test.make ~name:"pc_solve race agrees with pure enumeration" ~count:80
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 81) in
      let n, atoms = random_small_condition rng in
      let domain = (-20, 40) in
      let pure = Interval.solve ~domain ~n_inputs:n atoms in
      let raced = Pc_solve.solve ~domain ~n_inputs:n atoms in
      match (pure.Interval.verdict, raced.Interval.verdict) with
      | Interval.Sat _, Interval.Sat model -> Path_cond.satisfied_by atoms model
      | Interval.Unsat, Interval.Unsat -> true
      | Interval.Timeout, _ | _, Interval.Timeout -> true
      | _ -> false)

let test_pc_solve_probe_wins_loose_condition () =
  (* A condition satisfied by almost every vector: the probe should
     decide far before the enumeration finishes its first pass, and
     the model must still check out. *)
  let atoms = [ Path_cond.atom (Ir.Binop (Ir.Ge, Ir.Input 0, Ir.Const (-64))) true ] in
  let outcome = Pc_solve.solve ~domain:(-64, 255) ~n_inputs:3 atoms in
  match outcome.Interval.verdict with
  | Interval.Sat model -> checkb "model valid" true (Path_cond.satisfied_by atoms model)
  | _ -> Alcotest.fail "trivially satisfiable condition"

let test_verdict_cache_hits () =
  let cache = Verdict_cache.create () in
  let atoms = [ atom_mod_eq 0 64 13 true ] in
  let domain = (-64, 255) in
  let first = Pc_solve.solve ~cache ~domain ~n_inputs:1 atoms in
  let second = Pc_solve.solve ~cache ~domain ~n_inputs:1 atoms in
  checkb "same verdict" true (first.Interval.verdict = second.Interval.verdict);
  checki "hit costs nothing" 0 second.Interval.steps;
  checkb "first did real work" true (first.Interval.steps > 0);
  checki "one hit" 1 (Verdict_cache.hits cache);
  (* A different budget is a different query: no false hit. *)
  let third = Pc_solve.solve ~cache ~budget:123_456 ~domain ~n_inputs:1 atoms in
  checkb "different budget recomputes" true (third.Interval.steps > 0)

let test_verdict_cache_check_kind_separate () =
  let cache = Verdict_cache.create () in
  let atoms = [ atom_lt 0 10 ] in
  let domain = (-64, 255) in
  let status = Pc_solve.check ~cache ~domain ~n_inputs:1 atoms in
  checkb "feasible" true (status = `Feasible);
  let again = Pc_solve.check ~cache ~domain ~n_inputs:1 atoms in
  checkb "stable" true (again = `Feasible);
  checki "check hit recorded" 1 (Verdict_cache.hits cache);
  (* The solve query for the same condition must not collide with the
     check entry. *)
  let solved = Pc_solve.solve ~cache ~domain ~n_inputs:1 atoms in
  checkb "solve still decides" true (solved.Interval.verdict <> Interval.Timeout)

let test_path_cond_digest () =
  let a = [ atom_lt 0 10; atom_mod_eq 1 4 2 true ] in
  let b = [ atom_lt 0 10; atom_mod_eq 1 4 2 true ] in
  let c = [ atom_lt 0 10; atom_mod_eq 1 4 2 false ] in
  checkb "equal conditions digest equally" true (Path_cond.digest a = Path_cond.digest b);
  checkb "expected flag matters" false (Path_cond.digest a = Path_cond.digest c);
  checkb "order matters" false
    (Path_cond.digest a = Path_cond.digest (List.rev a))

(* ---- Pinned solver outcomes --------------------------------------------- *)

module Generator = Softborg_prog.Generator
module Corpus = Softborg_prog.Corpus
module Sym_exec = Softborg_symexec.Sym_exec
module Consistency = Softborg_symexec.Consistency
module Hive = Softborg_hive.Hive
module Scenario = Softborg.Scenario

let hive_symexec_config = (Hive.default_config Hive.Full).Hive.symexec_config

(* A fixed corpus of (arity, condition) queries: every path condition
   [Sym_exec.explore] emits at the hive's symexec config (models off)
   for the corpus programs and the [analysis] benchmark population,
   then the first 100 seeds of each random-condition property above. *)
let pinned_corpus () =
  let config = { hive_symexec_config with Sym_exec.solve_models = false } in
  let _, population =
    Scenario.buggy_population ~seed:42 ~n_programs:8
      ~bugs:
        [ Generator.Rare_assert; Generator.Unchecked_syscall; Generator.Div_by_zero;
          Generator.Deadlock_pair ]
      ()
  in
  let explored =
    List.concat_map
      (fun program ->
        List.map
          (fun (path : Sym_exec.path) ->
            (Array.length path.Sym_exec.origins, path.Sym_exec.condition))
          (Sym_exec.explore ~config program Consistency.Strict).Sym_exec.paths)
      (List.map snd Corpus.all @ List.map fst population)
  in
  let drawn =
    List.concat_map
      (fun (offset, draw) -> List.init 100 (fun seed -> draw (Rng.create (seed + offset))))
      [
        (11, random_wide_condition);
        (17, random_one_input_condition);
        (71, random_small_condition);
        (81, random_small_condition);
      ]
  in
  explored @ drawn

let pinned_outcomes_digest = "8dd736ff828b08ea7196b81f18031200"

(* [Pc_solve.solve]'s whole outcome — verdict, steps and the model it
   returns — at the hive's budget and domain, hashed over the pinned
   corpus.  Verdict pins (test_symexec) miss a change that keeps
   verdicts but moves step counts or picks another model; this one
   does not.  The corpus must exercise every way a solve ends: a model
   the probe found (it differs from pure enumeration's), Unsat, and
   Timeout. *)
let test_pc_solve_outcomes_pinned () =
  let budget = hive_symexec_config.Sym_exec.solver_budget in
  let domain = hive_symexec_config.Sym_exec.domain in
  let buf = Buffer.create 65536 in
  let probe_sats = ref 0 and unsats = ref 0 and timeouts = ref 0 in
  List.iter
    (fun (n_inputs, cond) ->
      let outcome = Pc_solve.solve ~budget ~domain ~n_inputs cond in
      Printf.bprintf buf "%d:%d:" n_inputs outcome.Interval.steps;
      (match outcome.Interval.verdict with
      | Interval.Sat model ->
        let enumerated = Interval.solve ~budget ~domain ~n_inputs cond in
        if enumerated.Interval.verdict <> Interval.Sat model then incr probe_sats;
        Printf.bprintf buf "sat[%s]"
          (String.concat "," (Array.to_list (Array.map string_of_int model)))
      | Interval.Unsat ->
        incr unsats;
        Buffer.add_string buf "unsat"
      | Interval.Timeout ->
        incr timeouts;
        Buffer.add_string buf "timeout");
      Buffer.add_char buf '\n')
    (pinned_corpus ());
  checkb (Printf.sprintf "probe-found models (%d)" !probe_sats) true (!probe_sats > 0);
  checkb (Printf.sprintf "unsat results (%d)" !unsats) true (!unsats > 0);
  checkb (Printf.sprintf "timeouts (%d)" !timeouts) true (!timeouts > 0);
  Alcotest.(check string)
    "outcome digest" pinned_outcomes_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_solver"
    [
      ( "cnf",
        [
          Alcotest.test_case "eval" `Quick test_cnf_eval;
          Alcotest.test_case "bad literal" `Quick test_cnf_rejects_bad_literal;
          Alcotest.test_case "tseitin equisat" `Quick test_tseitin_equisatisfiable;
          Alcotest.test_case "tseitin constants" `Quick test_tseitin_constants;
        ] );
      ( "dpll",
        [
          Alcotest.test_case "trivial" `Quick test_dpll_trivial;
          Alcotest.test_case "empty" `Quick test_dpll_empty_formula;
          Alcotest.test_case "timeout" `Quick test_dpll_timeout;
          q prop_dpll_maxocc;
          q prop_dpll_jw;
          q prop_dpll_random_branch;
        ] );
      ( "walksat",
        [
          Alcotest.test_case "finds model" `Quick test_walksat_finds_model;
          Alcotest.test_case "empty" `Quick test_walksat_empty;
          Alcotest.test_case "gives up on unsat" `Quick test_walksat_gives_up_on_unsat;
          q prop_walksat_models_valid;
        ] );
      ( "path_cond",
        [
          Alcotest.test_case "eval" `Quick test_path_cond_eval;
          Alcotest.test_case "metadata" `Quick test_path_cond_metadata;
          Alcotest.test_case "div0 traps" `Quick test_path_cond_div_zero_traps;
          Alcotest.test_case "undefined fails" `Quick test_path_cond_undefined_fails;
        ] );
      ( "interval",
        [
          Alcotest.test_case "rare residue" `Quick test_interval_finds_rare_residue;
          Alcotest.test_case "unsat" `Quick test_interval_unsat;
          Alcotest.test_case "multi input" `Quick test_interval_multi_input;
          Alcotest.test_case "domain restriction" `Quick test_interval_domain_restriction;
          Alcotest.test_case "empty condition" `Quick test_interval_empty_condition;
          Alcotest.test_case "negated atoms" `Quick test_interval_negated_atoms;
          Alcotest.test_case "check only" `Quick test_interval_check_only;
          q prop_interval_models_satisfy;
          q prop_interval_unsat_means_no_model;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "preempts losers" `Quick test_race_preempts_losers;
          Alcotest.test_case "round tie-break" `Quick test_race_round_tie_break;
          Alcotest.test_case "all unknown" `Quick test_race_all_unknown;
          Alcotest.test_case "standard three correct" `Quick test_standard_three_correct;
          Alcotest.test_case "whole-budget wall equals best" `Quick
            test_whole_budget_wall_equals_best;
          Alcotest.test_case "preemption saves resources" `Quick
            test_race_preemption_saves_resources;
          Alcotest.test_case "speedup guard" `Quick test_speedup_guard;
          q prop_race_verdicts_agree;
          q prop_race_accounting_within_whole_budget;
        ] );
      ( "slicing",
        [
          q prop_dpll_slicing_invariant;
          q prop_walksat_slicing_invariant;
          q prop_interval_slicing_invariant;
        ] );
      ( "pc_solve",
        [
          Alcotest.test_case "probe wins loose condition" `Quick
            test_pc_solve_probe_wins_loose_condition;
          Alcotest.test_case "verdict cache hits" `Quick test_verdict_cache_hits;
          Alcotest.test_case "check/solve keys separate" `Quick
            test_verdict_cache_check_kind_separate;
          Alcotest.test_case "path-cond digest" `Quick test_path_cond_digest;
          Alcotest.test_case "outcomes pinned" `Quick test_pc_solve_outcomes_pinned;
          q prop_pc_solve_agrees_with_interval;
        ] );
    ]
