(* Bytecode VM ≡ tree-walk interpreter: the VM must be a drop-in
   engine, so every observable by-product — outcome, branch bits,
   decisions, schedule, syscall summaries, lock events, counters — must
   be identical in both record and replay mode, hooks included. *)

module Ir = Softborg_prog.Ir
module Build = Softborg_prog.Build
module Corpus = Softborg_prog.Corpus
module Generator = Softborg_prog.Generator
module Rng = Softborg_util.Rng
module Bitvec = Softborg_util.Bitvec
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Vm = Softborg_exec.Vm
module Bytecode = Softborg_exec.Bytecode
module Engine = Softborg_exec.Engine

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ---- Result comparison -------------------------------------------- *)

let outcome_str o = Format.asprintf "%a" Softborg_exec.Outcome.pp o

let result_equal (a : Interp.result) (b : Interp.result) =
  a.Interp.outcome = b.Interp.outcome
  && Bitvec.equal a.Interp.bits b.Interp.bits
  && a.Interp.full_path = b.Interp.full_path
  && a.Interp.schedule = b.Interp.schedule
  && a.Interp.syscalls = b.Interp.syscalls
  && a.Interp.lock_events = b.Interp.lock_events
  && a.Interp.steps = b.Interp.steps
  && a.Interp.deferred_acquisitions = b.Interp.deferred_acquisitions
  && a.Interp.suppressed_crashes = b.Interp.suppressed_crashes

let explain_mismatch (tree : Interp.result) (vm : Interp.result) =
  let b field = Printf.sprintf "%s differ" field in
  if tree.Interp.outcome <> vm.Interp.outcome then
    Printf.sprintf "outcome: tree=%s vm=%s" (outcome_str tree.Interp.outcome)
      (outcome_str vm.Interp.outcome)
  else if not (Bitvec.equal tree.Interp.bits vm.Interp.bits) then b "bits"
  else if tree.Interp.full_path <> vm.Interp.full_path then b "full_path"
  else if tree.Interp.schedule <> vm.Interp.schedule then b "schedule"
  else if tree.Interp.syscalls <> vm.Interp.syscalls then b "syscalls"
  else if tree.Interp.lock_events <> vm.Interp.lock_events then b "lock_events"
  else if tree.Interp.steps <> vm.Interp.steps then
    Printf.sprintf "steps: tree=%d vm=%d" tree.Interp.steps vm.Interp.steps
  else if tree.Interp.deferred_acquisitions <> vm.Interp.deferred_acquisitions then b "deferred"
  else if tree.Interp.suppressed_crashes <> vm.Interp.suppressed_crashes then b "suppressed"
  else "equal"

(* Run both engines from identical (inputs, seed, fault plan, policy).
   Policies carry mutable RNG state, so each engine gets a fresh one
   built by [make_sched]. *)
let run_both ?max_steps ?tree_hooks ?vm_hooks ~program ~make_env ~make_sched () =
  let tree = Interp.run ?max_steps ?hooks:tree_hooks ~program ~env:(make_env ()) ~sched:(make_sched ()) () in
  let vm = Vm.execute ?max_steps ?hooks:vm_hooks ~program ~env:(make_env ()) ~sched:(make_sched ()) () in
  (tree, vm)

let gen_program pseed =
  let bugs =
    match pseed mod 4 with
    | 0 -> []
    | 1 -> [ Generator.Rare_assert; Generator.Div_by_zero ]
    | 2 -> [ Generator.Deadlock_pair ]
    | _ -> [ Generator.Atomicity_race; Generator.Unchecked_syscall ]
  in
  fst (Generator.generate (Rng.create (pseed + 1)) { Generator.default_params with Generator.bugs })

let gen_env prog iseed () =
  let input_rng = Rng.create (iseed + 10_000) in
  let inputs = Array.init prog.Ir.n_inputs (fun _ -> Rng.int_in input_rng (-100) 500) in
  let fault_plan = if iseed mod 3 = 0 then Env.Random_faults 0.2 else Env.No_faults in
  Env.make ~fault_plan ~seed:(iseed + 5) ~inputs ()

(* One program whose by-products overflow every initial buffer many
   times over: a tainted loop of 1,000-1,600 iterations (the trip count
   derives from input 0, so every loop test records a decision bit),
   each making a syscall and taking and releasing a lock, while a second
   thread contends on the same lock. *)
let long_loop =
  let open Build in
  let open Build.Infix in
  program ~name:"long-loop" ~globals:[ "g" ] ~n_inputs:1 ~n_locks:1
    [
      [
        assign (lvar "i") (input 0 -: const 1500);
        while_
          (local "i" <: const 0)
          [
            syscall Ir.Sys_read (lvar "x");
            lock 0;
            assign (gvar "g") (glob "g" +: local "x");
            unlock 0;
            assign (lvar "i") (local "i" +: const 1);
          ];
      ];
      [
        assign (lvar "j") (const 0);
        while_
          (local "j" <: const 50)
          [
            lock 0;
            assign (gvar "g") (glob "g" +: const 1);
            unlock 0;
            assign (lvar "j") (local "j" +: const 1);
          ];
      ];
    ]

(* Inputs of the record and replay properties: a generated program, or
   in one case of eight [long_loop] at the default step budget. *)
let property_program pseed =
  if pseed mod 8 = 7 then (long_loop, 20_000) else (gen_program pseed, 3000)

(* ---- Corpus unit tests -------------------------------------------- *)

let test_corpus_equivalence () =
  List.iter
    (fun (name, prog) ->
      for iseed = 0 to 5 do
        let tree, vm =
          run_both ~program:prog ~make_env:(gen_env prog iseed)
            ~make_sched:(fun () -> Sched.Random_sched (Rng.create (iseed + 3)))
            ()
        in
        checks (Printf.sprintf "%s seed %d" name iseed) "equal" (explain_mismatch tree vm)
      done)
    Corpus.all

let test_round_robin_equivalence () =
  List.iter
    (fun (name, prog) ->
      let tree, vm =
        run_both ~program:prog ~make_env:(gen_env prog 1) ~make_sched:(fun () -> Sched.Round_robin) ()
      in
      checks (name ^ " rr") "equal" (explain_mismatch tree vm))
    Corpus.all

(* Constant folding must not change observable semantics: folded
   branches still record decisions, constant-false asserts still crash
   through the hook, and division by a constant zero still crashes at
   runtime. *)
let test_folded_program_equivalence () =
  let open Build in
  let open Build.Infix in
  let prog =
    program ~name:"folded" ~globals:[ "g" ] ~n_inputs:1
      [
        [
          if_ (const 2 *: const 3 >: const 5)
            [ assign (lvar "x") (const 10 /: const 2) ]
            [ assign (lvar "x") (const 0) ];
          if_ (local "x" +: input 0 >: const 4)
            [ assign (gvar "g") (local "x" %: const 0) ]  (* mod by const 0: dynamic crash *)
            [ assign (gvar "g") (const 1) ];
          assert_ (const 1 ==: const 2) "constant-false assert";
        ];
      ]
  in
  for iseed = 0 to 8 do
    let make_env () = Env.make ~seed:iseed ~inputs:[| iseed - 4 |] () in
    let tree, vm =
      run_both ~program:prog ~make_env ~make_sched:(fun () -> Sched.Round_robin) ()
    in
    checks (Printf.sprintf "folded seed %d" iseed) "equal" (explain_mismatch tree vm)
  done

(* ---- Hook equivalence --------------------------------------------- *)

let defer_hooks () =
  (* Defer the first two lock acquisitions, suppress every crash:
     exercises the deferred/suppressed counters and the suppression
     fallbacks on both engines.  Stateful, so each engine needs its own
     instance. *)
  let deferred = ref 0 in
  {
    Interp.on_lock_request =
      (fun ~thread:_ ~lock:_ ~holding:_ ~owner:_ ->
        if !deferred < 2 then begin
          incr deferred;
          `Defer
        end
        else `Proceed);
    on_crash = (fun ~site:_ ~kind:_ -> `Suppress);
  }

let test_hooks_equivalence () =
  for pseed = 0 to 11 do
    let prog = gen_program pseed in
    let tree, vm =
      run_both ~max_steps:3000 ~tree_hooks:(defer_hooks ()) ~vm_hooks:(defer_hooks ())
        ~program:prog ~make_env:(gen_env prog pseed)
        ~make_sched:(fun () -> Sched.Random_sched (Rng.create (pseed + 77)))
        ()
    in
    checks (Printf.sprintf "hooks pseed %d" pseed) "equal" (explain_mismatch tree vm)
  done

(* ---- Record-mode property over the generator corpus --------------- *)

let prop_vm_equals_tree_record =
  QCheck.Test.make ~name:"vm = tree-walk (record mode, random programs)" ~count:150
    QCheck.(triple small_nat small_nat small_nat)
    (fun (pseed, iseed, sseed) ->
      let prog, max_steps = property_program pseed in
      let tree, vm =
        run_both ~max_steps ~program:prog ~make_env:(gen_env prog iseed)
          ~make_sched:(fun () -> Sched.Random_sched (Rng.create (sseed + 77)))
          ()
      in
      result_equal tree vm || QCheck.Test.fail_reportf "mismatch: %s" (explain_mismatch tree vm))

(* ---- Replay parity ------------------------------------------------ *)

let reconstruction_equal (a : Interp.reconstruction) (b : Interp.reconstruction) =
  a.Interp.decisions = b.Interp.decisions && a.Interp.locks = b.Interp.locks

let prop_vm_replay_parity =
  QCheck.Test.make ~name:"vm reconstruct = tree reconstruct (incl. cross-engine)" ~count:120
    QCheck.(triple small_nat small_nat small_nat)
    (fun (pseed, iseed, sseed) ->
      let prog, max_steps = property_program pseed in
      let r =
        Interp.run ~max_steps ~program:prog ~env:(gen_env prog iseed ())
          ~sched:(Sched.Random_sched (Rng.create (sseed + 77)))
          ()
      in
      let reconstruct f =
        f ~program:prog ~bits:r.Interp.bits ~schedule:r.Interp.schedule
          ~total_decisions:(List.length r.Interp.full_path) ~total_steps:r.Interp.steps ()
      in
      match (reconstruct (Interp.reconstruct ?hooks:None), reconstruct (Vm.reconstruct ?hooks:None ?cache:None)) with
      | Ok t, Ok v ->
        (reconstruction_equal t v
        && t.Interp.decisions = r.Interp.full_path
        && v.Interp.locks = r.Interp.lock_events)
        || QCheck.Test.fail_reportf "replay divergence"
      | Error te, Error ve ->
        te = ve || QCheck.Test.fail_reportf "different errors: tree=%s vm=%s" te ve
      | Ok _, Error e -> QCheck.Test.fail_reportf "tree ok, vm error: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "vm ok, tree error: %s" e)

let prop_vm_replay_error_parity =
  QCheck.Test.make ~name:"truncated/exhausted bit vectors fail identically" ~count:120
    QCheck.(triple small_nat small_nat small_nat)
    (fun (pseed, iseed, sseed) ->
      let prog = gen_program pseed in
      let r =
        Interp.run ~max_steps:3000 ~program:prog ~env:(gen_env prog iseed ())
          ~sched:(Sched.Random_sched (Rng.create (sseed + 177)))
          ()
      in
      let mutate_bits =
        (* Truncate when possible, otherwise claim one decision too
           many: both corruptions must fail (or pass) identically. *)
        let n = Bitvec.length r.Interp.bits in
        if n > 0 then begin
          let bits = Bitvec.copy r.Interp.bits in
          Bitvec.truncate bits (n - 1);
          bits
        end
        else r.Interp.bits
      in
      let total_decisions = List.length r.Interp.full_path + if Bitvec.length r.Interp.bits = 0 then 1 else 0 in
      let reconstruct f =
        f ~program:prog ~bits:mutate_bits ~schedule:r.Interp.schedule ~total_decisions
          ~total_steps:r.Interp.steps ()
      in
      match (reconstruct (Interp.reconstruct ?hooks:None), reconstruct (Vm.reconstruct ?hooks:None ?cache:None)) with
      | Ok t, Ok v -> reconstruction_equal t v
      | Error te, Error ve ->
        te = ve || QCheck.Test.fail_reportf "different errors: tree=%s vm=%s" te ve
      | Ok _, Error e -> QCheck.Test.fail_reportf "tree ok, vm error: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "vm ok, tree error: %s" e)

(* ---- Per-run allocation ------------------------------------------- *)

(* A run costs what it records, not what [max_steps] permits: at the
   default budget a short run puts next to nothing directly on the
   major heap.  Direct major words (major minus promoted) are a count,
   so the bound is deterministic. *)
let direct_major_words_per_run run =
  run ();
  let runs = 1_000 in
  (* A full major collection first: it folds the domain's pending
     major allocations into [major_words], which otherwise lags. *)
  let direct () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = direct () in
  for _ = 1 to runs do
    run ()
  done;
  (direct () -. before) /. float_of_int runs

let test_per_run_major_words () =
  let prog = gen_program 0 in
  let make_env = gen_env prog 1 in
  let make_sched () = Sched.Random_sched (Rng.create 5) in
  let r = Interp.run ~program:prog ~env:(make_env ()) ~sched:(make_sched ()) () in
  checkb "short run" true (r.Interp.steps < 200);
  let reconstruct f () =
    match
      f ~program:prog ~bits:r.Interp.bits ~schedule:r.Interp.schedule
        ~total_decisions:(List.length r.Interp.full_path) ~total_steps:r.Interp.steps ()
    with
    | Ok (_ : Interp.reconstruction) -> ()
    | Error e -> Alcotest.fail e
  in
  let words =
    List.map
      (fun (name, run) -> (name, direct_major_words_per_run run))
      [
        ("Vm.execute", fun () -> ignore (Vm.execute ~program:prog ~env:(make_env ()) ~sched:(make_sched ()) ()));
        ("Vm.reconstruct", reconstruct (Vm.reconstruct ?hooks:None ?cache:None));
        ("Interp.run", fun () -> ignore (Interp.run ~program:prog ~env:(make_env ()) ~sched:(make_sched ()) ()));
        ("Interp.reconstruct", reconstruct (Interp.reconstruct ?hooks:None));
      ]
  in
  if List.exists (fun (_, w) -> w > 16.0) words then
    Alcotest.failf "direct major-heap words per run above 16: %s"
      (String.concat ", " (List.map (fun (name, w) -> Printf.sprintf "%s %.1f" name w) words))

(* ---- Compile cache ------------------------------------------------ *)

let test_cache_memoizes () =
  let cache = Bytecode.create_cache () in
  let prog = Corpus.parser in
  let c1 = Bytecode.find_or_compile cache prog in
  let c2 = Bytecode.find_or_compile cache prog in
  checkb "physically shared" true (c1 == c2);
  let stats = Bytecode.cache_stats cache in
  checki "one miss" 1 stats.Bytecode.misses;
  checki "fast hit" 1 stats.Bytecode.fast_hits;
  checki "one entry" 1 stats.Bytecode.entries;
  (* A structurally equal rebuild digests the same, so it shares the
     compiled value through the digest path. *)
  let rebuilt = { prog with Ir.name = prog.Ir.name } in
  let c3 = Bytecode.find_or_compile cache rebuilt in
  checkb "digest hit shares" true (c1 == c3);
  checki "still one entry" 1 (Bytecode.cache_stats cache).Bytecode.entries

let test_cache_distinguishes_corpus () =
  let cache = Bytecode.create_cache ~fast_slots:2 () in
  let compiled = List.map (fun (_, p) -> (p, Bytecode.find_or_compile cache p)) Corpus.all in
  checki "entry per program" (List.length Corpus.all) (Bytecode.cache_stats cache).Bytecode.entries;
  List.iter
    (fun (p, c) ->
      checks "digest key" (Ir.digest p) c.Bytecode.source_digest;
      checkb "stable on relookup" true (Bytecode.find_or_compile cache p == c))
    compiled

(* ---- Engine selection --------------------------------------------- *)

let test_engine_round_trip () =
  checks "vm" "vm" (Engine.to_string Engine.Vm);
  checks "tree" "tree" (Engine.to_string Engine.Tree)

let test_engine_dispatch_equal () =
  let prog = Corpus.fig2_write in
  let make_env () = Env.make ~seed:3 ~inputs:(Array.make prog.Ir.n_inputs 7) () in
  let run engine = Engine.run ~engine ~program:prog ~env:(make_env ()) ~sched:Sched.Round_robin () in
  checks "engines agree" "equal" (explain_mismatch (run Engine.Tree) (run Engine.Vm))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_vm"
    [
      ( "equivalence",
        [
          Alcotest.test_case "corpus random scheds" `Quick test_corpus_equivalence;
          Alcotest.test_case "corpus round robin" `Quick test_round_robin_equivalence;
          Alcotest.test_case "constant folding" `Quick test_folded_program_equivalence;
          Alcotest.test_case "hooks" `Quick test_hooks_equivalence;
          q prop_vm_equals_tree_record;
        ] );
      ( "replay",
        [
          q prop_vm_replay_parity;
          q prop_vm_replay_error_parity;
        ] );
      ( "allocation",
        [ Alcotest.test_case "direct major words per short run" `Quick test_per_run_major_words ] );
      ( "cache",
        [
          Alcotest.test_case "memoizes" `Quick test_cache_memoizes;
          Alcotest.test_case "distinguishes corpus" `Quick test_cache_distinguishes_corpus;
        ] );
      ( "engine",
        [
          Alcotest.test_case "string round trip" `Quick test_engine_round_trip;
          Alcotest.test_case "dispatch equal" `Quick test_engine_dispatch_equal;
        ] );
    ]
