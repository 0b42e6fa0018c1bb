(* Tests for concurrency analysis: lock graphs, deadlock mining,
   immunity, and schedule exploration. *)

module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Outcome = Softborg_exec.Outcome
module Lock_graph = Softborg_conc.Lock_graph
module Deadlock = Softborg_conc.Deadlock
module Immunity = Softborg_conc.Immunity
module Schedule_explore = Softborg_conc.Schedule_explore
module Rng = Softborg_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let acquired thread lock step = Interp.Acquired { thread; lock; step }
let released thread lock step = Interp.Released { thread; lock; step }

(* ---- Lock graph ---------------------------------------------------- *)

let test_lock_graph_edges () =
  let g = Lock_graph.create () in
  Lock_graph.add_events g
    [ acquired 0 0 1; acquired 0 1 2; released 0 1 3; released 0 0 4 ];
  checki "edge 0->1" 1 (Lock_graph.edge_count g 0 1);
  checki "no reverse edge" 0 (Lock_graph.edge_count g 1 0);
  Alcotest.(check (list int)) "locks" [ 0; 1 ] (Lock_graph.locks g)

let test_lock_graph_no_edge_after_release () =
  let g = Lock_graph.create () in
  Lock_graph.add_events g
    [ acquired 0 0 1; released 0 0 2; acquired 0 1 3; released 0 1 4 ];
  checki "no edge" 0 (Lock_graph.edge_count g 0 1);
  checki "no edges at all" 0 (List.length (Lock_graph.edges g))

let test_lock_graph_cycle_detection () =
  let g = Lock_graph.create () in
  (* Thread 0: 0 then 1; thread 1: 1 then 0 — the classic inversion. *)
  Lock_graph.add_events g [ acquired 0 0 1; acquired 0 1 2 ];
  Lock_graph.add_events g [ acquired 1 1 1; acquired 1 0 2 ];
  Alcotest.(check (list (list int))) "one cycle {0,1}" [ [ 0; 1 ] ] (Lock_graph.cycles g)

let test_lock_graph_no_cycle_consistent_order () =
  let g = Lock_graph.create () in
  Lock_graph.add_events g [ acquired 0 0 1; acquired 0 1 2 ];
  Lock_graph.add_events g [ acquired 1 0 1; acquired 1 1 2 ];
  Alcotest.(check (list (list int))) "no cycles" [] (Lock_graph.cycles g)

let test_lock_graph_three_cycle () =
  let g = Lock_graph.create () in
  Lock_graph.add_events g [ acquired 0 0 1; acquired 0 1 2 ];
  Lock_graph.add_events g [ acquired 1 1 1; acquired 1 2 2 ];
  Lock_graph.add_events g [ acquired 2 2 1; acquired 2 0 2 ];
  Alcotest.(check (list (list int))) "three-cycle" [ [ 0; 1; 2 ] ] (Lock_graph.cycles g)

let test_lock_graph_merge () =
  let a = Lock_graph.create () in
  let b = Lock_graph.create () in
  Lock_graph.add_events a [ acquired 0 0 1; acquired 0 1 2 ];
  Lock_graph.add_events b [ acquired 0 0 1; acquired 0 1 2 ];
  Lock_graph.merge a b;
  checki "merged counts" 2 (Lock_graph.edge_count a 0 1)

let test_lock_graph_from_real_trace () =
  (* Let worker A run to completion first so it performs its nested
     acquisition (round-robin would interleave both workers straight
     into the deadlock, before any hold-while-acquire edge exists). *)
  let env = Env.make ~seed:1 ~inputs:[| 2 |] () in
  let r =
    Interp.run ~program:Corpus.worker_pool ~env
      ~sched:(Sched.Replay (List.init 20 (fun _ -> 1)))
      ()
  in
  let g = Lock_graph.create () in
  Lock_graph.add_events g r.Interp.lock_events;
  checki "worker A's 0->1 edge observed" 1 (Lock_graph.edge_count g 0 1)

(* Most merged traces carry no lock event; folding one must cost no
   allocation (a held-set table and its closure per call, before). *)
let test_lock_graph_empty_allocates_nothing () =
  let g = Lock_graph.create () in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Lock_graph.add_events g []
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words for 1,000 empty folds" 0.0 words

(* ---- Deadlock mining ------------------------------------------------- *)

let test_deadlock_predicted_from_success () =
  (* Two successful runs with inverted orders predict the deadlock
     without ever manifesting it. *)
  let miner = Deadlock.create () in
  Deadlock.observe miner ~outcome:Outcome.Success
    ~locks:[ acquired 0 0 1; acquired 0 1 2; released 0 1 3; released 0 0 4 ];
  Deadlock.observe miner ~outcome:Outcome.Success
    ~locks:[ acquired 1 1 1; acquired 1 0 2; released 1 0 3; released 1 1 4 ];
  match Deadlock.patterns miner with
  | [ p ] ->
    Alcotest.(check (list int)) "lock set" [ 0; 1 ] p.Deadlock.locks;
    checkb "predicted" true p.Deadlock.predicted;
    checki "not manifested" 0 p.Deadlock.manifested
  | ps -> Alcotest.failf "expected one pattern, got %d" (List.length ps)

let test_deadlock_manifested () =
  let miner = Deadlock.create () in
  Deadlock.observe miner
    ~outcome:(Outcome.Deadlock { waiting = [ (0, 1); (1, 0) ] })
    ~locks:[ acquired 0 0 1; acquired 1 1 2 ];
  match Deadlock.patterns miner with
  | [ p ] ->
    Alcotest.(check (list int)) "lock set" [ 0; 1 ] p.Deadlock.locks;
    checki "manifested" 1 p.Deadlock.manifested
  | ps -> Alcotest.failf "expected one pattern, got %d" (List.length ps)

let test_deadlock_none_for_clean_runs () =
  let miner = Deadlock.create () in
  Deadlock.observe miner ~outcome:Outcome.Success
    ~locks:[ acquired 0 0 1; released 0 0 2; acquired 0 1 3; released 0 1 4 ];
  checki "no patterns" 0 (Deadlock.pattern_count miner)

(* ---- Immunity --------------------------------------------------------- *)

let run_worker_pool ?hooks seed =
  let env = Env.make ~seed:1 ~inputs:[| 0 |] () in
  Interp.run ?hooks ~program:Corpus.worker_pool ~env
    ~sched:(Sched.Random_sched (Rng.create seed))
    ()

let count_deadlocks ?hooks n =
  let count = ref 0 in
  for seed = 0 to n - 1 do
    match (run_worker_pool ?hooks seed).Interp.outcome with
    | Outcome.Deadlock _ -> incr count
    | _ -> ()
  done;
  !count

let test_immunity_eliminates_deadlocks () =
  let before = count_deadlocks 100 in
  checkb "deadlocks without immunity" true (before > 0);
  let immunizer = Immunity.create ~patterns:[ [ 0; 1 ] ] in
  let after = count_deadlocks ~hooks:(Immunity.hooks immunizer) 100 in
  checki "no deadlocks with immunity" 0 after

let test_immunity_preserves_results () =
  (* Under immunity, the protected runs still complete and compute. *)
  let immunizer = Immunity.create ~patterns:[ [ 0; 1 ] ] in
  for seed = 0 to 30 do
    let r = run_worker_pool ~hooks:(Immunity.hooks immunizer) seed in
    checkb
      (Printf.sprintf "seed %d completes" seed)
      true
      (r.Interp.outcome = Outcome.Success)
  done

let test_immunity_unrelated_locks_untouched () =
  let immunizer = Immunity.create ~patterns:[ [ 5; 6 ] ] in
  let hooks = Immunity.hooks immunizer in
  let decision =
    hooks.Interp.on_lock_request ~thread:0 ~lock:0 ~holding:[] ~owner:(fun _ -> None)
  in
  checkb "unrelated lock proceeds" true (decision = `Proceed)

let test_immunity_defer_logic () =
  let immunizer = Immunity.create ~patterns:[ [ 0; 1 ] ] in
  let hooks = Immunity.hooks immunizer in
  (* Thread 1 holds lock 1 (inside the pattern); thread 0 entering must
     defer. *)
  let owner l = if l = 1 then Some 1 else None in
  checkb "entry deferred while another is inside" true
    (hooks.Interp.on_lock_request ~thread:0 ~lock:0 ~holding:[] ~owner = `Defer);
  (* A thread already inside (holding lock 0) always proceeds. *)
  checkb "inside thread proceeds" true
    (hooks.Interp.on_lock_request ~thread:1 ~lock:0 ~holding:[ 1 ] ~owner = `Proceed)

let test_immunity_add_pattern_idempotent () =
  let immunizer = Immunity.create ~patterns:[] in
  Immunity.add_pattern immunizer [ 1; 0 ];
  Immunity.add_pattern immunizer [ 0; 1 ];
  checki "one normalized pattern" 1 (List.length (Immunity.patterns immunizer))

(* ---- Schedule exploration --------------------------------------------- *)

let test_explore_finds_deadlock () =
  let make_env () = Env.make ~seed:3 ~inputs:[| 0 |] () in
  let result =
    Schedule_explore.explore ~max_runs:150 ~program:Corpus.worker_pool ~make_env ()
  in
  checkb "found failing schedule" true (result.Schedule_explore.failures <> []);
  checkb "several distinct schedules" true (result.Schedule_explore.distinct_schedules > 3)

let test_explore_finds_race () =
  let make_env () = Env.make ~seed:3 ~inputs:[||] () in
  let result =
    Schedule_explore.explore ~max_runs:200 ~program:Corpus.racy_counter ~make_env ()
  in
  checkb "lost update found by exploration" true
    (List.exists
       (fun (o, _) -> match o with Outcome.Crash _ -> true | _ -> false)
       result.Schedule_explore.outcomes)

let test_explore_single_threaded_trivial () =
  let make_env () = Env.make ~seed:3 ~inputs:[| 5 |] () in
  let result =
    Schedule_explore.explore ~max_runs:50 ~program:Corpus.fig2_write ~make_env ()
  in
  checki "one schedule only" 1 result.Schedule_explore.distinct_schedules;
  checki "one run suffices" 1 result.Schedule_explore.runs

let test_explore_respects_budget () =
  let make_env () = Env.make ~seed:3 ~inputs:[| 0 |] () in
  let result =
    Schedule_explore.explore ~max_runs:10 ~program:Corpus.worker_pool ~make_env ()
  in
  checkb "at most 10 runs" true (result.Schedule_explore.runs <= 10)

let test_bank_transfer_three_cycle_mined_and_immunized () =
  (* Systematic exploration manifests the 0->1->2->0 deadlock; the
     mined three-lock pattern then immunizes it completely. *)
  let make_env () = Env.make ~seed:5 ~inputs:[| 1 |] () in
  let before =
    Schedule_explore.explore ~max_runs:250 ~program:Corpus.bank_transfer ~make_env ()
  in
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
  checkb "three-lock deadlock manifests" true (List.mem [ 0; 1; 2 ] deadlock_sets);
  (* The lock graph mined from successful runs predicts the cycle. *)
  let miner = Deadlock.create () in
  List.iter
    (fun (outcome, schedule) ->
      let r =
        Interp.run ~program:Corpus.bank_transfer ~env:(make_env ())
          ~sched:(Sched.Replay schedule) ()
      in
      ignore outcome;
      Deadlock.observe miner ~outcome:r.Interp.outcome ~locks:r.Interp.lock_events)
    before.Schedule_explore.outcomes;
  checkb "cycle {0,1,2} predicted" true
    (List.exists
       (fun (p : Deadlock.pattern) -> p.Deadlock.locks = [ 0; 1; 2 ])
       (Deadlock.patterns miner));
  let immunizer = Immunity.create ~patterns:[ [ 0; 1; 2 ] ] in
  let after =
    Schedule_explore.explore ~max_runs:250 ~hooks:(Immunity.hooks immunizer)
      ~program:Corpus.bank_transfer ~make_env ()
  in
  let deadlocks_after =
    List.length
      (List.filter
         (fun (o, _) -> match o with Outcome.Deadlock _ -> true | _ -> false)
         after.Schedule_explore.outcomes)
  in
  checki "no deadlocks under three-lock immunity" 0 deadlocks_after

let test_explore_failure_schedules_replay () =
  (* A failing schedule reported by exploration must reproduce the
     failure when replayed. *)
  let make_env () = Env.make ~seed:3 ~inputs:[| 0 |] () in
  let result =
    Schedule_explore.explore ~max_runs:150 ~program:Corpus.worker_pool ~make_env ()
  in
  match result.Schedule_explore.failures with
  | [] -> Alcotest.fail "no failures found"
  | (outcome, schedule) :: _ ->
    let r =
      Interp.run ~program:Corpus.worker_pool ~env:(make_env ())
        ~sched:(Sched.Replay schedule) ()
    in
    checkb "replayed failure matches" true (Outcome.equal outcome r.Interp.outcome)

let () =
  Alcotest.run "softborg_conc"
    [
      ( "lock_graph",
        [
          Alcotest.test_case "edges" `Quick test_lock_graph_edges;
          Alcotest.test_case "release clears held" `Quick test_lock_graph_no_edge_after_release;
          Alcotest.test_case "cycle detection" `Quick test_lock_graph_cycle_detection;
          Alcotest.test_case "consistent order no cycle" `Quick
            test_lock_graph_no_cycle_consistent_order;
          Alcotest.test_case "three cycle" `Quick test_lock_graph_three_cycle;
          Alcotest.test_case "merge" `Quick test_lock_graph_merge;
          Alcotest.test_case "from real trace" `Quick test_lock_graph_from_real_trace;
          Alcotest.test_case "empty trace allocates nothing" `Quick
            test_lock_graph_empty_allocates_nothing;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "predicted from success" `Quick test_deadlock_predicted_from_success;
          Alcotest.test_case "manifested" `Quick test_deadlock_manifested;
          Alcotest.test_case "clean runs" `Quick test_deadlock_none_for_clean_runs;
        ] );
      ( "immunity",
        [
          Alcotest.test_case "eliminates deadlocks" `Quick test_immunity_eliminates_deadlocks;
          Alcotest.test_case "preserves results" `Quick test_immunity_preserves_results;
          Alcotest.test_case "unrelated locks" `Quick test_immunity_unrelated_locks_untouched;
          Alcotest.test_case "defer logic" `Quick test_immunity_defer_logic;
          Alcotest.test_case "add pattern idempotent" `Quick test_immunity_add_pattern_idempotent;
        ] );
      ( "schedule_explore",
        [
          Alcotest.test_case "finds deadlock" `Quick test_explore_finds_deadlock;
          Alcotest.test_case "finds race" `Quick test_explore_finds_race;
          Alcotest.test_case "single thread trivial" `Quick test_explore_single_threaded_trivial;
          Alcotest.test_case "respects budget" `Quick test_explore_respects_budget;
          Alcotest.test_case "failure schedules replay" `Quick
            test_explore_failure_schedules_replay;
          Alcotest.test_case "bank transfer three-cycle" `Quick
            test_bank_transfer_three_cycle_mined_and_immunized;
        ] );
    ]
