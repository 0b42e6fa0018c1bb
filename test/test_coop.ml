(* Tests for cooperative symbolic execution: job/result wire formats,
   the worker, and the coordinator driving a tree's frontier to closure
   over a lossy network. *)

module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Exec_tree = Softborg_tree.Exec_tree
module Coop = Softborg_hive.Coop_symexec
module Allocate = Softborg_hive.Allocate
module Sim = Softborg_net.Sim
module Link = Softborg_net.Link
module Transport = Softborg_net.Transport
module Testgen = Softborg_symexec.Testgen
module Rng = Softborg_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let site thread pc = { Ir.thread; pc }

(* ---- Wire formats -------------------------------------------------- *)

let test_job_roundtrip () =
  let job =
    { Coop.job_id = 7; gaps = [ (site 0 3, true); (site 1 9, false) ]; budget_per_gap = 5000 }
  in
  match Coop.decode_job (Coop.encode_job job) with
  | Ok back -> checkb "job roundtrips" true (back = job)
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_result_roundtrip () =
  let result =
    {
      Coop.job_id = 7;
      verdicts =
        [
          ( (site 0 3, true),
            `Test
              { Testgen.inputs = [| -5; 200 |]; fault_plan = Env.Targeted [ 1 ] } );
          ((site 0 4, false), `Infeasible);
          ((site 1 2, true), `Unknown);
        ];
      steps_spent = 1234;
    }
  in
  match Coop.decode_result (Coop.encode_result result) with
  | Ok back -> checkb "result roundtrips" true (back = result)
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_decode_rejects_garbage () =
  checkb "job garbage" true (Result.is_error (Coop.decode_job "\xff\xff\xff"));
  checkb "result garbage" true (Result.is_error (Coop.decode_result "\xff\xff\xff"))

(* ---- Worker ----------------------------------------------------------- *)

let test_worker_answers_jobs () =
  let sim = Sim.create () in
  let coord_end, worker_end = Transport.endpoint_pair ~sim ~rng:(Rng.create 3) () in
  let worker = Coop.Worker.create ~program:Corpus.fig2_write ~endpoint:worker_end () in
  let results = ref [] in
  Transport.on_receive coord_end (fun payload ->
      match Coop.decode_result payload with
      | Ok result -> results := result :: !results
      | Error _ -> ());
  (* fig2's branch sites: ask for both directions of the first one. *)
  let branch = List.hd (Ir.branch_sites Corpus.fig2_write) in
  let job =
    { Coop.job_id = 1; gaps = [ (branch, true); (branch, false) ]; budget_per_gap = 50_000 }
  in
  Transport.send coord_end (Coop.encode_job job);
  Sim.run sim;
  checki "one result" 1 (List.length !results);
  checki "worker served" 1 (Coop.Worker.jobs_served worker);
  let result = List.hd !results in
  checki "two verdicts" 2 (List.length result.Coop.verdicts);
  List.iter
    (fun (_, verdict) ->
      match verdict with
      | `Test _ -> ()
      | _ -> Alcotest.fail "both directions of fig2's first branch are feasible")
    result.Coop.verdicts

(* ---- Coordinator ---------------------------------------------------------- *)

let partial_tree program inputs_list =
  let tree = Exec_tree.create () in
  List.iter
    (fun inputs ->
      let env = Env.make ~seed:1 ~inputs () in
      let r = Interp.run ~program ~env ~sched:Sched.Round_robin () in
      ignore (Exec_tree.add_path tree r.Interp.full_path r.Interp.outcome))
    inputs_list;
  tree

let run_coordinator ?(n_workers = 3) ?(drop = 0.0) ~program ~tree ~until () =
  let sim = Sim.create () in
  let rng = Rng.create 11 in
  let link = { Link.drop_probability = drop; mean_latency = 0.02; min_latency = 0.001 } in
  let config = { Transport.default_config with Transport.link } in
  let worker_ends =
    List.init n_workers (fun _ ->
        let coord_end, worker_end = Transport.endpoint_pair ~config ~sim ~rng:(Rng.split rng) () in
        ignore (Coop.Worker.create ~program ~endpoint:worker_end ());
        coord_end)
  in
  let coordinator = Coop.Coordinator.create ~sim ~program ~tree ~workers:worker_ends () in
  Coop.Coordinator.start coordinator;
  Sim.run ~until sim;
  coordinator

let test_coordinator_closes_fig2_frontier () =
  (* One observed execution leaves 2 gaps (one feasible each way plus
     the infeasible fig2 leaf); the pool must close them all. *)
  let tree = partial_tree Corpus.fig2_write [ [| 5 |] ] in
  checkb "frontier open initially" true (Exec_tree.frontier_size tree > 0);
  let coordinator =
    run_coordinator ~program:Corpus.fig2_write ~tree ~until:120.0 ()
  in
  checkb "coordinator done" true (Coop.Coordinator.done_ coordinator);
  checkb "tree complete" true (Exec_tree.is_complete tree);
  let p = Coop.Coordinator.progress coordinator in
  checkb "gaps were resolved" true (p.Coop.Coordinator.gaps_resolved >= 2);
  checkb "results flowed" true (p.Coop.Coordinator.results_received >= 1)

let test_coordinator_finds_rare_crash () =
  (* Common parser paths only; the cooperative pool must find the
     crash direction and return concrete inputs for it. *)
  let tree =
    partial_tree Corpus.parser [ [| 1; 2; 3 |]; [| 7; 2; 3 |]; [| 7; 13; 4 |]; [| 5; 5; 5 |] ]
  in
  let coordinator = run_coordinator ~program:Corpus.parser ~tree ~until:200.0 () in
  checkb "done" true (Coop.Coordinator.done_ coordinator);
  let p = Coop.Coordinator.progress coordinator in
  (* One of the discovered tests must trigger the crash. *)
  let triggers_crash (test : Testgen.test_case) =
    let env = Env.make ~fault_plan:test.Testgen.fault_plan ~seed:1 ~inputs:test.Testgen.inputs () in
    let r = Interp.run ~program:Corpus.parser ~env ~sched:Sched.Round_robin () in
    Softborg_exec.Outcome.is_failure r.Interp.outcome
  in
  checkb "a worker-found test triggers the rare crash" true
    (List.exists triggers_crash p.Coop.Coordinator.tests_found)

let test_coordinator_survives_lossy_network () =
  let tree = partial_tree Corpus.fig2_write [ [| 5 |] ] in
  let coordinator =
    run_coordinator ~drop:0.25 ~program:Corpus.fig2_write ~tree ~until:300.0 ()
  in
  checkb "closure despite 25% loss" true (Coop.Coordinator.done_ coordinator)

let test_coordinator_validates_worker_results () =
  (* A malicious/buggy worker claiming feasibility with bogus inputs
     must not corrupt the tree: the coordinator validates centrally. *)
  let tree = partial_tree Corpus.parser [ [| 1; 2; 3 |] ] in
  let sim = Sim.create () in
  let coord_end, worker_end = Transport.endpoint_pair ~sim ~rng:(Rng.create 9) () in
  (* A fake worker that answers every gap with garbage inputs. *)
  Transport.on_receive worker_end (fun payload ->
      match Coop.decode_job payload with
      | Error _ -> ()
      | Ok job ->
        let verdicts =
          List.map
            (fun gap ->
              (gap, `Test { Testgen.inputs = [| 0; 0; 0 |]; fault_plan = Env.No_faults }))
            job.Coop.gaps
        in
        Transport.send worker_end
          (Coop.encode_result { Coop.job_id = job.Coop.job_id; verdicts; steps_spent = 1 }));
  let coordinator =
    Coop.Coordinator.create ~sim ~program:Corpus.parser ~tree ~workers:[ coord_end ] ()
  in
  Coop.Coordinator.start coordinator;
  let paths_before = Exec_tree.n_distinct_paths tree in
  Sim.run ~until:30.0 sim;
  (* Inputs [0;0;0] cover only the already-known common path; the
     coordinator must reject them for unreached gaps and retire those
     gaps rather than trusting the worker. *)
  checkb "tree not corrupted" true (Exec_tree.n_distinct_paths tree <= paths_before + 1);
  checkb "bogus gaps retired, not looping forever" true (Coop.Coordinator.done_ coordinator)

let test_coordinator_allocation_learns () =
  (* With several subtrees, repeated rounds should record rewards on
     the allocator's tasks (smoke test of the portfolio loop). *)
  let tree = partial_tree Corpus.file_copy [ [| 1; 0 |]; [| 9; 3 |] ] in
  let coordinator =
    run_coordinator ~n_workers:4 ~program:Corpus.file_copy ~tree ~until:200.0 ()
  in
  let p = Coop.Coordinator.progress coordinator in
  checkb "multiple jobs dispatched" true (p.Coop.Coordinator.jobs_sent >= 2);
  checkb "worker steps accounted" true (p.Coop.Coordinator.worker_steps > 0)

let () =
  Alcotest.run "softborg_coop"
    [
      ( "wire",
        [
          Alcotest.test_case "job roundtrip" `Quick test_job_roundtrip;
          Alcotest.test_case "result roundtrip" `Quick test_result_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
        ] );
      ("worker", [ Alcotest.test_case "answers jobs" `Quick test_worker_answers_jobs ]);
      ( "coordinator",
        [
          Alcotest.test_case "closes fig2 frontier" `Quick test_coordinator_closes_fig2_frontier;
          Alcotest.test_case "finds rare crash" `Quick test_coordinator_finds_rare_crash;
          Alcotest.test_case "lossy network" `Quick test_coordinator_survives_lossy_network;
          Alcotest.test_case "validates results" `Quick test_coordinator_validates_worker_results;
          Alcotest.test_case "allocation learns" `Quick test_coordinator_allocation_learns;
        ] );
    ]
