module Ir = Softborg_prog.Ir
module Codec = Softborg_util.Codec
module Sim = Softborg_net.Sim
module Transport = Softborg_net.Transport
module Exec_tree = Softborg_tree.Exec_tree
module Sym_exec = Softborg_symexec.Sym_exec
module Testgen = Softborg_symexec.Testgen
module Env = Softborg_exec.Env

type job = {
  job_id : int;
  gaps : (Ir.site * bool) list;
  budget_per_gap : int;
}

type job_result = {
  job_id : int;
  verdicts : ((Ir.site * bool) * Gap_memo.verdict) list;
  steps_spent : int;
}

(* ---- Wire format ------------------------------------------------------ *)

let write_gap w (site, direction) =
  Codec.Writer.varint w site.Ir.thread;
  Codec.Writer.varint w site.Ir.pc;
  Codec.Writer.bool w direction

let read_gap r =
  let thread = Codec.Reader.varint r in
  let pc = Codec.Reader.varint r in
  let direction = Codec.Reader.bool r in
  ({ Ir.thread; pc }, direction)

let encode_job (job : job) =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w job.job_id;
  Codec.Writer.varint w job.budget_per_gap;
  Codec.Writer.list w (write_gap w) job.gaps;
  Codec.Writer.contents w

let decode_job s =
  match
    let r = Codec.Reader.of_string s in
    let job_id = Codec.Reader.varint r in
    let budget_per_gap = Codec.Reader.varint r in
    let gaps = Codec.Reader.list r read_gap in
    { job_id; gaps; budget_per_gap }
  with
  | job -> Ok job
  | exception Codec.Truncated -> Error "truncated job"
  | exception Codec.Malformed msg -> Error msg

let encode_result (result : job_result) =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w result.job_id;
  Codec.Writer.varint w result.steps_spent;
  Codec.Writer.list w (Gap_memo.write_binding w) result.verdicts;
  Codec.Writer.contents w

let decode_result s =
  match
    let r = Codec.Reader.of_string s in
    let job_id = Codec.Reader.varint r in
    let steps_spent = Codec.Reader.varint r in
    let verdicts = Codec.Reader.list r Gap_memo.read_binding in
    { job_id; verdicts; steps_spent }
  with
  | result -> Ok result
  | exception Codec.Truncated -> Error "truncated result"
  | exception Codec.Malformed msg -> Error msg

(* ---- Worker ------------------------------------------------------------ *)

module Worker = struct
  type t = {
    program : Ir.t;
    endpoint : Transport.endpoint;
    (* Jobs from successive rounds overlap heavily in path conditions
       (gaps share prefixes, retried gaps recur verbatim); each worker
       keeps its own verdict cache across the jobs it serves. *)
    cache : Softborg_solver.Verdict_cache.t;
    mutable jobs_served : int;
    mutable steps_spent : int;
  }

  let answer t job =
    let before_total = ref 0 in
    let verdicts =
      List.map
        (fun (site, direction) ->
          let config =
            {
              Sym_exec.default_config with
              Sym_exec.solver_budget = job.budget_per_gap;
              max_paths = 128;
              max_steps_per_path = 2000;
            }
          in
          let verdict = Testgen.for_direction ~config ~cache:t.cache t.program ~site ~direction in
          (* Account steps coarsely: one budget unit per gap tried. *)
          before_total := !before_total + job.budget_per_gap;
          ((site, direction), verdict))
        job.gaps
    in
    t.jobs_served <- t.jobs_served + 1;
    t.steps_spent <- t.steps_spent + !before_total;
    { job_id = job.job_id; verdicts; steps_spent = !before_total }

  let create ~program ~endpoint () =
    let t =
      {
        program;
        endpoint;
        cache = Softborg_solver.Verdict_cache.create ();
        jobs_served = 0;
        steps_spent = 0;
      }
    in
    Transport.on_receive endpoint (fun payload ->
        match decode_job payload with
        | Error _ -> ()
        | Ok job -> Transport.send endpoint (encode_result (answer t job)));
    t

  let jobs_served t = t.jobs_served
  let steps_spent t = t.steps_spent
end

(* ---- Coordinator --------------------------------------------------------- *)

module Coordinator = struct
  type config = {
    round_interval : float;
    gaps_per_job : int;
    budget_per_gap : int;
    policy : Allocate.policy;
  }

  let default_config =
    {
      round_interval = 5.0;
      gaps_per_job = 4;
      budget_per_gap = 20_000;
      policy = Allocate.Mean_variance { risk_aversion = 0.5 };
    }

  type progress = {
    rounds : int;
    jobs_sent : int;
    results_received : int;
    gaps_resolved : int;
    tests_found : Testgen.test_case list;
    worker_steps : int;
  }

  (* Gaps are grouped into "subtrees" by their top-level branch site —
     the coordinator's dynamic partition of the execution tree.  Each
     subtree is an Allocate task whose reward is gaps resolved per
     job. *)
  type t = {
    config : config;
    sim : Sim.t;
    program : Ir.t;
    tree : Exec_tree.t;
    workers : Transport.endpoint list;
    mutable tasks : (int * Allocate.task) list;  (* subtree key -> task *)
    mutable next_job : int;
    mutable next_worker : int;
    mutable in_flight : (int, int) Hashtbl.t;  (* job id -> subtree key *)
    mutable given_up : (Ir.site * bool) list;  (* unknown gaps, retired *)
    mutable decided : (Ir.site * bool) list;  (* directions already settled *)
    mutable rounds : int;
    mutable jobs_sent : int;
    mutable results_received : int;
    mutable gaps_resolved : int;
    mutable tests_found : Testgen.test_case list;
    mutable worker_steps : int;
  }

  let subtree_key (gap : Exec_tree.gap) =
    match gap.Exec_tree.prefix with
    | [] -> gap.Exec_tree.site.Ir.pc
    | (site, _) :: _ -> site.Ir.pc

  let task_for t key =
    match List.assoc_opt key t.tasks with
    | Some task -> task
    | None ->
      let task = Allocate.task key in
      t.tasks <- (key, task) :: t.tasks;
      task

  let direction_in list site direction =
    List.exists (fun (s, d) -> Ir.site_equal s site && d = direction) list

  let open_gaps t =
    List.filter
      (fun (gap : Exec_tree.gap) ->
        (not (direction_in t.given_up gap.Exec_tree.site gap.Exec_tree.missing))
        && not (direction_in t.decided gap.Exec_tree.site gap.Exec_tree.missing))
      (Exec_tree.frontier t.tree)

  let handle_result t payload =
    match decode_result payload with
    | Error _ -> ()
    | Ok result ->
      t.results_received <- t.results_received + 1;
      t.worker_steps <- t.worker_steps + result.steps_spent;
      let resolved_here = ref 0 in
      List.iter
        (fun ((site, direction), verdict) ->
          match verdict with
          | `Test test when not (direction_in t.decided site direction) ->
            incr resolved_here;
            t.gaps_resolved <- t.gaps_resolved + 1;
            t.tests_found <- test :: t.tests_found;
            (* Cover the direction in the tree by running the test
               centrally (the coordinator validates worker results —
               workers are untrusted end-user machines). *)
            let env =
              Env.make ~fault_plan:test.Testgen.fault_plan ~seed:1 ~inputs:test.Testgen.inputs
                ()
            in
            let r =
              Softborg_exec.Vm.execute ~program:t.program ~env
                ~sched:Softborg_exec.Sched.Round_robin ()
            in
            let covers =
              List.exists
                (fun (s, d) -> Ir.site_equal s site && d = direction)
                r.Softborg_exec.Interp.full_path
            in
            if covers then begin
              ignore
                (Exec_tree.add_path t.tree r.Softborg_exec.Interp.full_path
                   r.Softborg_exec.Interp.outcome);
              t.decided <- (site, direction) :: t.decided
            end
            else
              (* A bogus result: retire the gap as unknown rather than
                 trusting the worker. *)
              t.given_up <- (site, direction) :: t.given_up
          | `Test _ -> ()  (* already settled by an earlier result *)
          | `Infeasible when direction_in t.decided site direction -> ()
          | `Infeasible ->
            incr resolved_here;
            t.gaps_resolved <- t.gaps_resolved + 1;
            List.iter
              (fun (gap : Exec_tree.gap) ->
                if
                  Ir.site_equal gap.Exec_tree.site site && gap.Exec_tree.missing = direction
                then
                  ignore
                    (Exec_tree.mark_infeasible t.tree ~prefix:gap.Exec_tree.prefix
                       ~site:gap.Exec_tree.site ~direction:gap.Exec_tree.missing))
              (Exec_tree.frontier t.tree);
            t.decided <- (site, direction) :: t.decided
          | `Unknown -> t.given_up <- (site, direction) :: t.given_up)
        result.verdicts;
      (* Reward the subtree this job belonged to. *)
      (match Hashtbl.find_opt t.in_flight result.job_id with
      | Some key ->
        Hashtbl.remove t.in_flight result.job_id;
        Allocate.observe_reward (task_for t key) (float_of_int !resolved_here)
      | None -> ())

  let create ?(config = default_config) ~sim ~program ~tree ~workers () =
    let t =
      {
        config;
        sim;
        program;
        tree;
        workers;
        tasks = [];
        next_job = 0;
        next_worker = 0;
        in_flight = Hashtbl.create 16;
        given_up = [];
        decided = [];
        rounds = 0;
        jobs_sent = 0;
        results_received = 0;
        gaps_resolved = 0;
        tests_found = [];
        worker_steps = 0;
      }
    in
    List.iter (fun endpoint -> Transport.on_receive endpoint (handle_result t)) workers;
    t

  let send_job t key gaps =
    let job_id = t.next_job in
    t.next_job <- job_id + 1;
    let job = { job_id; gaps; budget_per_gap = t.config.budget_per_gap } in
    Hashtbl.replace t.in_flight job_id key;
    let worker = List.nth t.workers (t.next_worker mod List.length t.workers) in
    t.next_worker <- t.next_worker + 1;
    t.jobs_sent <- t.jobs_sent + 1;
    Transport.send worker (encode_job job)

  let round t =
    t.rounds <- t.rounds + 1;
    let gaps = open_gaps t in
    if gaps <> [] && t.workers <> [] then begin
      (* Group gaps by subtree and allocate workers across subtrees. *)
      let by_subtree = Hashtbl.create 8 in
      List.iter
        (fun gap ->
          let key = subtree_key gap in
          ignore (task_for t key);
          Hashtbl.replace by_subtree key
            ((gap.Exec_tree.site, gap.Exec_tree.missing)
            :: Option.value ~default:[] (Hashtbl.find_opt by_subtree key)))
        gaps;
      let tasks = List.map snd t.tasks in
      let live_tasks =
        List.filter (fun task -> Hashtbl.mem by_subtree task.Allocate.task_id) tasks
      in
      if live_tasks <> [] then begin
        let allocation =
          Allocate.allocate t.config.policy ~nodes:(List.length t.workers) live_tasks
        in
        List.iter
          (fun (key, n_workers) ->
            if n_workers > 0 then begin
              let gaps =
                List.sort_uniq compare
                  (Option.value ~default:[] (Hashtbl.find_opt by_subtree key))
              in
              (* One job per allocated worker, splitting the subtree's
                 gaps between them. *)
              let chunks = max 1 n_workers in
              let per_chunk = max 1 (min t.config.gaps_per_job ((List.length gaps + chunks - 1) / chunks)) in
              let rec split gaps sent =
                match gaps with
                | [] -> ()
                | _ when sent >= chunks -> ()
                | gaps ->
                  let batch = List.filteri (fun i _ -> i < per_chunk) gaps in
                  let rest = List.filteri (fun i _ -> i >= per_chunk) gaps in
                  send_job t key batch;
                  split rest (sent + 1)
              in
              split gaps 0
            end)
          allocation
      end
    end

  let rec arm t =
    Sim.schedule t.sim ~delay:t.config.round_interval (fun () ->
        round t;
        arm t)

  let start t = arm t

  let progress t =
    {
      rounds = t.rounds;
      jobs_sent = t.jobs_sent;
      results_received = t.results_received;
      gaps_resolved = t.gaps_resolved;
      tests_found = t.tests_found;
      worker_steps = t.worker_steps;
    }

  let done_ t = open_gaps t = []
end
