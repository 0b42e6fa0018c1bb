(* Scoring the Fixgen/Prover/Isolate loop against the versioned bug
   corpus.  See the .mli for the metric definitions; everything here
   is deterministic in [config.seed] (the corpus instances themselves
   are deterministic in their own seeds). *)

module Rng = Softborg_util.Rng
module Ir = Softborg_prog.Ir
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Vm = Softborg_exec.Vm
module Outcome = Softborg_exec.Outcome
module Trace = Softborg_trace.Trace
module Sampling = Softborg_trace.Sampling
module Exec_tree = Softborg_tree.Exec_tree
module Corpus_bench = Softborg_corpus.Corpus_bench

type config = {
  runs : int;
  trigger_every : int;
  isolation_top : int;
  input_hi : int;
  seed : int;
}

let default_config =
  { runs = 80; trigger_every = 8; isolation_top = 3; input_hi = 191; seed = 9 }

type instance_score = {
  name : string;
  family : string;
  threaded : bool;
  executions : int;
  failures_seen : int;
  time_to_isolation : int option;
  proposed : int;
  correct : int;
  patch_candidates : int;
  fix_kinds : string list;
  localized : bool;
  averted : bool;
  proof_coverage : float;
  proof_strength : string option;
}

type family_score = {
  family : string;
  version : int;
  instances : int;
  precision : float;
  recall : float;
  isolated : int;
  mean_time_to_isolation : float;
  averted_rate : float;
  mean_proof_coverage : float;
}

(* Drive [config.runs] executions of [program] into [know]: natural
   runs (uniform inputs resampled off the trigger predicate, no
   faults, random schedules for threaded programs) with the instance's
   certified trigger recipe injected every [trigger_every]-th run.
   This is the pod traffic of a miniature deployment. *)
let drive ~config ~(inst : Corpus_bench.instance) ~program ~know ~on_run =
  let digest = Ir.digest program in
  let rng = Rng.create (config.seed lxor Hashtbl.hash (inst.Corpus_bench.name, Ir.digest program)) in
  let conc = Corpus_bench.concurrent inst in
  let n_inputs = program.Ir.n_inputs in
  let hint = Option.value ~default:[] inst.Corpus_bench.schedule_hint in
  for i = 1 to config.runs do
    let is_trigger = i mod config.trigger_every = 0 in
    let inputs =
      if is_trigger then inst.Corpus_bench.trigger_inputs
      else begin
        let draw () = Array.init n_inputs (fun _ -> Rng.int rng (config.input_hi + 1)) in
        (* Keep natural traffic off the trigger so failures come only
           from scheduled trigger runs — time-to-isolation then counts
           evidence quality, not accidental luck. *)
        let rec go k a =
          if (not conc) && inst.Corpus_bench.trigger a && k < 32 then go (k + 1) (draw ())
          else a
        in
        go 0 (draw ())
      end
    in
    let fault_plan = if is_trigger then inst.Corpus_bench.fault_plan else Env.No_faults in
    let sched =
      if conc then
        if is_trigger then Sched.Replay hint else Sched.Random_sched (Rng.split rng)
      else Sched.Round_robin
    in
    let env = Env.make ~fault_plan ~seed:(Rng.int rng 1_000_000) ~inputs () in
    let r = Vm.execute ~program ~env ~sched () in
    let trace = Trace.of_result ~program_digest:digest ~pod:0 ~fix_epoch:0 r in
    (match Knowledge.ingest_trace know trace with Ok () -> () | Error _ -> ());
    on_run i r
  done

let correct_fix (inst : Corpus_bench.instance) (f : Fixgen.fix) =
  match f.Fixgen.kind with
  | Fixgen.Deadlock_immunity locks ->
    inst.Corpus_bench.bug_locks <> [] && List.sort compare locks = inst.Corpus_bench.bug_locks
  | Fixgen.Input_guard { site; _ } | Fixgen.Crash_suppression { site; _ } ->
    List.exists (Ir.site_equal site) inst.Corpus_bench.bug_sites
  | Fixgen.Patch_candidate _ -> false

(* Has statistical isolation localized the bug yet?  True when a
   predicate on the instance's certified failing path ranks within the
   top-k carrying failure evidence and a non-negative Increase score.
   (Boundary bugs have no purely discriminating branch predicate —
   passing runs cross the same loop/check branch — so their trigger
   predicate sits at Increase 0 and leads the ranking only via the
   failing-observation tie-break; demanding strictly positive score
   would declare CBI blind to an entire bug class it in fact ranks
   first.) *)
let isolated_now ~top know (inst : Corpus_bench.instance) =
  let on_path (r : Isolate.ranked) =
    r.Isolate.score >= 0.0
    && r.Isolate.failing_observations > 0
    && List.exists
         (fun (site, dir) ->
           Ir.site_equal site r.Isolate.predicate.Sampling.site
           && dir = r.Isolate.predicate.Sampling.direction)
         inst.Corpus_bench.trigger_path
  in
  let rec scan k = function
    | r :: rest when k > 0 -> on_path r || scan (k - 1) rest
    | _ -> false
  in
  scan top (Isolate.rank (Knowledge.isolate know))

let proof_of_fixed ~config (inst : Corpus_bench.instance) know_f =
  let program = inst.Corpus_bench.fixed in
  let tree = Knowledge.tree know_f in
  let (_ : int) =
    Prover.close_gaps
      ~cache:(Knowledge.verdict_cache know_f)
      ~memo:(Knowledge.gap_memo know_f) program tree
  in
  let coverage = Exec_tree.completeness tree in
  let crash_observations = Knowledge.failures_observed know_f in
  let strength =
    let proof =
      if Corpus_bench.concurrent inst then
        Prover.attempt_deadlock_freedom ~max_runs:64 ~program ~tree
          ~deadlock_observations:crash_observations
          ~lock_cycles:(Knowledge.deadlock_pattern_sets know_f)
          ~make_env:(fun () ->
            Env.make ~seed:config.seed ~inputs:inst.Corpus_bench.trigger_inputs ())
          ~hooks:Interp.no_hooks ~epoch:0 ()
      else
        Prover.attempt_assert_safety
          ~cache:(Knowledge.verdict_cache know_f)
          ~program ~tree ~crash_observations ~epoch:0 ()
    in
    Option.map (fun (p : Prover.proof) -> Prover.strength_name p.Prover.strength) proof
  in
  (coverage, strength)

let score_instance ?(config = default_config) (inst : Corpus_bench.instance) =
  let conc = Corpus_bench.concurrent inst in
  let know = Knowledge.create inst.Corpus_bench.buggy in
  let failures = ref 0 in
  let tti = ref None in
  drive ~config ~inst ~program:inst.Corpus_bench.buggy ~know ~on_run:(fun i r ->
      if Outcome.is_failure r.Interp.outcome then incr failures;
      if !tti = None then
        if conc then begin
          (* Schedule-triggered bugs are not input-discriminated (and a
             deadlock path may cross no branch at all): isolation here
             means the hive has its first manifested failure to mine. *)
          if Outcome.is_failure r.Interp.outcome then tti := Some i
        end
        else if !failures > 0 && isolated_now ~top:config.isolation_top know inst then
          tti := Some i);
  let fixes = Knowledge.analyze know in
  let deployable = List.filter Fixgen.is_deployable fixes in
  let correct = List.length (List.filter (correct_fix inst) deployable) in
  let averted =
    let hooks = Knowledge.current_hooks know in
    let sched =
      if conc then Sched.Replay (Option.value ~default:[] inst.Corpus_bench.schedule_hint)
      else Sched.Round_robin
    in
    let env =
      Env.make ~fault_plan:inst.Corpus_bench.fault_plan ~seed:11
        ~inputs:inst.Corpus_bench.trigger_inputs ()
    in
    let r = Vm.execute ~hooks ~program:inst.Corpus_bench.buggy ~env ~sched () in
    not (Outcome.is_failure r.Interp.outcome)
  in
  let know_f = Knowledge.create inst.Corpus_bench.fixed in
  drive ~config ~inst ~program:inst.Corpus_bench.fixed ~know:know_f ~on_run:(fun _ _ -> ());
  let proof_coverage, proof_strength = proof_of_fixed ~config inst know_f in
  {
    name = inst.Corpus_bench.name;
    family = inst.Corpus_bench.family;
    threaded = conc;
    executions = config.runs;
    failures_seen = !failures;
    time_to_isolation = !tti;
    proposed = List.length deployable;
    correct;
    patch_candidates = List.length fixes - List.length deployable;
    fix_kinds = List.map (fun (f : Fixgen.fix) -> Fixgen.kind_name f.Fixgen.kind) fixes;
    localized = correct > 0;
    averted;
    proof_coverage;
    proof_strength;
  }

let fixed_variant_fixes ?(config = default_config) (inst : Corpus_bench.instance) =
  let know = Knowledge.create inst.Corpus_bench.fixed in
  drive ~config ~inst ~program:inst.Corpus_bench.fixed ~know ~on_run:(fun _ _ -> ());
  Knowledge.analyze know

let score_corpus ?(config = default_config) instances =
  let scores = List.map (score_instance ~config) instances in
  let family_order =
    List.fold_left
      (fun acc (i : Corpus_bench.instance) ->
        if List.mem_assoc i.Corpus_bench.family acc then acc
        else acc @ [ (i.Corpus_bench.family, i.Corpus_bench.version) ])
      [] instances
  in
  let families =
    List.map
      (fun (family, version) ->
        let fs = List.filter (fun (s : instance_score) -> s.family = family) scores in
        let n = List.length fs in
        let sum f = List.fold_left (fun acc s -> acc + f s) 0 fs in
        let proposed = sum (fun s -> s.proposed) in
        let correct = sum (fun s -> s.correct) in
        let isolated = List.filter (fun s -> s.time_to_isolation <> None) fs in
        let mean_tti =
          match isolated with
          | [] -> 0.0
          | _ ->
            float_of_int
              (List.fold_left
                 (fun acc s -> acc + Option.value ~default:0 s.time_to_isolation)
                 0 isolated)
            /. float_of_int (List.length isolated)
        in
        {
          family;
          version;
          instances = n;
          precision =
            (if proposed = 0 then 1.0 else float_of_int correct /. float_of_int proposed);
          recall =
            (if n = 0 then 0.0
             else
               float_of_int (List.length (List.filter (fun s -> s.localized) fs))
               /. float_of_int n);
          isolated = List.length isolated;
          mean_time_to_isolation = mean_tti;
          averted_rate =
            (if n = 0 then 0.0
             else
               float_of_int (List.length (List.filter (fun s -> s.averted) fs))
               /. float_of_int n);
          mean_proof_coverage =
            (if n = 0 then 0.0
             else
               List.fold_left (fun acc s -> acc +. s.proof_coverage) 0.0 fs /. float_of_int n);
        })
      family_order
  in
  (scores, families)
