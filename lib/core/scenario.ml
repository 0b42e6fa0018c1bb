module Rng = Softborg_util.Rng
module Generator = Softborg_prog.Generator
module Env = Softborg_exec.Env
module Link = Softborg_net.Link
module Transport = Softborg_net.Transport
module Fault_plan = Softborg_net.Fault_plan
module Hive = Softborg_hive.Hive
module Fix_lifecycle = Softborg_hive.Fix_lifecycle
module Pod = Softborg_pod.Pod
module Workload = Softborg_pod.Workload
module Corpus_bench = Softborg_corpus.Corpus_bench

let single_program ?(mode = Hive.Full) ?(seed = 42) program =
  let base = Platform.default_config ~mode () in
  { base with Platform.seed; n_pods = 6; programs = [ program ] }

let buggy_population ?(mode = Hive.Full) ?(seed = 42) ?(n_programs = 4) ?(n_pods = 12)
    ?(bugs = [ Generator.Rare_assert; Generator.Unchecked_syscall; Generator.Div_by_zero ])
    () =
  let rng = Rng.create seed in
  let population =
    List.init n_programs (fun i ->
        (* Rotate one bug cocktail per program so the population covers
           all classes. *)
        let bug = List.nth bugs (i mod List.length bugs) in
        Generator.generate rng { Generator.default_params with Generator.bugs = [ bug ] })
  in
  let base = Platform.default_config ~mode () in
  let config =
    { base with Platform.seed; n_pods; programs = List.map fst population }
  in
  (config, population)

let lossy_network config =
  let link = { Link.drop_probability = 0.10; mean_latency = 0.2; min_latency = 0.02 } in
  {
    config with
    Platform.transport_config = { config.Platform.transport_config with Transport.link };
  }

let three_way_comparison ?(seed = 42) () =
  List.map
    (fun mode ->
      let config, _ = buggy_population ~mode ~seed () in
      (Hive.mode_name mode, config))
    [ Hive.Full; Hive.Wer; Hive.Cbi ]

let with_chaos ?(chaos_seed = 1337) ?(crash_rate = 1.0 /. 400.0)
    ?(churn_rate = 1.0 /. 250.0) ?(degrade_rate = 1.0 /. 300.0) config =
  let plan =
    Fault_plan.generate
      ~rng:(Rng.create chaos_seed)
      ~duration:config.Platform.duration ~n_pods:config.Platform.n_pods ~crash_rate
      ~churn_rate ~degrade_rate ()
  in
  { config with Platform.chaos = Some plan }

let with_shards n config = { config with Platform.n_shards = n }

(* Fleet-scale wire encoding: pods batch [batch] traces per frame and
   (unless [delta = false]) delta-encode records, first against the
   batch's own leading record and, once the hive has seen their delta
   records and announced a prefix basis, against that.  [batch = 1]
   leaves the config untouched — the one-frame-per-trace wire format. *)
let with_fleet_encoding ?(batch = 16) ?(delta = true) config =
  if batch <= 1 then config
  else
    {
      config with
      Platform.pod_config =
        { config.Platform.pod_config with Pod.upload_batch = batch; delta_encode = delta };
    }

(* Staged fix rollout: the hive holds every new fix in a canary cohort
   and judges it with the sequential health test before fleet-wide
   promotion (or retraction).  Pods need no setting: they attribute
   uploads with their active fix ids once the hive's fix frames carry
   a canary fraction. *)
let with_rollout ?(rollout = Fix_lifecycle.default_config) config =
  {
    config with
    Platform.hive_config = { config.Platform.hive_config with Hive.rollout = rollout };
  }

(* Script a saboteur: at [at], a plausible-but-wrong fix for
   [program] is injected straight into the hive, exactly as a bad
   synthesis (or bad human patch) would land.  Appended to any chaos
   plan already attached, like [overload_spike]. *)
let inject_bad_fix ?(at = 120.0) ?(program = 0) ?(variant = 0) config =
  let existing =
    match config.Platform.chaos with Some plan -> Fault_plan.events plan | None -> []
  in
  {
    config with
    Platform.chaos =
      Some (Fault_plan.create (existing @ [ Fault_plan.Bad_fix { at; program; variant } ]));
  }

let with_overload ?overload config =
  let overload = Option.value ~default:Hive.default_overload_config overload in
  {
    config with
    Platform.hive_config =
      { config.Platform.hive_config with Hive.overload = Some overload };
  }

(* An arrival spike ≥4× nominal: a burst of extra pods joins shortly
   after [spike_start] (staggered so the joins themselves don't collide)
   and leaves at [spike_end].  Joined pods are appended to the fleet, so
   with no other churn in the plan they sit at indices
   [n_pods .. n_pods + spike_pods - 1] and the leave events address
   exactly them. *)
let overload_spike ?(spike_pods = 24) ?(spike_start = 150.0) ?(spike_end = 300.0) config =
  let joins =
    List.init spike_pods (fun i ->
        Fault_plan.Pod_join { at = spike_start +. (0.25 *. float_of_int i) })
  in
  let leaves =
    List.init spike_pods (fun i ->
        Fault_plan.Pod_leave { at = spike_end; pod = config.Platform.n_pods + i })
  in
  let existing =
    match config.Platform.chaos with Some plan -> Fault_plan.events plan | None -> []
  in
  {
    config with
    Platform.chaos = Some (Fault_plan.create (existing @ joins @ leaves));
  }

(* A corpus-bench instance as a platform scenario: the fleet serves
   the buggy build under a uniform workload wide enough to cover the
   instance's trigger values, and — for error-path instances — an
   ambient fault rate high enough that the targeted syscall failure
   actually occurs in the field. *)
let repair_instance ?(mode = Hive.Full) ?(seed = 42) (inst : Corpus_bench.instance) =
  let base = single_program ~mode ~seed inst.Corpus_bench.buggy in
  let pod = base.Platform.pod_config in
  let hi = Array.fold_left max 191 inst.Corpus_bench.trigger_inputs in
  let fault_probability =
    match inst.Corpus_bench.fault_plan with
    | Env.No_faults -> pod.Pod.fault_probability
    | Env.Random_faults _ | Env.Targeted _ -> 0.05
  in
  {
    base with
    Platform.pod_config =
      { pod with Pod.workload = Workload.Uniform_inputs { lo = 0; hi }; fault_probability };
  }
