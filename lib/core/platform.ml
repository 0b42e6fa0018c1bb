module Rng = Softborg_util.Rng
module Ir = Softborg_prog.Ir
module Generator = Softborg_prog.Generator
module Sim = Softborg_net.Sim
module Link = Softborg_net.Link
module Transport = Softborg_net.Transport
module Fault_plan = Softborg_net.Fault_plan
module Hive = Softborg_hive.Hive
module Knowledge = Softborg_hive.Knowledge
module Fixgen = Softborg_hive.Fixgen
module Prover = Softborg_hive.Prover
module Federation = Softborg_hive.Federation
module Shard_map = Softborg_hive.Shard_map
module Exec_tree = Softborg_tree.Exec_tree
module Pod = Softborg_pod.Pod

type config = {
  seed : int;
  n_pods : int;
  programs : Ir.t list;
  duration : float;
  sample_interval : float;
  pod_config : Pod.config;
  hive_config : Hive.config;
  transport_config : Transport.config;
  cbi_sampling_rate : int;
  chaos : Fault_plan.t option;
  checkpoint_interval : float;
  n_shards : int;
}

let default_programs seed =
  let rng = Rng.create seed in
  List.init 3 (fun i ->
      let bugs =
        match i with
        | 0 -> [ Generator.Rare_assert; Generator.Unchecked_syscall ]
        | 1 -> [ Generator.Div_by_zero ]
        | _ -> [ Generator.Deadlock_pair ]
      in
      fst (Generator.generate rng { Generator.default_params with Generator.bugs }))

let default_config ?(mode = Hive.Full) () =
  {
    seed = 42;
    n_pods = 8;
    programs = default_programs 42;
    duration = 600.0;
    sample_interval = 60.0;
    pod_config = Pod.default_config;
    hive_config = Hive.default_config mode;
    transport_config = Transport.default_config;
    cbi_sampling_rate = 100;
    chaos = None;
    checkpoint_interval = 120.0;
    n_shards = 1;
  }

type report = {
  snapshots : Metrics.snapshot list;
  final : Metrics.snapshot;
  hive_stats : Hive.stats;
  pod_metrics : Pod.metrics list;
  transport_stats : Transport.stats list;
  knowledge : Knowledge.t list;
  federation : Federation.stats option;
}

let upload_mode config =
  match config.hive_config.Hive.mode with
  | Hive.Full -> Pod.Full_traces
  | Hive.Wer -> Pod.Outcomes_only
  | Hive.Cbi -> Pod.Sampled_reports config.cbi_sampling_rate

(* ---- The hive side ------------------------------------------------------ *)

(* The one thing a single-hive and a federated fleet disagree on: what
   the pods attach to.  The serving hives face the pods — the hive
   itself, or the federation's shards — and their totals are the
   platform's admission, checkpoint and cache counters.  The ingesting
   hive — the hive itself, or the merge coordinator — holds the
   knowledge, fixes and rollout verdicts. *)
type side =
  | Single of Hive.t
  | Federated of Federation.t

let fed_config config =
  let base = config.hive_config in
  {
    (Federation.default_config ~n_shards:config.n_shards ()) with
    (* Half the analysis cadence: the coordinator serves no pods, and
       the faster merged analysis pays for the flush-then-commit hop
       a superstep merge inserts before evidence reaches it — keeping
       time-to-first-fix on par with the single hive. *)
    Federation.superstep_interval = base.Hive.analysis_interval /. 2.0;
    synthesize = true;
    shard_hive = base;
    merged_hive = { base with Hive.overload = None };
    transport = config.transport_config;
  }

let create_side config ~sim ~rng =
  if config.n_shards <= 1 then begin
    let hive = Hive.create ~config:config.hive_config ~sim () in
    List.iter (fun program -> ignore (Hive.register_program hive program)) config.programs;
    Single hive
  end
  else begin
    let fed = Federation.create ~config:(fed_config config) ~sim ~rng:(Rng.split rng) () in
    List.iter (fun program -> ignore (Federation.register_program fed program)) config.programs;
    Federated fed
  end

let attach_pod = function Single h -> Hive.attach_pod h | Federated f -> Federation.attach_pod f
let start_side = function Single h -> Hive.start h | Federated f -> Federation.start f
let ingesting = function Single h -> h | Federated f -> Federation.merged f

let serving = function
  | Single h -> [ h ]
  | Federated f -> List.init (Federation.n_shards f) (Federation.shard_hive f)

(* One checkpoint per serving hive; [restore_side side i] restores the
   [i]th from its own. *)
let checkpoint_side = function
  | Single h -> [| Hive.checkpoint h |]
  | Federated f -> Array.init (Federation.n_shards f) (Federation.checkpoint_shard f)

let restore_side side i data =
  match side with
  | Single h -> Hive.restore h data
  | Federated f -> Federation.restore_shard f i data

(* Links a [Degrade] window reaches beyond the pods' own connections:
   the router's shard and coordinator links. *)
let extra_links = function Single _ -> [] | Federated f -> Federation.links f

type fleet = {
  side : side;
  mutable pods : Pod.t list;
  mutable pod_endpoints : Transport.endpoint list;
  mutable hive_endpoints : Transport.endpoint list;
}

(* Connect one pod to the hive side.  Both draws come from [rng]: the
   fleet stream for the initial pods, the chaos stream for joiners.
   The caller starts the pod. *)
let add_pod ~sim ~config fleet ~rng ~cohort program =
  let pod_end, hive_end =
    Transport.endpoint_pair ~config:config.transport_config ~sim ~rng:(Rng.split rng) ()
  in
  attach_pod fleet.side hive_end;
  let pod_config = { config.pod_config with Pod.upload = upload_mode config } in
  let pod =
    Pod.create ~config:pod_config ~cohort ~sim ~rng:(Rng.split rng) ~program ~endpoint:pod_end ()
  in
  fleet.pods <- fleet.pods @ [ pod ];
  fleet.pod_endpoints <- fleet.pod_endpoints @ [ pod_end ];
  fleet.hive_endpoints <- fleet.hive_endpoints @ [ hive_end ];
  pod

(* The knowledge list is fetched fresh on every snapshot: a checkpoint
   restore replaces the hive's [Knowledge.t] objects, so a list captured
   at t=0 would silently keep reading the pre-restore ones. *)
let snapshot ~time fleet =
  let ingesting = ingesting fleet.side in
  let serving = serving fleet.side in
  let knowledge_list = Hive.knowledge_list ingesting in
  let sum f = List.fold_left (fun acc pod -> acc + f (Pod.metrics pod)) 0 fleet.pods in
  let sum_wire f =
    List.fold_left (fun acc e -> acc + f (Transport.stats e)) 0 fleet.pod_endpoints
  in
  let hive_stats = Hive.stats ingesting in
  let serving_stats = List.map Hive.stats serving in
  let serving_sum f = List.fold_left (fun acc h -> acc + f h) 0 serving_stats in
  let sum_knowledge f = List.fold_left (fun acc k -> acc + f k) 0 knowledge_list in
  let serving_knowledge_sum f =
    List.fold_left
      (fun acc h -> List.fold_left (fun acc k -> acc + f k) acc (Hive.knowledge_list h))
      0 serving
  in
  let proofs_valid = sum_knowledge (fun k -> List.length (Knowledge.valid_proofs k)) in
  let tree_paths = sum_knowledge (fun k -> Exec_tree.n_distinct_paths (Knowledge.tree k)) in
  let completeness =
    match knowledge_list with
    | [] -> 1.0
    | ks ->
      List.fold_left (fun acc k -> acc +. Exec_tree.completeness (Knowledge.tree k)) 0.0 ks
      /. float_of_int (List.length ks)
  in
  {
    Metrics.time;
    sessions = sum (fun m -> m.Pod.sessions);
    guided_runs = sum (fun m -> m.Pod.guided_runs);
    user_failures = sum (fun m -> m.Pod.user_failures);
    averted_crashes = sum (fun m -> m.Pod.averted_crashes);
    deferred_acquisitions = sum (fun m -> m.Pod.deferred_acquisitions);
    guard_flags = sum (fun m -> m.Pod.guard_flags);
    traces_uploaded = sum (fun m -> m.Pod.traces_uploaded);
    fixes_deployed = hive_stats.Hive.fixes_deployed;
    proofs_valid;
    tree_paths;
    tree_completeness = completeness;
    checkpoints = serving_sum (fun h -> h.Hive.checkpoints_taken);
    restores = serving_sum (fun h -> h.Hive.restores_completed);
    shed_uploads = serving_sum (fun h -> h.Hive.shed_success + h.Hive.shed_failure);
    quarantined_frames = serving_sum (fun h -> h.Hive.quarantined_frames);
    pods_muted = serving_sum (fun h -> h.Hive.pods_muted);
    peak_queue_depth =
      List.fold_left (fun acc h -> max acc h.Hive.peak_queue_depth) 0 serving_stats;
    thinned_uploads = sum (fun m -> m.Pod.thinned_uploads);
    dead_letters = sum (fun m -> m.Pod.dead_letters);
    wire_bytes = sum_wire (fun s -> s.Transport.bytes_on_wire);
    wire_frames_sent = sum_wire (fun s -> s.Transport.messages_sent);
    wire_frames_received = sum_wire (fun s -> s.Transport.delivered);
    gap_memo_hits =
      serving_knowledge_sum (fun k -> Softborg_hive.Gap_memo.hits (Knowledge.gap_memo k));
    gap_memo_misses =
      serving_knowledge_sum (fun k -> Softborg_hive.Gap_memo.misses (Knowledge.gap_memo k));
    verdict_cache_hits =
      serving_knowledge_sum (fun k ->
          Softborg_solver.Verdict_cache.hits (Knowledge.verdict_cache k));
    verdict_cache_misses =
      serving_knowledge_sum (fun k ->
          Softborg_solver.Verdict_cache.misses (Knowledge.verdict_cache k));
    (* Rollout verdicts are decided only at the ingesting hive. *)
    canary_fixes = sum_knowledge (fun k -> List.length (Knowledge.canary_ids k));
    fix_promotions = hive_stats.Hive.fix_promotions;
    fix_retractions = hive_stats.Hive.fix_retractions;
    quarantined_fix_traces = hive_stats.Hive.quarantined_fix_traces;
    pods_exposed = sum (fun m -> if m.Pod.canary_exposed then 1 else 0);
  }

(* Interpret the fault plan against a live fleet.  All chaos-side
   randomness (joining pods' streams, program choice) comes from
   [chaos_rng], which is derived from the seed but independent of the
   main fleet streams — a plan containing only Checkpoint events leaves
   a run byte-identical to its fault-free twin. *)
let install_chaos ~sim ~config fleet plan =
  let chaos_rng = Rng.create (config.seed lxor 0x6368616f73) in
  (* An initial checkpoint so a crash before the first scheduled one
     restores to the empty-but-registered state, not garbage. *)
  let last_checkpoints = ref (checkpoint_side fleet.side) in
  let take_checkpoints () = last_checkpoints := checkpoint_side fleet.side in
  if config.checkpoint_interval > 0.0 then begin
    let rec arm at =
      if at <= config.duration then
        Sim.schedule_at sim ~time:at (fun () ->
            take_checkpoints ();
            arm (at +. config.checkpoint_interval))
    in
    arm config.checkpoint_interval
  end;
  let crash_count = ref 0 in
  let next_cohort = ref config.n_pods in
  let all_links () =
    List.filter_map Transport.out_link (fleet.pod_endpoints @ fleet.hive_endpoints)
    @ extra_links fleet.side
  in
  List.iter
    (fun event ->
      match event with
      | Fault_plan.Checkpoint { at } -> Sim.schedule_at sim ~time:at take_checkpoints
      | Fault_plan.Hive_crash { at } ->
        (* Crash + restart collapse to one instant on the simulated
           clock.  One serving hive dies per crash event, round-robin
           over the shards, and restores from its side of the last
           checkpoint; everything else keeps running. *)
        Sim.schedule_at sim ~time:at (fun () ->
            let i = !crash_count mod Array.length !last_checkpoints in
            incr crash_count;
            match restore_side fleet.side i !last_checkpoints.(i) with Ok _ | Error _ -> ())
      | Fault_plan.Pod_leave { at; pod } ->
        Sim.schedule_at sim ~time:at (fun () ->
            match fleet.pods with
            | [] -> ()
            | alive -> Pod.stop (List.nth alive (pod mod List.length alive)))
      | Fault_plan.Pod_join { at } ->
        Sim.schedule_at sim ~time:at (fun () ->
            let program =
              List.nth config.programs (Rng.int chaos_rng (List.length config.programs))
            in
            let cohort = !next_cohort in
            next_cohort := cohort + 1;
            Pod.start (add_pod ~sim ~config fleet ~rng:chaos_rng ~cohort program))
      | Fault_plan.Degrade { at; until_; link } ->
        Sim.schedule_at sim ~time:at (fun () ->
            List.iter (fun l -> Link.set_config l link) (all_links ()));
        Sim.schedule_at sim ~time:until_ (fun () ->
            List.iter
              (fun l -> Link.set_config l config.transport_config.Transport.link)
              (all_links ()))
      | Fault_plan.Bad_fix { at; program; variant } ->
        (* The saboteur: a plausible-but-wrong fix enters the ingesting
           hive as if synthesis (or a human) produced it.  Under a
           staging rollout it lands in a canary cohort and must be
           retracted; under instant deployment it goes fleet-wide —
           exactly the hazard staging removes.  Shards and pods of a
           federation learn the fix, and its fate, in superstep order. *)
        Sim.schedule_at sim ~time:at (fun () ->
            let p = List.nth config.programs (program mod List.length config.programs) in
            let kind =
              Fixgen.sabotage_kind (Fixgen.sabotage_of_variant variant) ~program:p
            in
            Hive.inject_fix (ingesting fleet.side) ~digest:(Ir.digest p) kind))
    (Fault_plan.events plan)

let run config =
  let sim = Sim.create () in
  let rng = Rng.create config.seed in
  let fleet =
    { side = create_side config ~sim ~rng; pods = []; pod_endpoints = []; hive_endpoints = [] }
  in
  for i = 0 to config.n_pods - 1 do
    let program = List.nth config.programs (i mod List.length config.programs) in
    ignore (add_pod ~sim ~config fleet ~rng ~cohort:i program)
  done;
  start_side fleet.side;
  List.iter Pod.start fleet.pods;
  Option.iter (install_chaos ~sim ~config fleet) config.chaos;
  let snapshots = ref [ snapshot ~time:0.0 fleet ] in
  let rec sample at =
    if at <= config.duration then
      Sim.schedule_at sim ~time:at (fun () ->
          snapshots := snapshot ~time:at fleet :: !snapshots;
          sample (at +. config.sample_interval))
  in
  sample config.sample_interval;
  Sim.run ~until:config.duration sim;
  let snapshots = List.rev !snapshots in
  let final = List.nth snapshots (List.length snapshots - 1) in
  let hive = ingesting fleet.side in
  {
    snapshots;
    final;
    hive_stats = Hive.stats hive;
    pod_metrics = List.map Pod.metrics fleet.pods;
    transport_stats = List.map Transport.stats fleet.pod_endpoints;
    knowledge = Hive.knowledge_list hive;
    federation =
      (match fleet.side with Single _ -> None | Federated f -> Some (Federation.stats f));
  }

let pp_report fmt report =
  Format.fprintf fmt "snapshots:@.";
  List.iter (fun s -> Format.fprintf fmt "  %a@." Metrics.pp_snapshot s) report.snapshots;
  let h = report.hive_stats in
  Format.fprintf fmt
    "hive: traces=%d ticks=%d fixes=%d fix-updates=%d guidance=%d proofs=%d human-fixes=%d@."
    h.Hive.traces_received h.Hive.analysis_ticks h.Hive.fixes_deployed h.Hive.fix_updates_sent
    h.Hive.guidance_sent h.Hive.proofs_established h.Hive.human_fixes_scheduled;
  (* Wire-plane accounting from the final snapshot.  Batch/delta
     counters print only when batching actually ran, so legacy runs'
     reports gain one line whose numbers are a pure function of the
     traffic — identical across the byte-identity comparison pairs. *)
  (let f = report.final in
   if f.Metrics.wire_frames_sent > 0 then begin
     let sum_pod g = List.fold_left (fun acc m -> acc + g m) 0 report.pod_metrics in
     let batches = sum_pod (fun m -> m.Pod.batches_sent) in
     Format.fprintf fmt "wire: bytes=%d frames=%d/%d%s@." f.Metrics.wire_bytes
       f.Metrics.wire_frames_sent f.Metrics.wire_frames_received
       (if batches > 0 then
          Printf.sprintf " batches=%d delta-records=%d" batches
            (sum_pod (fun m -> m.Pod.delta_records))
        else "")
   end);
  (* Printed only when overload protection actually intervened, so an
     unpressured run's report is byte-identical to one without the
     overload layer. *)
  if
    h.Hive.shed_success + h.Hive.shed_failure + h.Hive.quarantined_frames + h.Hive.pods_muted
    + h.Hive.peak_queue_depth
    > 0
  then
    Format.fprintf fmt
      "overload: shed=%d+%d quarantined=%d muted=%d muted-drops=%d pressure-updates=%d peak-queue=%d@."
      h.Hive.shed_failure h.Hive.shed_success h.Hive.quarantined_frames h.Hive.pods_muted
      h.Hive.muted_drops h.Hive.pressure_updates_sent h.Hive.peak_queue_depth;
  (* Rollout accounting prints only when staging actually happened, so
     rollout-off runs' reports stay byte-identical to older builds. *)
  (let f = report.final in
   if
     h.Hive.fix_promotions + h.Hive.fix_retractions + h.Hive.quarantined_fix_traces
     + f.Metrics.canary_fixes + f.Metrics.pods_exposed
     > 0
   then
     Format.fprintf fmt
       "rollout: canary=%d promoted=%d retracted=%d quarantined-traces=%d exposed-pods=%d@."
       f.Metrics.canary_fixes h.Hive.fix_promotions h.Hive.fix_retractions
       h.Hive.quarantined_fix_traces f.Metrics.pods_exposed);
  (* The federation section exists only for sharded runs, so printing
     per-shard cache efficiency here never perturbs the single-hive
     byte-identity invariants. *)
  (match report.federation with
  | None -> ()
  | Some fs ->
    Format.fprintf fmt
      "federation: shards=%d supersteps=%d deltas=%d/%d merged-payloads=%d fix-updates=%d@."
      (List.length fs.Federation.per_shard)
      fs.Federation.supersteps fs.Federation.deltas_committed fs.Federation.deltas_sent
      fs.Federation.payloads_merged fs.Federation.fix_updates_sent;
    List.iter
      (fun (ss : Federation.shard_stats) ->
        let sh = ss.Federation.hive_stats in
        Format.fprintf fmt "  shard %d: traces=%d memo=%d/%d vcache=%d/%d%s%s%s@."
          ss.Federation.shard sh.Hive.traces_received ss.Federation.gap_memo_hits
          ss.Federation.gap_memo_misses ss.Federation.verdict_cache_hits
          ss.Federation.verdict_cache_misses
          (if sh.Hive.restores_completed > 0 then
             Printf.sprintf " restores=%d" sh.Hive.restores_completed
           else "")
          (if sh.Hive.shed_success + sh.Hive.shed_failure > 0 then
             Printf.sprintf " shed=%d" (sh.Hive.shed_success + sh.Hive.shed_failure)
           else "")
          (if sh.Hive.quarantined_frames > 0 then
             Printf.sprintf " quarantined=%d" sh.Hive.quarantined_frames
           else ""))
      fs.Federation.per_shard);
  List.iter
    (fun k ->
      Format.fprintf fmt "program %s: traces=%d failures=%d paths=%d proofs=%d@."
        (Knowledge.program k).Ir.name (Knowledge.traces_ingested k)
        (Knowledge.failures_observed k)
        (Exec_tree.n_distinct_paths (Knowledge.tree k))
        (List.length (Knowledge.valid_proofs k)))
    report.knowledge
