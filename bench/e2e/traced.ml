(* The traced run: a copy of [Platform.run_single] / [run_federated]
   built only from public functions, with a span around every call
   into a layer.

   - Each hive endpoint's receive handler is re-installed around
     [Hive.inject ~slot] (slots in attachment order, as
     [Hive.attach_pod] numbers them).
   - The analysis tick, shard ticks and [Federation.superstep] run from
     timers of our own, armed in the order [Hive.start] and
     [Federation.start] arm theirs.
   - The chaos plan is replayed with [Hive.checkpoint] and
     [Hive.restore] wrapped.
   - [Sim.step] runs until a sentinel event at [Float.succ duration]:
     exactly the events [Sim.run ~until:duration] fires.

   Step time no span covers is [pods_net]: pod execution, wire
   encoding, transport and links, and the simulator itself.  Under
   overload protection the hive also ingests from its own queue-drain
   events; a step that runs no span but shrinks [Hive.queue_length] is
   such a drain, and counts as receive time.  In a federated run the
   router owns every hive endpoint, so receive time is not separable
   and stays in [pods_net].

   The copy leaves out [Platform.run]'s metric snapshots, which only
   read state.  Otherwise it must assemble the fleet exactly as
   [Platform.run] does: its fingerprint is compared with the measured
   runs' ([trace.faithful]).  It covers the assemblies the workloads
   use; a federated run with a chaos plan is refused. *)

module Platform = Softborg.Platform
module Rng = Softborg_util.Rng
module Ir = Softborg_prog.Ir
module Sim = Softborg_net.Sim
module Link = Softborg_net.Link
module Transport = Softborg_net.Transport
module Fault_plan = Softborg_net.Fault_plan
module Hive = Softborg_hive.Hive
module Fixgen = Softborg_hive.Fixgen
module Federation = Softborg_hive.Federation
module Knowledge = Softborg_hive.Knowledge
module Pod = Softborg_pod.Pod

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- Spans ------------------------------------------------------------- *)

(* Durations of one layer's spans, in ns, as a log histogram with 16
   buckets per power of two (percentiles within ~3%).  Its memory is
   fixed: this program spends a large share of its time in the GC,
   whose pacing follows the live heap, and a traced run that kept one
   entry per span ran measurably faster than the untraced one. *)
module Spans = struct
  let sub_bits = 4

  type t = {
    buckets : int array;
    mutable count : int;
    mutable total : int;
    mutable max : int;
  }

  let create () =
    { buckets = Array.make ((64 - sub_bits) lsl sub_bits) 0; count = 0; total = 0; max = 0 }

  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

  (* Bucket [e * 16 + s] holds [2^e * (1 + s/16)] up to the next bucket. *)
  let bucket d =
    if d < 1 lsl sub_bits then d
    else
      let e = log2 d in
      ((e - sub_bits + 1) lsl sub_bits) + ((d lsr (e - sub_bits)) land ((1 lsl sub_bits) - 1))

  let lower_bound i =
    if i < 1 lsl sub_bits then float_of_int i
    else
      let e = (i lsr sub_bits) + sub_bits - 1 and s = i land ((1 lsl sub_bits) - 1) in
      Float.ldexp (1.0 +. (float_of_int s /. float_of_int (1 lsl sub_bits))) e

  let add t d =
    let d = max 0 d in
    let i = bucket d in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.count <- t.count + 1;
    t.total <- t.total + d;
    if d > t.max then t.max <- d

  (* The [p]-th percentile (0–100) as the midpoint of its bucket; 0 when
     empty, the exact maximum at 100. *)
  let percentile t p =
    if t.count = 0 then 0.0
    else if p >= 100.0 then float_of_int t.max
    else
      let rank = Float.max 1.0 (Float.ceil (p /. 100.0 *. float_of_int t.count)) in
      let rec find i seen =
        let seen = seen + t.buckets.(i) in
        if float_of_int seen >= rank || i = Array.length t.buckets - 1 then i else find (i + 1) seen
      in
      let i = find 0 0 in
      Float.min (float_of_int t.max) ((lower_bound i +. lower_bound (i + 1)) /. 2.0)
end

type layers = {
  receive : Spans.t;
  tick : Spans.t;
  shard_tick : Spans.t;
  superstep : Spans.t;
  checkpoint : Spans.t;
  restore : Spans.t;
  mutable checkpoint_bytes : int list;
  mutable depth : int;
  mutable covered_in_step : int;  (** Top-level span time in the current step. *)
}

let span layers spans f =
  layers.depth <- layers.depth + 1;
  let t0 = now_ns () in
  let result = f () in
  let d = now_ns () - t0 in
  layers.depth <- layers.depth - 1;
  Spans.add spans d;
  if layers.depth = 0 then layers.covered_in_step <- layers.covered_in_step + d;
  result

(* ---- GC pauses from Runtime_events ------------------------------------- *)

(* Time the main domain spends inside a minor collection or a major
   slice, read from this process's own runtime-events ring.  Polled
   from the step loop and from a GC alarm at the end of every major
   cycle — one long analysis tick can otherwise overrun the ring — and
   never from an extra domain. *)
module Gc_pauses = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    total_ns : int ref;
    lost : int ref;
    mutable alarm : Gc.alarm option;
  }

  let is_pause = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  let start () =
    Runtime_events.start ();
    let cursor = Runtime_events.create_cursor None in
    (* The ring is mapped now; its file need not stay on disk. *)
    let dir = Option.value ~default:"." (Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR") in
    (try Sys.remove (Filename.concat dir (Printf.sprintf "%d.events" (Unix.getpid ())))
     with Sys_error _ -> ());
    let depth = ref 0 and since = ref 0 and total_ns = ref 0 and lost = ref 0 in
    let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
    let runtime_begin ring ts phase =
      if ring = 0 && is_pause phase then begin
        if !depth = 0 then since := ns ts;
        incr depth
      end
    in
    let runtime_end ring ts phase =
      if ring = 0 && is_pause phase && !depth > 0 then begin
        decr depth;
        if !depth = 0 then total_ns := !total_ns + (ns ts - !since)
      end
    in
    let callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
        ~lost_events:(fun _ n -> lost := !lost + n)
        ()
    in
    let t = { cursor; callbacks; total_ns; lost; alarm = None } in
    t.alarm <- Some (Gc.create_alarm (fun () -> poll t));
    t

  let stop t =
    Option.iter Gc.delete_alarm t.alarm;
    t.alarm <- None;
    poll t
end

(* ---- The copy ----------------------------------------------------------- *)

type result = {
  fingerprint : Measure.fingerprint;
  wall_ns : int;  (** Fleet assembly through shutdown. *)
  layers : layers;
  pods_net_ns : int;
  gc_pause_ns : int;
  gc_events_lost : int;
  sim_events : int;
  captured : string list;
      (** Canonical [Trace_upload] frames the ingesting hive accepted,
          oldest first (at most [capture_limit]), for the offline layer
          replays. *)
  knowledge : Knowledge.t list;  (** The ingesting hive's final knowledge. *)
}

let capture_limit = 5_000

let upload_mode (config : Platform.config) =
  match config.Platform.hive_config.Hive.mode with
  | Hive.Full -> Pod.Full_traces
  | Hive.Wer -> Pod.Outcomes_only
  | Hive.Cbi -> Pod.Sampled_reports config.Platform.cbi_sampling_rate

let rec every sim ~interval f =
  Sim.schedule sim ~delay:interval (fun () ->
      f ();
      every sim ~interval f)

(* The parts of an assembled fleet the step loop and the result need. *)
type fleet = {
  sim : Sim.t;
  pods : Pod.t list ref;
  pod_endpoints : Transport.endpoint list ref;
  ingesting : Hive.t;  (** The hive whose stats and knowledge are the run's result. *)
  queue_length : unit -> int;
  shutdown : unit -> unit;
}

(* Mirrors [Platform.install_chaos]: every random draw happens in the
   same order on the same stream. *)
let install_chaos ~sim ~(config : Platform.config) ~hive ~layers ~attach ~pods ~pod_endpoints
    ~hive_endpoints plan =
  let pod_upload = upload_mode config in
  let chaos_rng = Rng.create (config.Platform.seed lxor 0x6368616f73) in
  let checkpoint () =
    span layers layers.checkpoint (fun () ->
        let bytes = Hive.checkpoint hive in
        layers.checkpoint_bytes <- String.length bytes :: layers.checkpoint_bytes;
        bytes)
  in
  let last_checkpoint = ref (checkpoint ()) in
  if config.Platform.checkpoint_interval > 0.0 then begin
    let rec arm at =
      if at <= config.Platform.duration then
        Sim.schedule_at sim ~time:at (fun () ->
            last_checkpoint := checkpoint ();
            arm (at +. config.Platform.checkpoint_interval))
    in
    arm config.Platform.checkpoint_interval
  end;
  let next_cohort = ref config.Platform.n_pods in
  let all_links () = List.filter_map Transport.out_link (!pod_endpoints @ !hive_endpoints) in
  List.iter
    (fun event ->
      match event with
      | Fault_plan.Checkpoint { at } ->
        Sim.schedule_at sim ~time:at (fun () -> last_checkpoint := checkpoint ())
      | Fault_plan.Hive_crash { at } ->
        Sim.schedule_at sim ~time:at (fun () ->
            span layers layers.restore (fun () ->
                match Hive.restore hive !last_checkpoint with Ok _ | Error _ -> ()))
      | Fault_plan.Pod_leave { at; pod } ->
        Sim.schedule_at sim ~time:at (fun () ->
            match !pods with
            | [] -> ()
            | alive -> Pod.stop (List.nth alive (pod mod List.length alive)))
      | Fault_plan.Pod_join { at } ->
        Sim.schedule_at sim ~time:at (fun () ->
            let programs = config.Platform.programs in
            let program = List.nth programs (Rng.int chaos_rng (List.length programs)) in
            let pod_end, hive_end =
              Transport.endpoint_pair ~config:config.Platform.transport_config ~sim
                ~rng:(Rng.split chaos_rng) ()
            in
            attach hive_end;
            let pod_config = { config.Platform.pod_config with Pod.upload = pod_upload } in
            let cohort = !next_cohort in
            next_cohort := cohort + 1;
            let pod =
              Pod.create ~config:pod_config ~cohort ~sim ~rng:(Rng.split chaos_rng) ~program
                ~endpoint:pod_end ()
            in
            Pod.start pod;
            pods := !pods @ [ pod ];
            pod_endpoints := !pod_endpoints @ [ pod_end ];
            hive_endpoints := !hive_endpoints @ [ hive_end ])
      | Fault_plan.Degrade { at; until_; link } ->
        Sim.schedule_at sim ~time:at (fun () ->
            List.iter (fun l -> Link.set_config l link) (all_links ()));
        Sim.schedule_at sim ~time:until_ (fun () ->
            List.iter
              (fun l -> Link.set_config l config.Platform.transport_config.Transport.link)
              (all_links ()))
      | Fault_plan.Bad_fix { at; program; variant } ->
        Sim.schedule_at sim ~time:at (fun () ->
            let programs = config.Platform.programs in
            let p = List.nth programs (program mod List.length programs) in
            let kind = Fixgen.sabotage_kind (Fixgen.sabotage_of_variant variant) ~program:p in
            Hive.inject_fix hive ~digest:(Ir.digest p) kind))
    (Fault_plan.events plan)

(* Mirrors [Platform.run_single] up to [Sim.run]. *)
let assemble_single (config : Platform.config) ~layers ~capture =
  let sim = Sim.create () in
  let rng = Rng.create config.Platform.seed in
  let hive = Hive.create ~config:config.Platform.hive_config ~sim () in
  List.iter (fun program -> ignore (Hive.register_program hive program)) config.Platform.programs;
  let pod_upload = upload_mode config in
  let next_slot = ref 0 in
  let attach hive_end =
    Hive.attach_pod hive hive_end;
    let slot = !next_slot in
    incr next_slot;
    Transport.on_receive hive_end (fun payload ->
        span layers layers.receive (fun () -> Hive.inject hive ~slot payload))
  in
  let fleet =
    List.init config.Platform.n_pods (fun i ->
        let programs = config.Platform.programs in
        let program = List.nth programs (i mod List.length programs) in
        let pod_end, hive_end =
          Transport.endpoint_pair ~config:config.Platform.transport_config ~sim
            ~rng:(Rng.split rng) ()
        in
        attach hive_end;
        let pod_config = { config.Platform.pod_config with Pod.upload = pod_upload } in
        let pod =
          Pod.create ~config:pod_config ~cohort:i ~sim ~rng:(Rng.split rng) ~program
            ~endpoint:pod_end ()
        in
        (pod, pod_end, hive_end))
  in
  let pods = ref (List.map (fun (p, _, _) -> p) fleet) in
  let pod_endpoints = ref (List.map (fun (_, e, _) -> e) fleet) in
  let hive_endpoints = ref (List.map (fun (_, _, e) -> e) fleet) in
  Hive.set_ingest_tap hive capture;
  (* [Hive.start] *)
  every sim ~interval:config.Platform.hive_config.Hive.analysis_interval (fun () ->
      span layers layers.tick (fun () -> Hive.tick hive));
  List.iter Pod.start !pods;
  Option.iter
    (install_chaos ~sim ~config ~hive ~layers ~attach ~pods ~pod_endpoints ~hive_endpoints)
    config.Platform.chaos;
  {
    sim;
    pods;
    pod_endpoints;
    ingesting = hive;
    queue_length = (fun () -> Hive.queue_length hive);
    shutdown = (fun () -> Hive.shutdown hive);
  }

(* Mirrors [Platform.run_federated] up to [Sim.run]. *)
let assemble_federated (config : Platform.config) ~layers ~capture =
  if config.Platform.chaos <> None then
    invalid_arg "traced copy: a federated run with a chaos plan is not mirrored";
  let sim = Sim.create () in
  let rng = Rng.create config.Platform.seed in
  let base = config.Platform.hive_config in
  let fed_config =
    {
      (Federation.default_config ~n_shards:config.Platform.n_shards ()) with
      Federation.superstep_interval = base.Hive.analysis_interval /. 2.0;
      synthesize = true;
      shard_hive = { base with Hive.synthesize = false; prove = false; pool_size = 1 };
      merged_hive = { base with Hive.pool_size = 1; overload = None };
      transport = config.Platform.transport_config;
      pool_size = base.Hive.pool_size;
    }
  in
  let fed = Federation.create ~config:fed_config ~sim ~rng:(Rng.split rng) () in
  List.iter
    (fun program -> ignore (Federation.register_program fed program))
    config.Platform.programs;
  let pod_upload = upload_mode config in
  let fleet =
    List.init config.Platform.n_pods (fun i ->
        let programs = config.Platform.programs in
        let program = List.nth programs (i mod List.length programs) in
        let pod_end, hive_end =
          Transport.endpoint_pair ~config:config.Platform.transport_config ~sim
            ~rng:(Rng.split rng) ()
        in
        Federation.attach_pod fed hive_end;
        let pod_config = { config.Platform.pod_config with Pod.upload = pod_upload } in
        let pod =
          Pod.create ~config:pod_config ~cohort:i ~sim ~rng:(Rng.split rng) ~program
            ~endpoint:pod_end ()
        in
        (pod, pod_end))
  in
  let merged = Federation.merged fed in
  Hive.set_ingest_tap merged capture;
  (* [Federation.start]: every shard's [Hive.start], then the superstep. *)
  for i = 0 to Federation.n_shards fed - 1 do
    let shard = Federation.shard_hive fed i in
    every sim ~interval:fed_config.Federation.shard_hive.Hive.analysis_interval (fun () ->
        span layers layers.shard_tick (fun () -> Hive.tick shard))
  done;
  every sim ~interval:fed_config.Federation.superstep_interval (fun () ->
      span layers layers.superstep (fun () -> Federation.superstep fed));
  let pods = ref (List.map fst fleet) in
  List.iter Pod.start !pods;
  {
    sim;
    pods;
    pod_endpoints = ref (List.map snd fleet);
    ingesting = merged;
    queue_length = (fun () -> 0);
    shutdown = (fun () -> Federation.shutdown fed);
  }

let run (config : Platform.config) =
  let gc = Gc_pauses.start () in
  let layers =
    {
      receive = Spans.create ();
      tick = Spans.create ();
      shard_tick = Spans.create ();
      superstep = Spans.create ();
      checkpoint = Spans.create ();
      restore = Spans.create ();
      checkpoint_bytes = [];
      depth = 0;
      covered_in_step = 0;
    }
  in
  let captured = ref [] and n_captured = ref 0 in
  let capture payload =
    if !n_captured < capture_limit then begin
      captured := payload :: !captured;
      incr n_captured
    end
  in
  Gc_pauses.poll gc;
  let pause0 = !(gc.Gc_pauses.total_ns) in
  let t0 = now_ns () in
  let fleet =
    if config.Platform.n_shards <= 1 then assemble_single config ~layers ~capture
    else assemble_federated config ~layers ~capture
  in
  let finished = ref false in
  Sim.schedule_at fleet.sim ~time:(Float.succ config.Platform.duration) (fun () ->
      finished := true);
  let pods_net = ref 0 and steps = ref 0 in
  while not !finished do
    layers.covered_in_step <- 0;
    let queued = fleet.queue_length () in
    let s0 = now_ns () in
    ignore (Sim.step fleet.sim);
    let rest = now_ns () - s0 - layers.covered_in_step in
    if layers.covered_in_step = 0 && fleet.queue_length () < queued then
      Spans.add layers.receive rest
    else pods_net := !pods_net + rest;
    incr steps;
    if !steps land 255 = 0 then Gc_pauses.poll gc
  done;
  fleet.shutdown ();
  let wall_ns = now_ns () - t0 in
  Gc_pauses.stop gc;
  let knowledge = Hive.knowledge_list fleet.ingesting in
  {
    fingerprint =
      Measure.fingerprint
        ~pod_metrics:(List.map Pod.metrics !(fleet.pods))
        ~transport_stats:(List.map Transport.stats !(fleet.pod_endpoints))
        ~hive_stats:(Hive.stats fleet.ingesting) ~knowledge;
    wall_ns;
    layers;
    pods_net_ns = !pods_net;
    gc_pause_ns = !(gc.Gc_pauses.total_ns) - pause0;
    gc_events_lost = !(gc.Gc_pauses.lost);
    (* The sentinel is not one of [Platform.run]'s events. *)
    sim_events = Sim.fired fleet.sim - 1;
    captured = List.rev !captured;
    knowledge;
  }
