module Ir = Softborg_prog.Ir
module Outcome = Softborg_exec.Outcome
module Env = Softborg_exec.Env
module Wire = Softborg_trace.Wire
module Trace = Softborg_trace.Trace
module Ids = Softborg_util.Ids
module Exec_tree = Softborg_tree.Exec_tree
module Sim = Softborg_net.Sim
module Transport = Softborg_net.Transport
module Sym_exec = Softborg_symexec.Sym_exec

let src = Logs.Src.create "softborg.hive" ~doc:"SoftBorg hive"

module Log = (val Logs.src_log src : Logs.LOG)

type mode =
  | Full
  | Wer
  | Cbi

let mode_name = function Full -> "softborg" | Wer -> "wer" | Cbi -> "cbi"

type shed_policy =
  | Drop_newest
  | Drop_oldest
  | Prefer_failures

type overload_config = {
  queue_bound : int;
  service_interval : float;
  shed_policy : shed_policy;
  caps : Wire.caps;
  quarantine_threshold : int;
  mute_cooldown : float;
}

let default_overload_config =
  {
    queue_bound = 64;
    service_interval = 0.02;
    shed_policy = Prefer_failures;
    caps = Wire.default_caps;
    quarantine_threshold = 5;
    mute_cooldown = 120.0;
  }

type config = {
  mode : mode;
  analysis_interval : float;
  guidance_max : int;
  human_fix_threshold : int;
  human_fix_delay : float;
  prove : bool;
  symexec_config : Sym_exec.config;
  pool_size : int;
  overload : overload_config option;
  synthesize : bool;
  rollout : Fix_lifecycle.config;
}

let default_config mode =
  {
    mode;
    analysis_interval = 30.0;
    guidance_max = 8;
    human_fix_threshold = 10;
    human_fix_delay = 2000.0;
    prove = (mode = Full);
    pool_size = 1;
    overload = None;
    synthesize = true;
    rollout = Fix_lifecycle.instant;
    symexec_config =
      (* The hive analyzes many programs per tick; bound each symbolic
         operation tightly and rely on repetition across ticks. *)
      {
        Sym_exec.default_config with
        Sym_exec.max_paths = 96;
        max_steps_per_path = 1500;
        solver_budget = 20_000;
      };
  }

type stats = {
  traces_received : int;
  messages_received : int;
  analysis_ticks : int;
  fixes_deployed : int;
  fix_updates_sent : int;
  guidance_sent : int;
  proofs_established : int;
  human_fixes_scheduled : int;
  checkpoints_taken : int;
  restores_completed : int;
  shed_success : int;
  shed_failure : int;
  quarantined_frames : int;
  pods_muted : int;
  muted_drops : int;
  pressure_updates_sent : int;
  peak_queue_depth : int;
  batch_frames_received : int;
  batch_records_received : int;
  fix_promotions : int;
  fix_retractions : int;
  quarantined_fix_traces : int;
}

(* One admitted-but-not-yet-processed upload.  The frame is decoded at
   admission (that is where poison is detected and the outcome class
   read), so the drain only has to ingest.  Traces carry their
   prepared canonical bytes (one encode at decode time serves the
   trace store, the replay cache key, and the federation tap); the
   replay itself happens at ingest, in [Knowledge.ingest_trace]. *)
type work =
  | Trace_work of Trace_store.prepared
  | Sampled_work of { program_digest : string; report : Softborg_trace.Sampling.t }

type queued = {
  q_slot : int;  (* which pod attachment sent it *)
  q_failing : bool;  (* failure-class uploads are never shed first *)
  q_work : work;
}

type t = {
  sim : Sim.t;
  config : config;
  programs : (string, Knowledge.t) Hashtbl.t;
  mutable endpoints : Transport.endpoint list;
  mutable next_guidance_target : int;
  (* ---- Overload protection (queue and pressure stay empty when
     [config.overload = None]) ----
     The ingest queue is kept in arrival order, oldest first; bounds are
     small (tens), so O(n) appends and eviction scans are fine. *)
  mutable queue : queued list;
  mutable queue_len : int;
  mutable busy_until : float;  (* service clock: when ingestion is free again *)
  mutable drain_armed : bool;
  mutable next_slot : int;
  occupancy : (int, int) Hashtbl.t;  (* pod slot -> queued items, fair-share *)
  quarantine_ledger : (int, int) Hashtbl.t;  (* pod slot -> malformed frames *)
  mute_until : (int, float) Hashtbl.t;
  mutable pressure_level : int;
  mutable shed_success : int;
  mutable shed_failure : int;
  mutable quarantined_frames : int;
  mutable pods_muted : int;
  mutable muted_drops : int;
  mutable pressure_updates_sent : int;
  mutable peak_queue_depth : int;
  (* ---- Batched uploads ---- *)
  mutable batch_frames_received : int;
  mutable batch_records_received : int;
  pending_human_fixes : (string, unit) Hashtbl.t;  (* bucket keys already scheduled *)
  (* Throttles: symbolic work is expensive, so gaps already issued to a
     pod are not re-planned, and proofs are only re-attempted when the
     knowledge actually changed.  The per-program issued set is a hash
     set so the planner's exclusion check is O(1) per gap. *)
  issued_guidance : (string, (Ir.site * bool, unit) Hashtbl.t) Hashtbl.t;
  proof_state : (string, int * int) Hashtbl.t;  (* tree version, epoch *)
  mutable traces_received : int;
  mutable messages_received : int;
  mutable analysis_ticks : int;
  mutable fixes_deployed : int;
  mutable fix_updates_sent : int;
  mutable fix_promotions : int;
  mutable fix_retractions : int;
  mutable guidance_sent : int;
  mutable proofs_established : int;
  mutable human_fixes_scheduled : int;
  (* Checkpoint infrastructure activity of *this* hive process; not
     part of the checkpointed state itself. *)
  mutable checkpoints_taken : int;
  mutable restores_completed : int;
  (* Federation hook: observes the canonical re-encoding of every
     upload this hive actually ingests (post admission-control), so a
     shard's superstep delta is exactly its admitted work. *)
  mutable ingest_tap : (string -> unit) option;
}

let create ?config ~sim () =
  let config = Option.value ~default:(default_config Full) config in
  {
    sim;
    config;
    programs = Hashtbl.create 4;
    endpoints = [];
    next_guidance_target = 0;
    queue = [];
    queue_len = 0;
    busy_until = neg_infinity;
    drain_armed = false;
    next_slot = 0;
    occupancy = Hashtbl.create 8;
    quarantine_ledger = Hashtbl.create 8;
    mute_until = Hashtbl.create 8;
    pressure_level = 0;
    shed_success = 0;
    shed_failure = 0;
    quarantined_frames = 0;
    pods_muted = 0;
    muted_drops = 0;
    pressure_updates_sent = 0;
    peak_queue_depth = 0;
    batch_frames_received = 0;
    batch_records_received = 0;
    pending_human_fixes = Hashtbl.create 16;
    issued_guidance = Hashtbl.create 8;
    proof_state = Hashtbl.create 8;
    traces_received = 0;
    messages_received = 0;
    analysis_ticks = 0;
    fixes_deployed = 0;
    fix_updates_sent = 0;
    fix_promotions = 0;
    fix_retractions = 0;
    guidance_sent = 0;
    proofs_established = 0;
    human_fixes_scheduled = 0;
    checkpoints_taken = 0;
    restores_completed = 0;
    ingest_tap = None;
  }

let register_program t program =
  let digest = Ir.digest program in
  match Hashtbl.find_opt t.programs digest with
  | Some k -> k
  | None ->
    let k = Knowledge.create program in
    Knowledge.set_rollout k t.config.rollout;
    Hashtbl.replace t.programs digest k;
    k

let knowledge t ~digest = Hashtbl.find_opt t.programs digest
let knowledge_list t = Hashtbl.fold (fun _ k acc -> k :: acc) t.programs []

let adopt_fixes t ~digest ~fixes ~epoch ~retracted =
  match Hashtbl.find_opt t.programs digest with
  | None -> ()
  | Some k -> Knowledge.adopt_fixes k ~fixes ~epoch ~retracted

let broadcast t message =
  let payload = Protocol.encode message in
  List.iter (fun endpoint -> Transport.send endpoint payload) t.endpoints

let pressure_level t = t.pressure_level
let queue_length t = t.queue_len

(* The one fix-state frame.  A retraction needs no frame of its own:
   it is a higher epoch whose fix set lacks the retracted fix, which
   the pods' monotonic epoch guard applies like any other update. *)
let fix_update t k =
  Protocol.Fix_update
    {
      program_digest = Knowledge.digest k;
      epoch = Knowledge.epoch k;
      fixes = List.filter Fixgen.is_deployable (Knowledge.live_fixes k);
      canary = Knowledge.canary_ids k;
      canary_mils = Knowledge.canary_mils k;
      pressure = t.pressure_level;
    }

let send_fix_update t k =
  broadcast t (fix_update t k);
  t.fix_updates_sent <- t.fix_updates_sent + 1

(* An externally-decided fix lands exactly as a synthesized one would:
   minted into the knowledge (canary-staged under a staging rollout)
   and pushed downstream.  The chaos harness injects sabotaged fixes
   through this to prove the rollout machinery retracts them. *)
let inject_fix t ~digest kind =
  match Hashtbl.find_opt t.programs digest with
  | None -> ()
  | Some k ->
    ignore (Knowledge.add_fix k kind);
    t.fixes_deployed <- t.fixes_deployed + 1;
    send_fix_update t k

(* ---- Ingestion -------------------------------------------------------- *)

(* The tap sees the *canonical* encoding of the decoded work, not the
   pod's original frame: two shards ingesting equal content report
   byte-equal payloads no matter how the pods chose to frame them
   (single frames, batches, deltas).  For traces the canonical bytes
   were already produced once at decode time ([Trace_store.prepare]) —
   the tap reuses them instead of re-encoding per shard. *)
let canonical_payload = function
  | Trace_work prep -> Protocol.encode (Protocol.Trace_upload prep.Trace_store.p_encoded)
  | Sampled_work { program_digest; report } ->
    Protocol.encode (Protocol.Sampled_report { program_digest; report })

let process_work t work =
  t.traces_received <- t.traces_received + 1;
  (match t.ingest_tap with None -> () | Some tap -> tap (canonical_payload work));
  match work with
  | Trace_work prep -> (
    let trace = prep.Trace_store.p_trace in
    match Hashtbl.find_opt t.programs trace.Trace.program_digest with
    | None -> ()
    | Some k -> (
      match t.config.mode with
      | Full -> ignore (Knowledge.ingest_trace ~prepared:prep k trace)
      | Wer | Cbi -> Knowledge.ingest_outcome_only k trace))
  | Sampled_work { program_digest; report } -> (
    match Hashtbl.find_opt t.programs program_digest with
    | None -> ()
    | Some k -> Knowledge.ingest_sampled k report)

(* ---- Batched-frame decode ---------------------------------------------- *)

exception Bad_batch

(* Decode a whole batch to admission-ready work items, or reject it as
   one poison frame (any malformed record or blown total budget damns
   the whole batch — parse-then-commit, nothing partial is ingested).

   The leading record anchors the batch and must be full (a delta tag
   with no basis is malformed inside [decode_one]); every later record
   decodes against it.  Records are decoded and canonicalized in
   order; replay waits for ingest.  Trace ids are minted once the whole
   batch has decoded, in record order, so a poison batch mints none. *)
let decode_batch t ~caps ~program_digest records =
  match
    (* Total-budget pre-pass over declared sizes: a batch of records
       that each clear the per-frame bit cap must also jointly clear
       the batch budget, so splitting an attack across records cannot
       smuggle volume past quarantine accounting. *)
    ignore
      (List.fold_left
         (fun acc s ->
           match Wire.declared_bits s with
           | Error _ -> raise Bad_batch
           | Ok n ->
             if n < 0 || n > caps.Wire.max_batch_total_bits - acc then raise Bad_batch
             else acc + n)
         0 records);
    let decode_one ?basis s =
      match Wire.decode_record ~caps ?basis ~program_digest s with
      | Error _ -> raise Bad_batch
      | Ok trace -> Trace_store.prepare trace
    in
    let decoded =
      match records with
      | [] -> []
      | first :: rest ->
        let anchor = decode_one first in
        anchor :: List.map (fun s -> decode_one ~basis:anchor.Trace_store.p_trace s) rest
    in
    (* Counted only once the whole batch decoded: a quarantined batch
       is not a decoded frame. *)
    t.batch_frames_received <- t.batch_frames_received + 1;
    t.batch_records_received <- t.batch_records_received + List.length decoded;
    List.map
      (fun prep ->
        let trace =
          { prep.Trace_store.p_trace with Trace.trace_id = Ids.Trace_id.fresh () }
        in
        (Outcome.is_failure trace.Trace.outcome, Trace_work (Trace_store.with_trace prep trace)))
      decoded
  with
  | works -> Ok works
  | exception Bad_batch -> Error ()

(* ---- Overload protection ---------------------------------------------- *)

(* Load level 0–3 from queue occupancy quartiles; broadcast to pods only
   on change, so an unloaded hive (level pinned at 0) sends nothing. *)
let refresh_pressure t (oc : overload_config) =
  let level =
    if t.queue_len = 0 then 0 else min 3 (4 * t.queue_len / max 1 oc.queue_bound)
  in
  if level <> t.pressure_level then begin
    t.pressure_level <- level;
    t.pressure_updates_sent <- t.pressure_updates_sent + 1;
    Log.debug (fun m -> m "pressure -> %d (queue %d/%d)" level t.queue_len oc.queue_bound);
    broadcast t (Protocol.Pressure_update { level })
  end

let quarantine t (oc : overload_config) slot =
  t.quarantined_frames <- t.quarantined_frames + 1;
  let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.quarantine_ledger slot) in
  if count >= oc.quarantine_threshold then begin
    Hashtbl.replace t.quarantine_ledger slot 0;
    Hashtbl.replace t.mute_until slot (Sim.now t.sim +. oc.mute_cooldown);
    t.pods_muted <- t.pods_muted + 1;
    Log.warn (fun m ->
        m "pod slot %d muted until t=%.0f after %d poison frames" slot
          (Sim.now t.sim +. oc.mute_cooldown) count)
  end
  else Hashtbl.replace t.quarantine_ledger slot count

let occupancy_of t slot = Option.value ~default:0 (Hashtbl.find_opt t.occupancy slot)

let bump_occupancy t slot delta =
  Hashtbl.replace t.occupancy slot (max 0 (occupancy_of t slot + delta))

let count_shed t item =
  if item.q_failing then t.shed_failure <- t.shed_failure + 1
  else t.shed_success <- t.shed_success + 1

(* Pick the success-class victim for [Prefer_failures]: an item from the
   pod hogging the most queue slots (fair share), oldest first, lowest
   slot on ties.  Returns its position, or [None] if the whole queue is
   failure-class. *)
let success_victim t =
  let best = ref None in
  List.iteri
    (fun i item ->
      if not item.q_failing then begin
        let occ = occupancy_of t item.q_slot in
        match !best with
        | None -> best := Some (occ, item.q_slot, i)
        | Some (bocc, bslot, _) ->
          if occ > bocc || (occ = bocc && item.q_slot < bslot) then
            best := Some (occ, item.q_slot, i)
      end)
    t.queue;
  Option.map (fun (_, _, i) -> i) !best

let remove_at t idx =
  let victim = ref None in
  t.queue <-
    List.filteri
      (fun i item ->
        if i = idx then begin
          victim := Some item;
          false
        end
        else true)
      t.queue;
  t.queue_len <- t.queue_len - 1;
  match !victim with
  | Some item ->
    bump_occupancy t item.q_slot (-1);
    item
  | None -> assert false

let push_back t item =
  t.queue <- t.queue @ [ item ];
  t.queue_len <- t.queue_len + 1;
  bump_occupancy t item.q_slot 1;
  if t.queue_len > t.peak_queue_depth then t.peak_queue_depth <- t.queue_len

(* Bounded enqueue: at capacity, shed per policy.  [Prefer_failures]
   never sheds a failure-class upload while a success-class one is
   queued — failures carry the debugging signal (paper §3). *)
let enqueue_or_shed t (oc : overload_config) item =
  if t.queue_len < oc.queue_bound then push_back t item
  else begin
    match oc.shed_policy with
    | Drop_newest -> count_shed t item
    | Drop_oldest ->
      count_shed t (remove_at t 0);
      push_back t item
    | Prefer_failures -> (
      match success_victim t with
      | Some idx ->
        count_shed t (remove_at t idx);
        push_back t item
      | None ->
        (* Queue is all failures; an incoming failure is the newest of
           equals, an incoming success loses to any failure. *)
        count_shed t item)
  end

let rec drain t (oc : overload_config) () =
  match t.queue with
  | [] -> t.drain_armed <- false
  | item :: rest ->
    t.queue <- rest;
    t.queue_len <- t.queue_len - 1;
    bump_occupancy t item.q_slot (-1);
    process_work t item.q_work;
    t.busy_until <- Sim.now t.sim +. oc.service_interval;
    if t.queue_len > 0 then Sim.schedule t.sim ~delay:oc.service_interval (drain t oc)
    else t.drain_armed <- false;
    refresh_pressure t oc

let offer t (oc : overload_config) item =
  let now = Sim.now t.sim in
  if t.queue_len = 0 && now >= t.busy_until then begin
    (* Uncontended: process synchronously in the receive callback — no
       extra events, no reordering.  With no service time this is the
       only branch ever taken. *)
    process_work t item.q_work;
    t.busy_until <- now +. oc.service_interval
  end
  else begin
    enqueue_or_shed t oc item;
    if (not t.drain_armed) && t.queue_len > 0 then begin
      t.drain_armed <- true;
      Sim.schedule t.sim ~delay:(Float.max 0.0 (t.busy_until -. now)) (drain t oc)
    end;
    refresh_pressure t oc
  end

let muted t slot = Sim.now t.sim < Option.value ~default:neg_infinity (Hashtbl.find_opt t.mute_until slot)

(* A single-upload frame decoded to its one work item, or [None] for
   every other frame and for a trace that does not decode. *)
let decode_single (oc : overload_config) slot = function
  | Protocol.Trace_upload inner -> (
    match Wire.decode ~caps:oc.caps inner with
    | Error _ -> None
    | Ok trace ->
      Some
        {
          q_slot = slot;
          q_failing = Outcome.is_failure trace.Trace.outcome;
          q_work = Trace_work (Trace_store.prepare trace);
        })
  | Protocol.Sampled_report { program_digest; report } ->
    Some
      {
        q_slot = slot;
        q_failing = Outcome.is_failure report.Softborg_trace.Sampling.outcome;
        q_work = Sampled_work { program_digest; report };
      }
  | _ -> None

(* The hive's one receive path: resource-capped total decode, poison
   quarantine, mute enforcement, then bounded enqueue. *)
let admit t (oc : overload_config) slot payload =
  t.messages_received <- t.messages_received + 1;
  if muted t slot then t.muted_drops <- t.muted_drops + 1
  else
    match Protocol.decode ~caps:oc.caps payload with
    | Error _ -> quarantine t oc slot
    | Ok
        ( Protocol.Fix_update _ | Protocol.Guidance_update _ | Protocol.Pressure_update _
        | Protocol.Knowledge_delta _ ) ->
      (* Downstream-only and federation-plane messages; ignore if echoed
         back.  A shard hive never ingests a Knowledge_delta directly —
         the federation coordinator unpacks deltas itself so commit
         order stays canonical. *)
      ()
    | Ok (Protocol.Trace_upload _ as message) -> (
      match decode_single oc slot message with
      | None -> quarantine t oc slot
      | Some item -> offer t oc item)
    | Ok (Protocol.Batch_upload { program_digest; records }) -> (
      (* [Protocol.decode ~caps] already bounded the record count and
         frame size; the batch decode enforces the total bit budget and
         per-record caps.  One bad record poisons the whole batch. *)
      match decode_batch t ~caps:oc.caps ~program_digest records with
      | Error () -> quarantine t oc slot
      | Ok works ->
        List.iter
          (fun (failing, work) ->
            offer t oc { q_slot = slot; q_failing = failing; q_work = work })
          works)
    | Ok (Protocol.Sampled_report _ as message) ->
      Option.iter (offer t oc) (decode_single oc slot message)

(* Without overload protection a hive still admits through [admit],
   with the default caps and quarantine but no service time: nothing
   ever queues, sheds or raises pressure, so every upload is ingested
   synchronously in its receive callback. *)
let idle_overload_config = { default_overload_config with service_interval = 0.0 }

let admission t = Option.value ~default:idle_overload_config t.config.overload

let attach_pod t endpoint =
  t.endpoints <- endpoint :: t.endpoints;
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  Transport.on_receive endpoint (admit t (admission t) slot)

(* Transport-less injection for load harnesses: one encoded frame
   enters exactly the receive path an attached pod's frame would.
   [slot] plays the role of the pod attachment slot for fair-share
   shedding and quarantine accounting. *)
let inject t ~slot payload = admit t (admission t) slot payload

(* Federation entry points: the merge coordinator commits a shard's
   delta payloads synchronously, whatever this hive's overload config,
   under a slot no pod attachment uses; a shard exposes its admitted
   work via the tap.  [copies] equal payloads are decoded and prepared
   once, then admitted one by one exactly as [copies] receptions
   would be (counters, mute check, tap and ingest per copy).  A frame
   that is not one decodable upload takes the plain path per copy. *)
let ingest_payload ?(copies = 1) t payload =
  let oc = idle_overload_config and slot = -1 in
  let single =
    match Protocol.decode ~caps:oc.caps payload with
    | Ok message -> decode_single oc slot message
    | Error _ -> None
  in
  for _ = 1 to copies do
    match single with
    | None -> admit t oc slot payload
    | Some item ->
      t.messages_received <- t.messages_received + 1;
      if muted t slot then t.muted_drops <- t.muted_drops + 1 else offer t oc item
  done

let set_ingest_tap t tap = t.ingest_tap <- Some tap

(* ---- Human repair lab (Wer/Cbi modes) --------------------------------- *)

(* Statistical localization shortens CBI's debugging: its human delay
   is [human_fix_delay] divided by this. *)
let cbi_localization_speedup = 3.0

let human_delay t =
  match t.config.mode with
  | Cbi -> t.config.human_fix_delay /. cbi_localization_speedup
  | Wer | Full -> t.config.human_fix_delay

let schedule_human_fix t k bucket_key kind =
  if not (Hashtbl.mem t.pending_human_fixes bucket_key) then begin
    Hashtbl.replace t.pending_human_fixes bucket_key ();
    t.human_fixes_scheduled <- t.human_fixes_scheduled + 1;
    Log.info (fun m ->
        m "human fix for %s scheduled at t=%.0f (+%.0f)" bucket_key (Sim.now t.sim)
          (human_delay t));
    (* The closure re-fetches the knowledge by digest at fire time: a
       checkpoint restore replaces the knowledge object, and the fix
       must land on whichever one is current. *)
    let digest = Knowledge.digest k in
    Sim.schedule t.sim ~delay:(human_delay t) (fun () ->
        match Hashtbl.find_opt t.programs digest with
        | None -> ()
        | Some k ->
          ignore (Knowledge.add_fix k kind);
          t.fixes_deployed <- t.fixes_deployed + 1;
          send_fix_update t k)
  end

let human_tick t k =
  (* Crashes: once a bucket has enough reports, a developer fixes it
     (deployed as a suppression patch after the delay). *)
  List.iter
    (fun (ev : Fixgen.crash_evidence) ->
      if ev.Fixgen.count >= t.config.human_fix_threshold then
        schedule_human_fix t k ev.Fixgen.bucket
          (Fixgen.Crash_suppression
             { bucket = ev.Fixgen.bucket; site = ev.Fixgen.site; crash_kind = ev.Fixgen.crash_kind }))
    (Knowledge.crash_evidence k);
  (* Deadlocks: the human adds a lock-ordering fix for the cycle. *)
  List.iter
    (fun (bucket_key, locks, count) ->
      if count >= t.config.human_fix_threshold then
        schedule_human_fix t k bucket_key (Fixgen.Deadlock_immunity locks))
    (Knowledge.deadlock_bucket_info k)

(* ---- Proof attempts ---------------------------------------------------- *)

let has_valid_proof k property =
  List.exists
    (fun (p : Prover.proof) -> p.Prover.valid && p.Prover.property = property)
    (Knowledge.proofs k)

(* The tree version counts every knowledge-changing mutation (new
   distinct path, gap proven infeasible), so "did anything change since
   the last tick?" is two integer compares — no tree walk, no frontier
   materialization. *)
let knowledge_state k = (Exec_tree.version (Knowledge.tree k), Knowledge.epoch k)

let prove_tick t k =
  let program = Knowledge.program k in
  ignore
    (Prover.close_gaps ~config:t.config.symexec_config ~cache:(Knowledge.verdict_cache k)
       ~memo:(Knowledge.gap_memo k) program (Knowledge.tree k));
  if not (has_valid_proof k Prover.Assert_safety) then begin
    match
      Prover.attempt_assert_safety ~config:t.config.symexec_config
        ~cache:(Knowledge.verdict_cache k) ~program ~tree:(Knowledge.tree k)
        ~crash_observations:
          (List.fold_left (fun acc (e : Fixgen.crash_evidence) -> acc + e.Fixgen.count) 0
             (Knowledge.crash_evidence k))
        ~epoch:(Knowledge.epoch k) ()
    with
    | Some proof ->
      Knowledge.record_proof k proof;
      t.proofs_established <- t.proofs_established + 1
    | None -> ()
  end;
  if not (has_valid_proof k Prover.Deadlock_freedom) then begin
    let deadlock_observations =
      List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Knowledge.deadlock_bucket_info k)
    in
    let make_env () = Env.make ~seed:7 ~inputs:(Array.make program.Ir.n_inputs 1) () in
    match
      Prover.attempt_deadlock_freedom ~program ~tree:(Knowledge.tree k)
        ~deadlock_observations ~lock_cycles:(Knowledge.deadlock_pattern_sets k) ~make_env
        ~hooks:(Knowledge.current_hooks k) ~epoch:(Knowledge.epoch k) ()
    with
    | Some proof ->
      Knowledge.record_proof k proof;
      t.proofs_established <- t.proofs_established + 1
    | None -> ()
  end

(* ---- Guidance ----------------------------------------------------------- *)

let issued_for t k =
  let digest = Knowledge.digest k in
  match Hashtbl.find_opt t.issued_guidance digest with
  | Some issued -> issued
  | None ->
    let issued = Hashtbl.create 16 in
    Hashtbl.replace t.issued_guidance digest issued;
    issued

let guidance_tick t k =
  if t.endpoints <> [] then begin
    let issued = issued_for t k in
    let result =
      Guidance.plan ~config:t.config.symexec_config ~cache:(Knowledge.verdict_cache k)
        ~max_directives:t.config.guidance_max ~exclude:issued ~memo:(Knowledge.gap_memo k)
        (Knowledge.program k) (Knowledge.tree k)
    in
    (* Remember what was handed out (and what came back Unknown) so the
       next tick does not redo the symbolic work. *)
    List.iter
      (fun directive ->
        match directive with
        | Guidance.Cover_direction { site; direction; _ } ->
          Hashtbl.replace issued (site, direction) ()
        | Guidance.Probe_schedules _ -> ())
      result.Guidance.directives;
    if result.Guidance.gaps_unknown > 0 then
      Exec_tree.iter_open_dirs (Knowledge.tree k) (fun site missing ->
          Hashtbl.replace issued (site, missing) ());
    if result.Guidance.directives <> [] then begin
      (* Round-robin over pods: steering only needs *some* instances. *)
      let target =
        List.nth t.endpoints (t.next_guidance_target mod List.length t.endpoints)
      in
      t.next_guidance_target <- t.next_guidance_target + 1;
      Transport.send target
        (Protocol.encode
           (Protocol.Guidance_update
              {
                program_digest = Knowledge.digest k;
                directives = result.Guidance.directives;
                pressure = t.pressure_level;
              }));
      t.guidance_sent <- t.guidance_sent + List.length result.Guidance.directives
    end
  end

(* ---- The analysis tick --------------------------------------------------- *)

let tick t =
  t.analysis_ticks <- t.analysis_ticks + 1;
  (* Periodically forget the issued-guidance memory: directives can be
     lost with their pod, and a stale exclusion must not shadow a gap
     forever. *)
  if t.analysis_ticks mod 10 = 0 then Hashtbl.reset t.issued_guidance;
  Hashtbl.iter
    (fun digest k ->
      match t.config.mode with
      | Full ->
        (* Federation shards run with [synthesize = false]: proposing
           fixes from a shard's partial evidence would mint ids and
           epochs that diverge from the coordinator's, and only the
           merged knowledge sees whole-program evidence. *)
        if t.config.synthesize then begin
          (* Run the canary health court before proposing new fixes, so
             a fix synthesized this tick starts its canary hold at the
             next tick, never judged on zero evidence. *)
          let promoted, condemned = Knowledge.lifecycle_tick k in
          if condemned <> [] then begin
            t.fix_retractions <- t.fix_retractions + List.length condemned;
            List.iter
              (fun (fix_id, reason) ->
                Log.warn (fun m ->
                    m "retracting fix %d for %s: %s" fix_id (Knowledge.digest k) reason))
              condemned
          end;
          if promoted <> [] then t.fix_promotions <- t.fix_promotions + List.length promoted;
          (* One downstream push per verdict batch: the lifecycle tick
             bumped the epoch once, and the frame carries the surviving
             fix set with every promotion and retraction applied. *)
          if promoted <> [] || condemned <> [] then send_fix_update t k;
          let new_fixes = Knowledge.analyze ~symexec_config:t.config.symexec_config k in
          let deployable = List.filter Fixgen.is_deployable new_fixes in
          if deployable <> [] then begin
            t.fixes_deployed <- t.fixes_deployed + List.length deployable;
            send_fix_update t k
          end
        end;
        (* Guidance and proofs involve symbolic exploration: only
           re-run them when this program's knowledge changed. *)
        let state = knowledge_state k in
        let changed =
          match Hashtbl.find_opt t.proof_state digest with
          | Some previous -> previous <> state
          | None -> true
        in
        if changed then begin
          guidance_tick t k;
          if t.config.prove then prove_tick t k;
          Hashtbl.replace t.proof_state digest (knowledge_state k)
        end
      | Wer | Cbi -> human_tick t k)
    t.programs

let rec arm t =
  Sim.schedule t.sim ~delay:t.config.analysis_interval (fun () ->
      tick t;
      arm t)

let start t = arm t

let shutdown (_ : t) = ()

let stats t =
  {
    traces_received = t.traces_received;
    messages_received = t.messages_received;
    analysis_ticks = t.analysis_ticks;
    fixes_deployed = t.fixes_deployed;
    fix_updates_sent = t.fix_updates_sent;
    guidance_sent = t.guidance_sent;
    proofs_established = t.proofs_established;
    human_fixes_scheduled = t.human_fixes_scheduled;
    checkpoints_taken = t.checkpoints_taken;
    restores_completed = t.restores_completed;
    shed_success = t.shed_success;
    shed_failure = t.shed_failure;
    quarantined_frames = t.quarantined_frames;
    pods_muted = t.pods_muted;
    muted_drops = t.muted_drops;
    pressure_updates_sent = t.pressure_updates_sent;
    peak_queue_depth = t.peak_queue_depth;
    batch_frames_received = t.batch_frames_received;
    batch_records_received = t.batch_records_received;
    fix_promotions = t.fix_promotions;
    fix_retractions = t.fix_retractions;
    quarantined_fix_traces =
      Hashtbl.fold (fun _ k acc -> acc + Knowledge.quarantined_traces k) t.programs 0;
  }

(* ---- Checkpoint / restore ---------------------------------------------- *)

module Codec = Softborg_util.Codec
module Ir_codec = Softborg_prog.Ir_codec

let checkpoint_magic = "SBHV"

(* v3: every program's gap verdicts follow the knowledge frame. *)
let checkpoint_version = 3

let write_symexec_config w (c : Sym_exec.config) =
  Codec.Writer.varint w c.Sym_exec.max_paths;
  Codec.Writer.varint w c.Sym_exec.max_steps_per_path;
  Codec.Writer.varint w c.Sym_exec.solver_budget;
  Codec.Writer.zigzag w (fst c.Sym_exec.domain);
  Codec.Writer.zigzag w (snd c.Sym_exec.domain);
  Codec.Writer.bool w c.Sym_exec.solve_models

let read_symexec_config r =
  let max_paths = Codec.Reader.varint r in
  let max_steps_per_path = Codec.Reader.varint r in
  let solver_budget = Codec.Reader.varint r in
  let lo = Codec.Reader.zigzag r in
  let hi = Codec.Reader.zigzag r in
  let solve_models = Codec.Reader.bool r in
  { Sym_exec.max_paths; max_steps_per_path; solver_budget; domain = (lo, hi); solve_models }

let checkpoint t =
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.byte w (Char.code c)) checkpoint_magic;
  Codec.Writer.varint w checkpoint_version;
  Codec.Writer.varint w t.next_guidance_target;
  Codec.Writer.varint w t.traces_received;
  Codec.Writer.varint w t.messages_received;
  Codec.Writer.varint w t.analysis_ticks;
  Codec.Writer.varint w t.fixes_deployed;
  Codec.Writer.varint w t.fix_updates_sent;
  Codec.Writer.varint w t.guidance_sent;
  Codec.Writer.varint w t.proofs_established;
  Codec.Writer.varint w t.human_fixes_scheduled;
  (* Throttle state travels with the knowledge: without it a restored
     hive would re-schedule human fixes and redo issued guidance.
     Hashtable-backed tables are written sorted by key so equal hive
     states checkpoint to equal bytes. *)
  Codec.Writer.list w (Codec.Writer.bytes w)
    (Hashtbl.fold (fun key () acc -> key :: acc) t.pending_human_fixes []
    |> List.sort String.compare);
  Codec.Writer.list w
    (fun (digest, issued) ->
      Codec.Writer.bytes w digest;
      Codec.Writer.list w (Ir_codec.write_dir w)
        (* The set has no inherent order; write it sorted so equal
           states checkpoint to equal bytes. *)
        (Hashtbl.fold (fun key () acc -> key :: acc) issued []
        |> List.sort (fun (s1, d1) (s2, d2) ->
               match Ir.site_compare s1 s2 with 0 -> Bool.compare d1 d2 | c -> c)))
    (Hashtbl.fold (fun digest issued acc -> (digest, issued) :: acc) t.issued_guidance []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b));
  Codec.Writer.list w
    (fun (digest, (tree_version, epoch)) ->
      Codec.Writer.bytes w digest;
      Codec.Writer.varint w tree_version;
      Codec.Writer.varint w epoch)
    (Hashtbl.fold (fun digest state acc -> (digest, state) :: acc) t.proof_state []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b));
  let knowledge =
    List.sort
      (fun a b -> String.compare (Knowledge.digest a) (Knowledge.digest b))
      (knowledge_list t)
  in
  Codec.Writer.bytes w (Checkpoint.encode knowledge);
  (* Gap verdicts sit outside the knowledge frame: they are derived
     from the program alone and no knowledge byte depends on them, but
     a restored hive that keeps them does not solve them again. *)
  write_symexec_config w t.config.symexec_config;
  Codec.Writer.list w
    (fun k ->
      Codec.Writer.bytes w (Knowledge.digest k);
      Gap_memo.write w (Knowledge.gap_memo k))
    knowledge;
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  Codec.Writer.contents w

let restore t data =
  let r = Codec.Reader.of_string data in
  match
    let seen =
      String.init (String.length checkpoint_magic) (fun _ -> Char.chr (Codec.Reader.byte r))
    in
    if seen <> checkpoint_magic then Error (Printf.sprintf "bad hive checkpoint magic %S" seen)
    else
      let version = Codec.Reader.varint r in
      if version <> checkpoint_version then
        Error (Printf.sprintf "unsupported hive checkpoint version %d" version)
      else begin
        let next_guidance_target = Codec.Reader.varint r in
        let traces_received = Codec.Reader.varint r in
        let messages_received = Codec.Reader.varint r in
        let analysis_ticks = Codec.Reader.varint r in
        let fixes_deployed = Codec.Reader.varint r in
        let fix_updates_sent = Codec.Reader.varint r in
        let guidance_sent = Codec.Reader.varint r in
        let proofs_established = Codec.Reader.varint r in
        let human_fixes_scheduled = Codec.Reader.varint r in
        let pending = Codec.Reader.list r Codec.Reader.bytes in
        let issued =
          Codec.Reader.list r (fun r ->
              let digest = Codec.Reader.bytes r in
              let directives = Codec.Reader.list r Ir_codec.read_dir in
              (digest, directives))
        in
        let proof_states =
          Codec.Reader.list r (fun r ->
              let digest = Codec.Reader.bytes r in
              let tree_version = Codec.Reader.varint r in
              let epoch = Codec.Reader.varint r in
              (digest, (tree_version, epoch)))
        in
        match Checkpoint.decode (Codec.Reader.bytes r) with
        | Error msg -> Error msg
        | Ok restored ->
          (* A verdict answers one question at one budget: verdicts
             stamped with another symexec config are parsed, then
             dropped.  Seeding the restored knowledge's memos mutates
             only objects the hive does not hold yet. *)
          let warm = read_symexec_config r = t.config.symexec_config in
          ignore
            (Codec.Reader.list r (fun r ->
                 let digest = Codec.Reader.bytes r in
                 match List.find_opt (fun k -> Knowledge.digest k = digest) restored with
                 | None ->
                   raise (Codec.Malformed "gap verdicts for a program not in the checkpoint")
                 | Some k ->
                   Gap_memo.read r (if warm then Knowledge.gap_memo k else Gap_memo.create ())));
          Codec.Reader.expect_end r;
          (* Parse fully before mutating: a malformed checkpoint leaves
             the hive untouched. *)
          t.next_guidance_target <- next_guidance_target;
          t.traces_received <- traces_received;
          t.messages_received <- messages_received;
          t.analysis_ticks <- analysis_ticks;
          t.fixes_deployed <- fixes_deployed;
          t.fix_updates_sent <- fix_updates_sent;
          t.guidance_sent <- guidance_sent;
          t.proofs_established <- proofs_established;
          t.human_fixes_scheduled <- human_fixes_scheduled;
          Hashtbl.reset t.pending_human_fixes;
          List.iter (fun key -> Hashtbl.replace t.pending_human_fixes key ()) pending;
          Hashtbl.reset t.issued_guidance;
          List.iter
            (fun (digest, directives) ->
              let set = Hashtbl.create 16 in
              List.iter (fun key -> Hashtbl.replace set key ()) directives;
              Hashtbl.replace t.issued_guidance digest set)
            issued;
          Hashtbl.reset t.proof_state;
          List.iter (fun (digest, state) -> Hashtbl.replace t.proof_state digest state) proof_states;
          (* Hashtbl.replace on an existing key keeps its position in
             iteration order, so the analysis tick visits programs in
             the same order before and after a restore.  The rollout
             config is a runtime attachment (not checkpointed) — the
             restored knowledge re-inherits this hive's. *)
          List.iter
            (fun k ->
              Knowledge.set_rollout k t.config.rollout;
              Hashtbl.replace t.programs (Knowledge.digest k) k)
            restored;
          t.restores_completed <- t.restores_completed + 1;
          Ok (List.length restored)
      end
  with
  | result -> result
  | exception Codec.Truncated -> Error "truncated hive checkpoint"
  | exception Codec.Malformed msg -> Error (Printf.sprintf "malformed hive checkpoint: %s" msg)
