module Rng = Softborg_util.Rng
module Ir = Softborg_prog.Ir
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Vm = Softborg_exec.Vm
module Outcome = Softborg_exec.Outcome
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Sampling = Softborg_trace.Sampling
module Anonymize = Softborg_trace.Anonymize
module Sim = Softborg_net.Sim
module Transport = Softborg_net.Transport
module Fixgen = Softborg_hive.Fixgen
module Fix_lifecycle = Softborg_hive.Fix_lifecycle
module Guidance = Softborg_hive.Guidance
module Protocol = Softborg_hive.Protocol
module Path_cond = Softborg_solver.Path_cond

type upload_mode =
  | Full_traces
  | Sampled_reports of int
  | Outcomes_only

type config = {
  arrival_rate : float;
  workload : Workload.profile;
  fault_probability : float;
  max_steps : int;
  anonymize : Anonymize.level;
  upload : upload_mode;
  upload_batch : int;
  delta_encode : bool;
}

(* Steps beyond which users get frustrated. *)
let slow_threshold = 15_000

(* Sampled-report rate for success traces thinned under hive pressure;
   the effective rate is [base × 2^level]. *)
let backpressure_base_rate = 64

(* Base seconds of jittered deferral for success-class uploads under
   pressure; doubles per level.  Jitter draws come from a pod-local
   stream, so level-0 runs are byte-identical to builds without
   backpressure. *)
let backpressure_defer = 0.5

(* Max seconds a partially-filled batch waits before flushing: a batch
   only amortizes its header if it fills, so it gets a few
   inter-arrival times. *)
let batch_linger = 5.0

let default_config =
  {
    arrival_rate = 1.0;
    workload = Workload.default;
    fault_probability = 0.02;
    max_steps = 20_000;
    anonymize = Anonymize.Full;
    upload = Full_traces;
    (* Batching and delta encoding are off by default: one
       [Trace_upload] frame is the smallest framing for one trace. *)
    upload_batch = 1;
    delta_encode = false;
  }

type metrics = {
  sessions : int;
  guided_runs : int;
  user_failures : int;
  guided_failures : int;
  averted_crashes : int;
  deferred_acquisitions : int;
  guard_flags : int;
  traces_uploaded : int;
  fix_epoch : int;
  signals : (Feedback.signal * int) list;
  pressure : int;
  thinned_uploads : int;
  deferred_uploads : int;
  dead_letters : int;
  batches_sent : int;
  delta_records : int;
  canary_exposed : bool;
}

type t = {
  config : config;
  sim : Sim.t;
  rng : Rng.t;
  program : Ir.t;
  digest : string;
  endpoint : Transport.endpoint;
  (* Replayable identity: the platform passes the pod's fleet index as
     [cohort] (canary membership) and the pod id is [cohort + 1], so
     the same run config yields the same ids and cohorts however many
     pods the process minted before. *)
  pod_id : int;
  cohort : int;
  mutable fixes : Fixgen.fix list;
  mutable fix_epoch : int;
  mutable canary : int list;  (* fix ids gated by cohort membership *)
  mutable canary_mils : int;
  mutable canary_exposed : bool;  (* ever ran with a canary fix active *)
  mutable pending_guidance : Guidance.directive list;
  mutable sessions : int;
  mutable guided_runs : int;
  mutable user_failures : int;
  mutable guided_failures : int;
  mutable averted_crashes : int;
  mutable deferred_acquisitions : int;
  mutable guard_flags : int;
  mutable traces_uploaded : int;
  mutable signal_counts : (Feedback.signal * int) list;
  mutable active : bool;  (* false once the chaos harness stops the pod *)
  (* ---- Backpressure response ----
     [pressure_rng] is seeded from the pod id, never from the main
     stream: at pressure level 0 no draw happens at all, and above it
     the jitter draws cannot perturb session randomness. *)
  pressure_rng : Rng.t;
  mutable pressure : int;  (* hive load level, 0–3 *)
  mutable success_streak : int;  (* successes since the last kept-full one *)
  mutable thinned_uploads : int;
  mutable deferred_uploads : int;
  mutable dead_letters : int;
  (* ---- Batched / delta uploads ----
     [batch] accumulates scrubbed success-class traces newest-first;
     it flushes when full, when a failure joins it (failures are
     immediate), or when the linger timer fires.  [basis] is the last
     hive-announced prefix basis for this program. *)
  mutable batch : Trace.t list;
  mutable batch_armed : bool;  (* linger timer pending *)
  mutable basis : (int * int * Trace.t) option;  (* id, fingerprint, trace *)
  mutable batches_sent : int;
  mutable delta_records : int;
}

let bump_signal t signal =
  let rec loop = function
    | [] -> [ (signal, 1) ]
    | (s, n) :: rest when s = signal -> (s, n + 1) :: rest
    | pair :: rest -> pair :: loop rest
  in
  t.signal_counts <- loop t.signal_counts

(* Hive load is global, so pressure piggybacked on a message for some
   other program still applies; clamp to the protocol's 0–3 range so a
   byzantine hive cannot push the shift counts out of range. *)
let set_pressure t level = t.pressure <- max 0 (min 3 level)

let handle_message t payload =
  match Protocol.decode payload with
  | Error _ -> ()
  | Ok (Protocol.Fix_update { program_digest; epoch; fixes; canary; canary_mils; pressure })
    ->
    set_pressure t pressure;
    (* The monotonic fix-epoch guard: a duplicated, reordered, or
       replayed frame carrying an older epoch can never regress the
       pod's fix state — in particular a stale update can never
       resurrect a fix that a later, higher-epoch update retracted. *)
    if String.equal program_digest t.digest && epoch > t.fix_epoch then begin
      t.fixes <- fixes;
      t.fix_epoch <- epoch;
      t.canary <- canary;
      t.canary_mils <- canary_mils
    end
  | Ok (Protocol.Guidance_update { program_digest; directives; pressure }) ->
    set_pressure t pressure;
    if String.equal program_digest t.digest then
      t.pending_guidance <- t.pending_guidance @ directives
  | Ok (Protocol.Pressure_update { level }) -> set_pressure t level
  | Ok (Protocol.Basis_update { program_digest; basis_id; payload }) ->
    (* A prefix basis to delta future uploads against.  Decoded from
       the announced payload bytes — the hive keeps the same decoded
       trace on its side, so the XOR anchors agree exactly. *)
    if String.equal program_digest t.digest then begin
      match Wire.decode payload with
      | Error _ -> ()
      | Ok basis ->
        t.basis <- Some (basis_id, Protocol.basis_fingerprint payload, basis)
    end
  | Ok
      ( Protocol.Trace_upload _ | Protocol.Sampled_report _ | Protocol.Knowledge_delta _
      | Protocol.Batch_upload _ ) ->
    (* Upstream-only and federation-plane messages. *)
    ()

let create ?(config = default_config) ~cohort ~sim ~rng ~program ~endpoint () =
  let pod_id = cohort + 1 in
  let t =
    {
      config;
      sim;
      rng;
      program;
      digest = Ir.digest program;
      endpoint;
      pod_id;
      cohort;
      fixes = [];
      fix_epoch = 0;
      canary = [];
      canary_mils = 0;
      canary_exposed = false;
      pending_guidance = [];
      sessions = 0;
      guided_runs = 0;
      user_failures = 0;
      guided_failures = 0;
      averted_crashes = 0;
      deferred_acquisitions = 0;
      guard_flags = 0;
      traces_uploaded = 0;
      signal_counts = [];
      active = true;
      pressure_rng = Rng.create (0x9E3779B9 lxor pod_id);
      pressure = 0;
      success_streak = 0;
      thinned_uploads = 0;
      deferred_uploads = 0;
      dead_letters = 0;
      batch = [];
      batch_armed = false;
      basis = None;
      batches_sent = 0;
      delta_records = 0;
    }
  in
  Transport.on_receive endpoint (handle_message t);
  (* Dead-letter accounting: an upload the transport abandoned after its
     retry budget.  A batched frame loses every trace it carried, so it
     counts its record count, not 1 — pressure and shed quartiles stay
     honest. *)
  Transport.on_give_up endpoint (fun payload ->
      let lost =
        match Protocol.decode payload with
        | Ok (Protocol.Batch_upload { records; _ }) -> max 1 (List.length records)
        | Ok _ | Error _ -> 1
      in
      t.dead_letters <- t.dead_letters + lost);
  t

(* The fix set this pod actually runs: fleet-wide fixes always, canary
   fixes only when the rendezvous hash puts this pod's cohort id in the
   canary cohort for that fix.  With no canaries this is [t.fixes]. *)
let active_fixes t =
  if t.canary = [] then t.fixes
  else
    List.filter
      (fun fix ->
        (not (List.mem fix.Fixgen.id t.canary))
        || Fix_lifecycle.in_cohort ~cohort:t.cohort ~fix_id:fix.Fixgen.id
             ~mils:t.canary_mils)
      t.fixes

let guards fixes =
  List.filter_map
    (fun fix ->
      match fix.Fixgen.kind with
      | Fixgen.Input_guard { condition; site; crash_kind; _ } -> Some (condition, site, crash_kind)
      | _ -> None)
    fixes

(* Under backpressure, success-class uploads are deferred with a
   jittered delay that doubles per pressure level — the pods spread
   their load instead of synchronizing on the hive's recovery.  Failure
   uploads never pass through here. *)
let send_deferred t payload =
  if t.pressure = 0 then Transport.send t.endpoint payload
  else begin
    let base = backpressure_defer *. float_of_int (1 lsl (t.pressure - 1)) in
    let delay = base *. (0.5 +. Rng.float t.pressure_rng 1.0) in
    t.deferred_uploads <- t.deferred_uploads + 1;
    Sim.schedule t.sim ~delay (fun () -> Transport.send t.endpoint payload)
  end

(* Flush the accumulated batch as one {!Protocol.Batch_upload} frame.
   With an announced basis every record delta-encodes against it (the
   fingerprint rides along so the hive can detect a stale basis);
   otherwise the first record anchors the rest.  [encode_record] falls
   back to full encoding whenever the delta would be larger, so a
   batch is never bigger than the sum of its full frames. *)
let flush_batch t ~immediate =
  match List.rev t.batch with
  | [] -> ()
  | first :: rest as traces ->
    t.batch <- [];
    let basis_id, basis_check, records =
      match (t.config.delta_encode, t.basis) with
      | true, Some (id, check, basis) ->
        (id, check, List.map (fun tr -> Wire.encode_record ~basis tr) traces)
      | true, None ->
        ( 0,
          0,
          Wire.encode_record first
          :: List.map (fun tr -> Wire.encode_record ~basis:first tr) rest )
      | false, _ -> (0, 0, List.map (fun tr -> Wire.encode_record tr) traces)
    in
    List.iter
      (fun r -> if Wire.is_delta_record r then t.delta_records <- t.delta_records + 1)
      records;
    t.batches_sent <- t.batches_sent + 1;
    let payload =
      Protocol.encode
        (Protocol.Batch_upload { program_digest = t.digest; basis_id; basis_check; records })
    in
    if immediate then Transport.send t.endpoint payload else send_deferred t payload

let upload t (result : Interp.result) ~label ?attribution () =
  let trace =
    Trace.of_result ~program_digest:t.digest ~pod:t.pod_id ~fix_epoch:t.fix_epoch
      ?attribution
      { result with Interp.outcome = label }
  in
  match t.config.upload with
  | Full_traces ->
    let batching = t.config.upload_batch > 1 in
    (* Batched path: the scrubbed trace joins the batch; the batch
       flushes when full, immediately when a failure joins it, or when
       the linger timer fires — a trickle of traces is never held for
       long.  An immediate flush carries any queued successes along. *)
    let enqueue ~immediate =
      let scrubbed = Anonymize.apply t.config.anonymize trace in
      t.batch <- scrubbed :: t.batch;
      if immediate || List.length t.batch >= t.config.upload_batch then
        flush_batch t ~immediate
      else if not t.batch_armed then begin
        t.batch_armed <- true;
        Sim.schedule t.sim ~delay:batch_linger (fun () ->
            t.batch_armed <- false;
            flush_batch t ~immediate:false)
      end
    in
    let send_full () =
      if batching then enqueue ~immediate:false
      else
        let scrubbed = Anonymize.apply t.config.anonymize trace in
        send_deferred t (Protocol.encode (Protocol.Trace_upload (Wire.encode scrubbed)))
    in
    (* Adaptive coordinated sampling: at pressure level L, keep every
       2^L-th success-class trace at full fidelity and thin the rest to
       sampled predicate reports at rate [base × 2^L].  Failure traces
       are always full and immediate — they carry the debugging signal.
       At level 0 the counter-based gate keeps everything, so the
       fault-free stream is untouched. *)
    if Outcome.is_failure label then begin
      if batching then enqueue ~immediate:true
      else
        let scrubbed = Anonymize.apply t.config.anonymize trace in
        Transport.send t.endpoint (Protocol.encode (Protocol.Trace_upload (Wire.encode scrubbed)))
    end
    else begin
      t.success_streak <- t.success_streak + 1;
      let keep_every = 1 lsl t.pressure in
      if t.success_streak mod keep_every = 0 then send_full ()
      else begin
        let rate = backpressure_base_rate * (1 lsl t.pressure) in
        let report =
          Sampling.sample t.pressure_rng ~rate ~full_path:result.Interp.full_path
            ~outcome:label
        in
        t.thinned_uploads <- t.thinned_uploads + 1;
        send_deferred t
          (Protocol.encode (Protocol.Sampled_report { program_digest = t.digest; report }))
      end
    end;
    t.traces_uploaded <- t.traces_uploaded + 1
  | Outcomes_only ->
    let scrubbed = Anonymize.apply Anonymize.Outcome_only trace in
    Transport.send t.endpoint (Protocol.encode (Protocol.Trace_upload (Wire.encode scrubbed)));
    t.traces_uploaded <- t.traces_uploaded + 1
  | Sampled_reports rate ->
    let report =
      Sampling.sample t.rng ~rate ~full_path:result.Interp.full_path ~outcome:label
    in
    Transport.send t.endpoint
      (Protocol.encode (Protocol.Sampled_report { program_digest = t.digest; report }));
    t.traces_uploaded <- t.traces_uploaded + 1

let execute t ~user ~inputs ~fault_plan ~sched =
  let env = Env.make ~fault_plan ~seed:(Rng.int t.rng 1_000_000) ~inputs () in
  let active = active_fixes t in
  if
    t.canary <> []
    && List.exists (fun fix -> List.mem fix.Fixgen.id t.canary) active
  then t.canary_exposed <- true;
  let hooks = Fixgen.runtime_hooks active in
  (* Input guards: the pod knows these inputs used to crash (the
     unconditional site protection is already in [hooks]); flag the
     session as a predicted failure. *)
  let flagged =
    List.exists
      (fun (condition, _, _) -> Path_cond.satisfied_by condition inputs)
      (guards active)
  in
  if flagged then t.guard_flags <- t.guard_flags + 1;
  let result =
    Vm.execute ~max_steps:t.config.max_steps ~hooks ~program:t.program ~env ~sched ()
  in
  if Outcome.is_failure result.Interp.outcome then
    if user then t.user_failures <- t.user_failures + 1
    else t.guided_failures <- t.guided_failures + 1;
  t.averted_crashes <- t.averted_crashes + result.Interp.suppressed_crashes;
  t.deferred_acquisitions <- t.deferred_acquisitions + result.Interp.deferred_acquisitions;
  let signal =
    Feedback.signal_of_run ~outcome:result.Interp.outcome ~steps:result.Interp.steps
      ~slow_threshold
  in
  bump_signal t signal;
  let label = Feedback.label_of_signal signal ~outcome:result.Interp.outcome in
  (* Attribution follows the hive: a pod tags its uploads with the
     active fix set exactly when the last fix frame it applied staged
     canaries ([canary_mils > 0]), i.e. when the hive runs a rollout
     health test that needs exposed-vs-control evidence. *)
  let attribution =
    if t.canary_mils > 0 then
      Some
        {
          Trace.active_fixes =
            List.sort Int.compare (List.map (fun f -> f.Fixgen.id) active);
          (* Every observable hook action on this run: immunity defers,
             crash suppressions, and guard flags — the misfire signal
             the hive's health test reads on benign workloads. *)
          hook_fires =
            result.Interp.suppressed_crashes + result.Interp.deferred_acquisitions
            + (if flagged then 1 else 0);
        }
    else None
  in
  upload t result ~label ?attribution ()

let run_directive t directive =
  t.guided_runs <- t.guided_runs + 1;
  match directive with
  | Guidance.Cover_direction { test; _ } ->
    execute t ~user:false ~inputs:test.Softborg_symexec.Testgen.inputs
      ~fault_plan:test.Softborg_symexec.Testgen.fault_plan ~sched:Sched.Round_robin
  | Guidance.Probe_schedules { inputs; seeds } ->
    List.iter
      (fun seed ->
        execute t ~user:false ~inputs ~fault_plan:Env.No_faults
          ~sched:(Sched.Random_sched (Rng.create seed)))
      seeds

let run_session t =
  t.sessions <- t.sessions + 1;
  let inputs = Workload.draw t.rng t.config.workload ~n_inputs:t.program.Ir.n_inputs in
  let fault_plan =
    if t.config.fault_probability > 0.0 then Env.Random_faults t.config.fault_probability
    else Env.No_faults
  in
  execute t ~user:true ~inputs ~fault_plan ~sched:(Sched.Random_sched (Rng.split t.rng))

let rec schedule_next t =
  let gap = Rng.exponential t.rng t.config.arrival_rate in
  Sim.schedule t.sim ~delay:gap (fun () ->
      (* A stopped pod's pending arrival fires but does nothing and
         does not re-arm: the session stream dies with the user. *)
      if t.active then begin
        (* Guidance directives take priority over natural sessions: the
           hive asked for specific evidence. *)
        (match t.pending_guidance with
        | directive :: rest ->
          t.pending_guidance <- rest;
          run_directive t directive
        | [] -> run_session t);
        schedule_next t
      end)

let start t = schedule_next t
let stop t = t.active <- false

let metrics t =
  {
    sessions = t.sessions;
    guided_runs = t.guided_runs;
    user_failures = t.user_failures;
    guided_failures = t.guided_failures;
    averted_crashes = t.averted_crashes;
    deferred_acquisitions = t.deferred_acquisitions;
    guard_flags = t.guard_flags;
    traces_uploaded = t.traces_uploaded;
    fix_epoch = t.fix_epoch;
    signals = t.signal_counts;
    pressure = t.pressure;
    thinned_uploads = t.thinned_uploads;
    deferred_uploads = t.deferred_uploads;
    dead_letters = t.dead_letters;
    batches_sent = t.batches_sent;
    delta_records = t.delta_records;
    canary_exposed = t.canary_exposed;
  }
