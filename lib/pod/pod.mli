(** The pod: the per-instance agent of Figure 1.

    A pod "lies underneath" one instance of a program: it runs user
    sessions on the instrumented bytecode {!Softborg_exec.Vm},
    captures by-products (optionally sampled and anonymized), relays
    them to the hive over the reliable transport, applies fix updates
    the hive pushes down, and executes guidance directives — all on
    the shared simulated clock.

    The hive, not the pod config, decides what rides along with an
    upload: a pod tags its traces with the active fix ids and hook-fire
    count ({!Softborg_trace.Trace.attribution}) exactly when the last
    fix update or retraction it applied carried a canary fraction
    ([canary_mils > 0]), i.e. when the hive runs a staged rollout. *)

module Rng := Softborg_util.Rng
module Ir := Softborg_prog.Ir
module Anonymize := Softborg_trace.Anonymize
module Sim := Softborg_net.Sim
module Transport := Softborg_net.Transport

(** What the pod uploads, per platform mode. *)
type upload_mode =
  | Full_traces  (** SoftBorg: the whole by-product bundle. *)
  | Sampled_reports of int  (** CBI: predicate counts at rate 1/n. *)
  | Outcomes_only  (** WER: the failure bucket, nothing else. *)

type config = {
  arrival_rate : float;  (** User sessions per simulated second. *)
  workload : Workload.profile;
  fault_probability : float;  (** Ambient environment-fault rate. *)
  max_steps : int;  (** Watchdog budget per session. *)
  anonymize : Anonymize.level;
  upload : upload_mode;
  upload_batch : int;
      (** Traces per {!Softborg_hive.Protocol.Batch_upload} frame.  The
          default 1 sends one {!Softborg_hive.Protocol.Trace_upload}
          frame per trace, the smallest framing for a single trace;
          [> 1] accumulates success-class traces and flushes when full,
          when a failure joins the batch (failures are immediate), or
          after a 5 s linger. *)
  delta_encode : bool;
      (** Delta-encode each batch's later records against its first
          record, which always ships full.  Never worse than full
          encoding — the smaller of the two encodings is sent per
          record.  Default false. *)
}

val default_config : config

type metrics = {
  sessions : int;  (** Natural user sessions executed. *)
  guided_runs : int;  (** Hive-directed executions. *)
  user_failures : int;  (** Failures the user actually experienced. *)
  guided_failures : int;
      (** Failures during hive-directed runs — evidence, not user pain. *)
  averted_crashes : int;  (** Suppression-hook saves. *)
  deferred_acquisitions : int;  (** Immunity overhead. *)
  guard_flags : int;  (** Sessions whose inputs matched an input guard. *)
  traces_uploaded : int;
  fix_epoch : int;  (** Current fix version the pod runs with. *)
  signals : (Feedback.signal * int) list;  (** User-signal histogram. *)
  pressure : int;  (** Last hive load level heard (0–3). *)
  thinned_uploads : int;
      (** Success traces downgraded to sampled reports under pressure. *)
  deferred_uploads : int;  (** Uploads delayed by jittered backoff. *)
  dead_letters : int;
      (** Traces the transport abandoned (a lost batch counts every
          record it carried). *)
  batches_sent : int;  (** {!Softborg_hive.Protocol.Batch_upload} frames sent. *)
  delta_records : int;  (** Batch records that went out delta-encoded. *)
  canary_exposed : bool;
      (** Whether this pod ever executed a session with a canary-staged
          fix active — the numerator of "fraction of fleet exposed". *)
}

type t

val create :
  ?config:config ->
  cohort:int ->
  sim:Sim.t ->
  rng:Rng.t ->
  program:Ir.t ->
  endpoint:Transport.endpoint ->
  unit ->
  t
(** [endpoint] is the pod's side of its connection to the hive; the
    pod installs its receive handler.  [cohort] is the pod's stable
    identity (the platform passes the fleet index): it decides
    canary-cohort membership, and the pod id stamped on its traces is
    [cohort + 1].  Equal cohorts give equal pods, so runs replay
    whatever else the process created before. *)

val start : t -> unit
(** Schedule the first user session. *)

val stop : t -> unit
(** Stop generating sessions (the user leaves).  The pod's pending
    arrival fires as a no-op; already-sent traffic still completes.
    Used by the chaos harness for pod churn. *)

val run_session : t -> unit
(** Execute one natural session immediately (also used by tests). *)

val metrics : t -> metrics
