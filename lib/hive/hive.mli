(** The hive service (paper §3, Figure 1).

    The hive sits at the center of the platform: it receives by-product
    uploads from pods over the simulated network, folds them into
    per-program {!Knowledge}, runs a periodic analysis tick that
    synthesizes fixes and plans guidance, pushes both back to the pods,
    and attempts cumulative proofs.

    Three operating modes make the paper's §5 comparison a switch, not
    a separate codebase:

    - [Full]: the SoftBorg loop — automatic fix synthesis, guidance,
      proofs;
    - [Wer]: WER-style crash reporting — outcome buckets only; a
      simulated human fixes a bucket once it has enough reports, after
      a development delay;
    - [Cbi]: cooperative bug isolation — sampled predicate reports;
      the human acts faster because statistical isolation localizes
      the bug first. *)

module Ir := Softborg_prog.Ir
module Sim := Softborg_net.Sim
module Transport := Softborg_net.Transport
module Sym_exec := Softborg_symexec.Sym_exec
module Wire := Softborg_trace.Wire

type mode =
  | Full
  | Wer
  | Cbi

val mode_name : mode -> string

(** What to do when an upload arrives and the ingest queue is full. *)
type shed_policy =
  | Drop_newest  (** Shed the arriving upload. *)
  | Drop_oldest  (** Evict the head of the queue to admit the arrival. *)
  | Prefer_failures
      (** Class-aware fair-share shedding: evict a success-class upload
          from the pod occupying the most queue slots (oldest first,
          lowest slot on ties).  A failure-class upload is never shed
          while any success-class upload is queued — failures carry the
          debugging signal. *)

type overload_config = {
  queue_bound : int;  (** Max queued uploads; the hard bound Q. *)
  service_interval : float;
      (** Seconds of hive ingest capacity one upload consumes.  Arrival
          faster than this builds backlog; backlog builds pressure. *)
  shed_policy : shed_policy;
  caps : Wire.caps;  (** Resource caps enforced on every decoded frame. *)
  quarantine_threshold : int;
      (** Malformed frames from one pod before it is muted. *)
  mute_cooldown : float;  (** Seconds a misbehaving pod stays muted. *)
}

val default_overload_config : overload_config
(** Bound 64, 20ms service, [Prefer_failures], {!Wire.default_caps},
    mute after 5 poison frames for 120s. *)

type config = {
  mode : mode;
  analysis_interval : float;  (** Seconds between analysis ticks. *)
  guidance_max : int;  (** Directives per program per tick. *)
  human_fix_threshold : int;  (** Reports before the human acts (Wer/Cbi). *)
  human_fix_delay : float;
      (** Seconds from threshold to deployed fix; a third of that in
          Cbi mode, whose statistical localization shortens debugging. *)
  prove : bool;  (** Attempt cumulative proofs on each tick (Full only). *)
  symexec_config : Sym_exec.config;
      (** Bounds for every symbolic query the hive runs: guidance
          planning, gap closing, proof attempts and input-guard
          synthesis. *)
  pool_size : int;
      (** Ignored: a hive runs on its caller's domain.  Kept so that
          callers written against a hive that solved guidance gaps on
          more than one domain still build. *)
  overload : overload_config option;
      (** Every upload goes through one admission path: resource-capped
          decode, poison-trace quarantine and mutes, then a bounded
          queue.  [None] (the default) admits with
          {!default_overload_config}'s caps and quarantine but zero
          service time, so no upload ever queues, sheds or raises
          pressure and each is ingested in its receive callback.
          [Some _] adds a real service time: bounded queueing with
          shedding and pod backpressure signalling. *)
  synthesize : bool;
      (** [true] (the default) lets the analysis tick propose and
          deploy fixes.  Federation shards run with [false]: fix ids
          and epochs are minted only by the merge coordinator, whose
          knowledge sees whole-program evidence. *)
  rollout : Fix_lifecycle.config;
      (** With [canary_mils > 0], every new fix is staged through a
          canary cohort with health-verdict promotion/retraction (see
          {!Fix_lifecycle}).  Its fix frames carry the config's
          [canary_mils], which is what makes pods attribute their
          uploads, so setting this on the hive alone gets the health
          test its exposed and control evidence.  Default
          {!Fix_lifecycle.instant} ([canary_mils = 0]): fixes deploy
          fleet-wide instantly and pods send no attribution. *)
}

val default_config : mode -> config

type stats = {
  traces_received : int;
  messages_received : int;
  analysis_ticks : int;
  fixes_deployed : int;
  fix_updates_sent : int;  (** {!Protocol.Fix_update} broadcasts, retractions included. *)
  guidance_sent : int;
  proofs_established : int;
  human_fixes_scheduled : int;
  checkpoints_taken : int;  (** {!checkpoint} calls by this hive process. *)
  restores_completed : int;  (** Successful {!restore} calls. *)
  shed_success : int;  (** Success-class uploads shed under overload. *)
  shed_failure : int;  (** Failure-class uploads shed (last resort). *)
  quarantined_frames : int;  (** Malformed frames rejected at the boundary. *)
  pods_muted : int;  (** Mute episodes triggered by the quarantine ledger. *)
  muted_drops : int;  (** Messages dropped because their pod was muted. *)
  pressure_updates_sent : int;  (** Standalone pressure broadcasts. *)
  peak_queue_depth : int;  (** High-water mark of the ingest queue. *)
  batch_frames_received : int;
      (** {!Protocol.Batch_upload} frames decoded (a quarantined batch
          does not count). *)
  batch_records_received : int;  (** Trace records across all batches. *)
  basis_updates_sent : int;  (** {!Protocol.Basis_update} broadcasts. *)
  fix_promotions : int;  (** Canary fixes promoted fleet-wide. *)
  fix_retractions : int;  (** Canary fixes condemned by the health test. *)
  quarantined_fix_traces : int;
      (** Uploads rejected because their attribution named a retracted
          fix (summed over programs; runtime-only, not checkpointed). *)
}

type t

val create : ?config:config -> sim:Sim.t -> unit -> t

val register_program : t -> Ir.t -> Knowledge.t
(** Tell the hive about a program build (idempotent per digest). *)

val knowledge : t -> digest:string -> Knowledge.t option
val knowledge_list : t -> Knowledge.t list

val adopt_fixes :
  t -> digest:string -> fixes:Fixgen.fix list -> epoch:int -> retracted:int list -> unit
(** Replace a program's fix set, epoch, and retracted set with the
    federation coordinator's (no-op for an unknown digest or a
    non-advancing epoch).  See {!Knowledge.adopt_fixes}. *)

val fix_update : t -> Knowledge.t -> Protocol.message
(** The one fix-state frame for a program, as this hive broadcasts it
    and the federation coordinator publishes it: a {!Protocol.Fix_update}
    at the knowledge's current epoch with its deployable live fixes,
    canary ids and cohort fraction, and this hive's pressure level.  A
    retraction travels as one too: a higher epoch whose fix set lacks
    the retracted fix. *)

val inject_fix : t -> digest:string -> Fixgen.kind -> unit
(** Install an externally-decided fix (no-op for an unknown digest):
    minted via {!Knowledge.add_fix} — canary-staged under a staging
    rollout — and broadcast downstream.  The chaos
    harness's bad-fix saboteur enters here. *)

val ingest_payload : ?copies:int -> t -> string -> unit
(** Admit one encoded protocol frame [copies] times (default 1) and
    ingest each copy synchronously, with the default caps and whatever
    this hive's overload config — the federation coordinator commits
    shard delta payloads through this.  A single-upload frame is
    decoded and prepared once for all its copies; every copy still
    counts as a message and a trace received, reaches the ingest tap
    and is ingested, exactly as [copies] separate calls would. *)

val set_ingest_tap : t -> (string -> unit) -> unit
(** Observe the canonical re-encoding of every upload this hive
    ingests (after admission control and poison rejection).  A
    federation shard's superstep delta is the tap's output since the
    previous flush. *)

val attach_pod : t -> Transport.endpoint -> unit
(** Wire up the hive side of one pod's connection.  Each attachment
    gets the next slot (0, 1, …) in the quarantine ledger and
    fair-share accounting. *)

val inject : t -> slot:int -> string -> unit
(** Feed one encoded protocol frame through the receive path an
    attached pod's frame takes, without a transport.  [slot] stands in
    for the pod attachment slot (fair-share shedding, quarantine
    ledger).  Load harnesses use this to simulate fleets far larger
    than the endpoint table. *)

val announce_bases : t -> unit
(** Broadcast a {!Protocol.Basis_update} for every program that has a
    basis candidate (the first trace processed with branch bits) but no
    announced basis yet.  The analysis tick does this on its own for a
    program once a batch carrying a delta record for it has decoded —
    proof that some pod delta-encodes; hives fed only single frames or
    full-record batches announce nothing.  Exposed so tests and benches
    can force announcement deterministically.  Bases are a wire-plane
    accelerator and are not checkpointed. *)

val pressure_level : t -> int
(** Current load level (0–3; always 0 without overload protection). *)

val queue_length : t -> int
(** Uploads admitted but not yet ingested (always 0 without overload
    protection). *)

val start : t -> unit
(** Schedule the periodic analysis tick on the simulator. *)

val tick : t -> unit
(** Run one analysis tick immediately (also called by the schedule). *)

val shutdown : t -> unit
(** Does nothing: a hive runs on its caller's domain and owns no
    other.  Kept so that callers written against a hive that held
    worker domains still build. *)

val stats : t -> stats

val checkpoint : t -> string
(** Serialize the hive's durable state: the stats counters, the
    analysis throttle state (pending human fixes, issued guidance,
    per-program proof state), every program's {!Knowledge} (via
    {!Checkpoint}), then every program's {!Gap_memo} verdicts, stamped
    with [config.symexec_config].  Equal hive states checkpoint to
    equal bytes.  Endpoints, the simulator, the replay caches and the
    solver verdict caches are deliberately excluded — a restored hive
    reattaches to whatever pods are alive, and those caches restart
    cold. *)

val restore : t -> string -> (int, string) result
(** Replace the hive's durable state with a checkpoint's, as after a
    crash and restart, and seed each restored program's gap memo with
    the checkpointed verdicts.  Verdicts stamped with a symexec config
    other than this hive's are parsed and dropped, leaving those memos
    cold.  Returns the number of programs restored.  A malformed or
    truncated checkpoint, one with bytes after its last field, or one
    carrying verdicts for a program it has no knowledge of returns
    [Error] and leaves the hive untouched.  Programs registered after
    the checkpoint was taken are kept. *)
