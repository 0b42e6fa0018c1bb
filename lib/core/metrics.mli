(** Platform-level metric time series.

    The paper's central hypothesis — "the more a program is used, the
    more reliable it should become" (§2) — is a statement about a
    trajectory, so the platform records periodic snapshots of the
    whole fleet and derives windowed rates from consecutive ones. *)

type snapshot = {
  time : float;  (** Simulation time of the snapshot. *)
  sessions : int;  (** Cumulative natural sessions across pods. *)
  guided_runs : int;
  user_failures : int;  (** Cumulative failures users experienced. *)
  averted_crashes : int;
  deferred_acquisitions : int;
  guard_flags : int;
  traces_uploaded : int;
  fixes_deployed : int;
  proofs_valid : int;
  tree_paths : int;  (** Distinct execution-tree paths at the hive. *)
  tree_completeness : float;
  checkpoints : int;  (** Hive checkpoints taken so far. *)
  restores : int;  (** Hive crash-restores completed so far. *)
  shed_uploads : int;  (** Uploads shed by hive admission control. *)
  quarantined_frames : int;  (** Poison frames rejected at the hive. *)
  pods_muted : int;  (** Quarantine mute episodes. *)
  peak_queue_depth : int;  (** Ingest-queue high-water mark. *)
  thinned_uploads : int;  (** Pod uploads downgraded under pressure. *)
  dead_letters : int;  (** Pod uploads the transport abandoned. *)
  wire_bytes : int;
      (** Packet bytes pushed onto the pod-side outgoing links (data +
          acks + retransmissions).  Data-only in the snapshot —
          [Platform.pp_report] prints one wire line from the final
          snapshot, zero-silent for the batch/delta counters. *)
  wire_frames_sent : int;  (** Upstream transport frames sent by pods. *)
  wire_frames_received : int;  (** Downstream frames delivered to pods. *)
  gap_memo_hits : int;  (** Guidance gap-memo hits over all knowledge. *)
  gap_memo_misses : int;
  verdict_cache_hits : int;  (** Solver verdict-cache hits likewise. *)
  verdict_cache_misses : int;
      (** The four cache counters are data-only in the snapshot:
          [pp_snapshot] omits them because they count work, not
          knowledge, and printing them would change every report.
          Federated runs print them per shard in the report's
          federation section. *)
  canary_fixes : int;  (** Fixes currently held in canary stage. *)
  fix_promotions : int;  (** Canary fixes promoted fleet-wide so far. *)
  fix_retractions : int;  (** Canary fixes condemned and retracted. *)
  quarantined_fix_traces : int;
      (** Uploads quarantined because their attribution named a
          retracted fix. *)
  pods_exposed : int;
      (** Pods that ever ran a session with a canary fix active.  All
          five rollout counters are zero — and silent in
          {!pp_snapshot} — when the run deploys fixes instantly. *)
}

val failure_rate : snapshot -> float
(** Cumulative failures per session (0 when no sessions). *)

type window = {
  t_start : float;
  t_end : float;
  w_sessions : int;  (** Sessions within the window. *)
  w_failures : int;
  w_averted : int;
  w_failure_rate : float;  (** Failures per session within the window. *)
}

val windows : snapshot list -> window list
(** Consecutive-snapshot deltas (empty for fewer than two snapshots). *)

val pp_snapshot : Format.formatter -> snapshot -> unit
