(** Staged fix rollout: lifecycle stages, deterministic canary
    cohorts, and the sequential canary-vs-control health test.

    Under a staging config every deployed fix moves Canary → Fleet,
    or is pulled back with {!Retracted} when the canary cohort's
    fix-attributed telemetry shows it does harm.  All decisions are
    integer tests over commutative counters, so the outcome is a pure
    function of the observed run multiset — identical for any shard
    count, and replayable from a checkpoint. *)

type stage = Canary | Fleet | Retracted

type config = {
  canary_mils : int;
      (** Canary cohort fraction, in thousandths of the fleet.  [0]
          means no canary stage: every fix deploys fleet-wide at once
          and no lifecycle entry is kept. *)
  min_exposed : int;  (** Minimum exposed runs before any verdict. *)
  min_control : int;  (** Minimum control runs before any verdict. *)
  harm_ratio_mils : int;
      (** Retract when the exposed failure rate exceeds
          [control rate × harm_ratio_mils/1000 + harm_margin_mils/1000]. *)
  harm_margin_mils : int;
  novel_bucket_k : int;
      (** Retract when a failure bucket is seen [novel_bucket_k]+ times
          under the fix but never in the control cohort. *)
  misfire_mils : int;
      (** Retract when, on a workload the control cohort shows benign
          (zero control failures), more than [misfire_mils/1000] of
          exposed runs fire the fix's hooks. *)
  promote_after : int;  (** Exposed runs that trigger early promotion. *)
  max_hold_ticks : int;
      (** Analysis ticks after which a not-harmful canary promotes
          regardless of sample size — bounds time-to-fleet for good
          fixes. *)
}

val default_config : config
(** Canary staging at 125 mils. *)

val instant : config
(** {!default_config} with [canary_mils = 0]: instant fleet-wide
    deployment, the hive's default. *)

val cohort_hash : cohort:int -> fix_id:int -> int
(** Seed-free FNV-1a over (cohort id, fix id) — the same construction
    as {!Protocol.basis_fingerprint}.  Non-negative. *)

val in_cohort : cohort:int -> fix_id:int -> mils:int -> bool
(** Rendezvous canary membership: replayable anywhere from the pod's
    stable cohort id and the fix id alone. *)

type health = {
  mutable exposed_runs : int;
  mutable exposed_failures : int;
  mutable control_runs : int;
  mutable control_failures : int;
  mutable misfires : int;  (** Successful exposed runs that fired hooks. *)
  exposed_buckets : (string, int ref) Hashtbl.t;
      (** Failure counts per {!Softborg_exec.Outcome.bucket_key}. *)
  control_buckets : (string, int ref) Hashtbl.t;
}

type entry = {
  fix_id : int;
  mutable stage : stage;
  mutable retired_epoch : int;
      (** Epoch at which the retraction took effect; [0] while live. *)
  mutable ticks_held : int;
  health : health;
}

val create_entry : fix_id:int -> stage:stage -> entry

val observe : entry -> exposed:bool -> failed:bool -> bucket:string -> hook_fires:int -> unit
(** Account one attributed run.  [bucket] is only recorded for failed
    runs; [hook_fires] only feeds the misfire counter on successful
    exposed runs. *)

type decision = Hold | Promote | Retract of string

val decide : config -> entry -> decision
(** The sequential health test.  Only {!Canary} entries ever promote
    or retract; the retract reason is deterministic (sorted bucket
    keys break ties). *)

val write_entry : Softborg_util.Codec.Writer.t -> entry -> unit
val read_entry : Softborg_util.Codec.Reader.t -> entry

val write_entries : Softborg_util.Codec.Writer.t -> entry list -> unit
(** Sorted by fix id, so checkpoint bytes stay canonical. *)

val read_entries : Softborg_util.Codec.Reader.t -> entry list
