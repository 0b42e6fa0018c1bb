(** Canned platform scenarios.

    Each scenario is a ready-to-run {!Platform.config}; experiments and
    examples start from these and override what they sweep. *)

module Generator := Softborg_prog.Generator
module Hive := Softborg_hive.Hive
module Corpus_bench := Softborg_corpus.Corpus_bench

val single_program : ?mode:Hive.mode -> ?seed:int -> Softborg_prog.Ir.t -> Platform.config
(** A small fleet (6 pods) all running one program. *)

val buggy_population :
  ?mode:Hive.mode ->
  ?seed:int ->
  ?n_programs:int ->
  ?n_pods:int ->
  ?bugs:Generator.bug_kind list ->
  unit ->
  Platform.config * (Softborg_prog.Ir.t * Generator.planted list) list
(** A fleet over a population of generated buggy programs; also
    returns the planted-bug ground truth for scoring. *)

val repair_instance : ?mode:Hive.mode -> ?seed:int -> Corpus_bench.instance -> Platform.config
(** A small fleet serving a bug-benchmark instance's buggy build: the
    workload is widened to cover the instance's trigger values, and
    error-path instances get an ambient environment-fault rate so the
    targeted syscall failure occurs in the field. *)

val lossy_network : Platform.config -> Platform.config
(** Degrade the network: 10% packet loss, 200ms mean latency.  The
    reliable transport must still deliver every trace batch. *)

val three_way_comparison :
  ?seed:int -> unit -> (string * Platform.config) list
(** The §5 comparison: identical fleet and bug population under
    SoftBorg, WER, and CBI (experiment E7). *)

val with_chaos :
  ?chaos_seed:int ->
  ?crash_rate:float ->
  ?churn_rate:float ->
  ?degrade_rate:float ->
  Platform.config ->
  Platform.config
(** Attach a generated fault plan (hive crashes, pod churn, link
    degradation; rates in events/second, defaults roughly one fault
    family event per few hundred simulated seconds) to a config.  The
    plan is deterministic in [chaos_seed] and the config's duration and
    pod count. *)

val with_shards : int -> Platform.config -> Platform.config
(** Federate the hive across [n] path-prefix shards with a
    deterministic superstep merge ({!Softborg_hive.Federation});
    [with_shards 1] is the single-hive platform unchanged. *)

val with_fleet_encoding : ?batch:int -> ?delta:bool -> Platform.config -> Platform.config
(** Turn on the fleet-scale wire encoding: pods send
    {!Softborg_hive.Protocol.Batch_upload} frames of [batch] traces
    (default 16) and, with [delta] (default true), delta-encode each
    frame's later records against its leading record, which ships
    full.  [~batch:1] (or less) is the identity. *)

val with_rollout : ?rollout:Softborg_hive.Fix_lifecycle.config -> Platform.config -> Platform.config
(** Stage every new fix through a canary cohort with health-verdict
    promotion/retraction (defaults to
    {!Softborg_hive.Fix_lifecycle.default_config}).  Only the hive
    config changes: pods attribute their uploads with their active fix
    ids once the hive's fix frames carry its canary fraction. *)

val inject_bad_fix : ?at:float -> ?program:int -> ?variant:int -> Platform.config -> Platform.config
(** Append a {!Softborg_net.Fault_plan.Bad_fix} saboteur event to the
    scenario's chaos plan: at [at] (default 120s) a plausible-but-wrong
    fix for [program] (index into the scenario's program list) is
    injected into the hive.  [variant] selects the sabotage shape via
    {!Softborg_hive.Fixgen.sabotage_of_variant}. *)

val with_overload : ?overload:Hive.overload_config -> Platform.config -> Platform.config
(** Enable hive overload protection (admission control, shedding,
    backpressure, quarantine); defaults to
    {!Hive.default_overload_config}. *)

val overload_spike :
  ?spike_pods:int -> ?spike_start:float -> ?spike_end:float -> Platform.config -> Platform.config
(** Script an arrival spike: [spike_pods] extra pods (default 24 — ≥4×
    the default fleet) join staggered from [spike_start] and leave at
    [spike_end], appended to any chaos plan already attached.  The
    spike drives the hive's ingest queue into shedding and pressure
    signalling; after [spike_end] pressure decays back to 0. *)
