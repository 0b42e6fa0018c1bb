(** Fix synthesis (paper §3.3).

    From the hive's aggregated evidence, synthesize fixes that avert
    future failures and push them to pods:

    - {b deadlock immunity}: a lock-order cycle becomes avoidance
      instrumentation (after Jula et al. [16]);
    - {b input guards}: a crash whose symbolic path condition mentions
      only real program inputs becomes a predicate the pod checks
      before running — the run is flagged and protected;
    - {b crash suppression}: a crash site becomes a runtime patch that
      skips the failing instruction (after Perkins et al. [24]);
    - {b patch candidates}: every bug also yields a repair-lab entry
      for a human developer ("we provision for a repair lab that
      suggests plausible fixes to developers", §3.3).

    Fixes are serializable: they travel from hive to pods over the
    simulated network. *)

module Ir := Softborg_prog.Ir
module Outcome := Softborg_exec.Outcome
module Path_cond := Softborg_solver.Path_cond
module Codec := Softborg_util.Codec
module Sym_exec := Softborg_symexec.Sym_exec

type kind =
  | Deadlock_immunity of int list  (** Lock set to serialize entry to. *)
  | Input_guard of {
      bucket : string;
      condition : Path_cond.t;
      site : Ir.site;  (** Crash site the guard protects. *)
      crash_kind : Outcome.crash_kind;
    }
  | Crash_suppression of { bucket : string; site : Ir.site; crash_kind : Outcome.crash_kind }
  | Patch_candidate of { bucket : string; site : Ir.site; description : string }

type fix = {
  id : int;
  epoch : int;  (** Fix-set version this fix first appears in. *)
  kind : kind;
}

val is_deployable : fix -> bool
(** Patch candidates await a human; everything else deploys
    automatically. *)

val kind_name : kind -> string
val pp : Format.formatter -> fix -> unit

type crash_evidence = {
  site : Ir.site;
  crash_kind : Outcome.crash_kind;
  bucket : string;
  count : int;
}

val propose :
  ?symexec_config:Sym_exec.config ->
  ?cache:Softborg_solver.Verdict_cache.t ->
  program:Ir.t ->
  deadlock_patterns:int list list ->
  crashes:crash_evidence list ->
  existing:fix list ->
  next_epoch:int ->
  unit ->
  fix list
(** Synthesize fixes for evidence not yet covered by [existing] ones.
    Each crash bucket yields one deployable fix (an input guard when
    the bucket's path condition is input-only, otherwise a crash
    suppression) plus one repair-lab patch candidate.

    The guard comes from the first path, in emission order, of a strict
    {!Sym_exec.explore} of a single-threaded [program] that crashed at
    the bucket's site and kind, has an input-only condition and solves
    [`Sat].  Only such crash paths are solved, up to the first [`Sat];
    [cache] memoizes the exploration's checks and those solves. *)

module Interp := Softborg_exec.Interp

val runtime_hooks : ?epoch:int -> fix list -> Interp.hooks
(** The runtime instrumentation a fix list induces: deadlock-immunity
    lock hooks plus crash-suppression hooks.  With [epoch], only fixes
    at or below that epoch are in force (used by the hive to replay a
    trace exactly as the recording pod ran it). *)

val runtime_hooks_for_ids : ids:int list -> fix list -> Interp.hooks
(** Hooks for exactly the fixes whose ids are listed — how the hive
    replays a fix-attributed trace: the recording pod's active set, not
    an epoch approximation (a canary pod's hooks are a strict subset of
    its epoch's fixes). *)

type sabotage =
  | Spin_immunity  (** Over-broad immunity set that livelocks benign schedules. *)
  | Misplaced_guard  (** Always-true input guard at a never-crashing site. *)
  | Misplaced_suppression  (** Inert suppression at a never-crashing site. *)

val sabotage_of_variant : int -> sabotage
(** Map a {!Softborg_net.Fault_plan.Bad_fix} variant code (0/1/2+) to
    a sabotage shape — the fault plan is data-only and cannot name hive
    types. *)

val sabotage_kind : sabotage -> program:Ir.t -> kind
(** Construct the wrong fix against a concrete program (lock universe,
    sites).  Deployable by construction — the point is to watch the
    rollout health test catch or clear it. *)

val corpus_wrong_fixes : Softborg_corpus.Corpus_bench.instance -> (string * kind) list
(** Corpus-derived wrong-fix variants for a certified benchmark
    instance, each labelled: a guard at a decoy site (on the failing
    path, not a ground-truth fix location —
    {!Softborg_corpus.Corpus_bench.decoy_sites}) and an over-broad
    immunity set that serializes benign schedules
    ({!Softborg_corpus.Corpus_bench.overbroad_lock_set}).  Empty when
    the instance offers neither ingredient. *)

val write_fix : Codec.Writer.t -> fix -> unit
val read_fix : Codec.Reader.t -> fix
(** @raise Softborg_util.Codec.Malformed on invalid input. *)

(** Shared field codecs, also used by hive checkpoints.
    @raise Softborg_util.Codec.Malformed on invalid input. *)
