(** The hive's per-program knowledge base.

    "The hive merges information extracted from by-products with its
    existing knowledge of P, identifies misbehaviors in P, synthesizes
    fixes, and distributes these fixes back to the pods" (paper §3).
    One [Knowledge.t] holds everything the hive knows about one program
    build: the collective execution tree, the deadlock miner, the
    statistical bug isolator, the failure buckets, the synthesized
    fixes (versioned by epoch), and the proofs established so far. *)

module Ir := Softborg_prog.Ir
module Interp := Softborg_exec.Interp
module Trace := Softborg_trace.Trace
module Sampling := Softborg_trace.Sampling
module Exec_tree := Softborg_tree.Exec_tree
module Sym_exec := Softborg_symexec.Sym_exec

type t

val create : ?replay_cache:int -> Ir.t -> t
(** [replay_cache] (default 256) bounds the decoded-trace LRU that
    lets {!ingest_trace} skip the replay for content the hive has
    already reconstructed; pass 0 to disable caching entirely. *)

val program : t -> Ir.t
val digest : t -> string
val tree : t -> Exec_tree.t
val isolate : t -> Isolate.t

val epoch : t -> int
(** Current fix-set version; pods at an older epoch get an update. *)

val fixes : t -> Fixgen.fix list
(** Every fix ever minted, retracted ones included (id continuity). *)

val live_fixes : t -> Fixgen.fix list
(** {!fixes} minus retractions — the set that deploys and replays. *)

val retracted_ids : t -> int list
(** Sorted ids of every fix ever retracted for this program. *)

val lifecycle : t -> Fix_lifecycle.entry list
(** The per-fix rollout ledger (persisted in checkpoints). *)

val set_rollout : t -> Fix_lifecycle.config -> unit
(** Attach the rollout config ({!Fix_lifecycle.instant} until set).  A
    runtime attachment, not persisted: the owning hive re-attaches it
    after a restore. *)

val canary_ids : t -> int list
(** Sorted ids of fixes currently in canary stage. *)

val canary_mils : t -> int
(** The attached config's cohort fraction; [0] under instant
    deployment. *)

val quarantined_traces : t -> int
(** Arrivals rejected because their attribution named a retracted fix.
    Runtime-only: quarantined traces are not evidence and never touch
    knowledge bytes. *)

val proofs : t -> Prover.proof list
val traces_ingested : t -> int
val failures_observed : t -> int
val replay_errors : t -> int

val replay_cache_hits : t -> int
(** Ingestions that skipped {!Softborg_exec.Vm.reconstruct} because
    the decoded-trace cache already held the reconstruction. *)

val gap_memo : t -> Gap_memo.t
(** Memoized symbolic gap verdicts for this program, shared by
    guidance planning and the prover's gap closing.  Kept across fix
    epochs (no fix reaches symbolic analysis).  {!write} leaves it
    out and {!read} starts it empty; {!Hive.checkpoint} carries it
    beside the knowledge frame and {!Hive.restore} seeds it. *)

val verdict_cache : t -> Softborg_solver.Verdict_cache.t
(** Memoized path-condition solver verdicts for this program, shared
    by every symbolic query the hive runs (guidance, gap closing,
    proof attempts, guard synthesis in {!analyze}, cooperating
    provers).  Same lifetime as
    {!gap_memo}. *)

val hooks_for_epoch : t -> int -> Interp.hooks
(** The runtime instrumentation (deadlock immunity + crash
    suppression) in force at a given epoch — used both by pods and by
    the hive when replaying a trace recorded under that epoch. *)

val current_hooks : t -> Interp.hooks

val store : t -> Trace_store.t
(** The content-addressed store backing full-trace ingestion; exposes
    dedup/storage accounting. *)

val ingest_trace : ?prepared:Trace_store.prepared -> t -> Trace.t -> (unit, string) result
(** Full ingestion: replay the by-products on
    {!Softborg_exec.Vm.reconstruct} (the hive's one replay site),
    merge the path into the tree, feed the deadlock miner and the
    isolator, bucket failures.  [prepared] skips re-encoding at
    admission (see {!Trace_store.prepare}). *)

val ingest_sampled : t -> Sampling.t -> unit
(** CBI-mode ingestion: sparse predicate counts and an outcome label;
    no tree merge (there is no full path to merge). *)

val ingest_outcome_only : t -> Trace.t -> unit
(** WER-mode ingestion: bucket the outcome, nothing else. *)

val crash_evidence : t -> Fixgen.crash_evidence list
val deadlock_pattern_sets : t -> int list list

val deadlock_bucket_info : t -> (string * int list * int) list
(** Manifested deadlock buckets: key, lock set, count — what a human
    in WER mode has to go on. *)

val bucket_counts : t -> (string * int) list

val analyze : ?symexec_config:Sym_exec.config -> t -> Fixgen.fix list
(** Synthesize fixes for uncovered evidence ({!Fixgen.propose}, with
    this knowledge's {!verdict_cache}).  Deploying fixes bumps
    the epoch and invalidates proofs established against older
    epochs.  Returns the newly created fixes (including repair-lab
    candidates, which do not deploy and do not bump the epoch). *)

val add_fix : t -> Fixgen.kind -> Fixgen.fix
(** Install an externally-decided fix (the human repair lab of WER
    mode, or an injected saboteur fix); bumps the epoch and
    invalidates stale proofs.  Under a staging config
    ([canary_mils > 0]) the new fix enters canary stage, otherwise it
    deploys fleet-wide instantly. *)

val lifecycle_tick : t -> int list * (int * string) list
(** Run the sequential health test over every canary entry (one held
    tick each) and apply the verdicts: returns (promoted fix ids,
    (retracted fix id, reason) pairs).  Any movement bumps the epoch
    exactly once; retraction also extends {!retracted_ids}.  ([[], []]
    when nothing is in canary stage, as always under instant
    deployment.) *)

val adopt_fixes : t -> fixes:Fixgen.fix list -> epoch:int -> retracted:int list -> unit
(** Replace the fix set, epoch, and retracted set wholesale with the
    federation coordinator's, so replay hooks computed here for any
    epoch match the merged knowledge's.  Clears the replay cache and
    invalidates stale proofs (as {!analyze} would).
    {b Monotonic}: adoptions at an epoch ≤ the current one are dropped
    — a duplicated or reordered update can never regress the fix set. *)

val record_proof : t -> Prover.proof -> unit
val valid_proofs : t -> Prover.proof list

val write : Softborg_util.Codec.Writer.t -> t -> unit
(** Checkpoint codec: serializes the whole knowledge base — program,
    counters, execution tree, trace store, isolator, deadlock miner,
    failure buckets, fixes, proofs.  Hashtable-backed collections are
    written in sorted key order, so equal knowledge bases serialize to
    equal bytes.  The replay cache, the gap memo and the verdict
    cache are not written. *)

val read : Softborg_util.Codec.Reader.t -> t
(** Inverse of {!write}: the restored value is observationally
    identical to the original (same tree version and epoch, same
    subsequent ingest/analyze behaviour).  Its decoded-trace cache
    restarts cold at the default size of 256.
    @raise Softborg_util.Codec.Malformed on invalid input.
    @raise Softborg_util.Codec.Truncated on premature end. *)
