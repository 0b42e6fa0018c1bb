(** Benchmark-style scoring of the repair loop against the versioned
    bug corpus ({!Softborg_corpus.Corpus_bench}).

    For each corpus instance the harness plays a miniature deployment:
    a stream of executions of the {e buggy} program — mostly natural
    (random inputs, no faults) with the instance's certified trigger
    recipe injected every [trigger_every]-th run — is ingested into a
    fresh {!Knowledge.t}, exactly as pod traces would be.  The
    knowledge is then asked to {!Knowledge.analyze}, and the proposals
    are scored against the instance's ground truth:

    - {b fix precision} — of the deployable fixes proposed, the
      fraction that are correct.  A guard/suppression fix is correct
      iff its site is one of the instance's [bug_sites] (the crash
      site or the branch the fixed version corrects); a
      deadlock-immunity fix is correct iff it serializes exactly
      [bug_locks].  Vacuously 1.0 when nothing is proposed.
    - {b fix recall} (localization) — whether at least one correct
      deployable fix was proposed for the instance; per family, the
      fraction of instances localized.  One planted bug per instance
      makes recall a per-instance boolean.
    - {b time-to-isolation} — the 1-based index of the first
      execution after which the evidence localizes the bug: for
      single-threaded instances, when some failing run has been seen
      {e and} a predicate on the instance's certified failing path
      ranks in the top-[isolation_top] of {!Isolate.rank} carrying
      failure evidence and a non-negative Increase score (boundary
      bugs sit at Increase 0 — the same branch passes in benign runs —
      and lead the ranking via the failing-observation tie-break); for
      multi-threaded instances (whose failure is
      schedule-, not input-, discriminated, and whose failing path may
      cross no branch at all) when the first manifested failure is
      ingested.  [None] if never within the run budget.
    - {b averted} — whether re-running the certified trigger recipe
      under {!Knowledge.current_hooks} (the deployed fixes) no longer
      fails.
    - {b proof coverage} — the same execution stream driven at the
      {e fixed} program into its own knowledge, frontier gaps closed
      symbolically ({!Prover.close_gaps}), reported as
      {!Softborg_tree.Exec_tree.completeness} of the fixed program's
      tree, plus the strength of the proof the prover will grant
      ([Proved]/[Tested] assert safety for single-threaded instances,
      deadlock freedom for threaded ones).

    Scoring runs on the bytecode {!Softborg_exec.Vm}; the corpus
    certifies that it agrees with the tree-walk reference on every
    instance. *)

module Corpus_bench := Softborg_corpus.Corpus_bench

type config = {
  runs : int;  (** Executions driven per instance (buggy and fixed). *)
  trigger_every : int;  (** Every n-th run uses the certified trigger recipe. *)
  isolation_top : int;  (** Rank window for time-to-isolation. *)
  input_hi : int;  (** Natural inputs are uniform over [0, input_hi]. *)
  seed : int;  (** Root of all randomness; scoring is deterministic in it. *)
}

val default_config : config
(** 80 runs, trigger every 8th, top-3 isolation window,
    inputs over [0, 191] (the workload/solver default domain), seed 9. *)

type instance_score = {
  name : string;
  family : string;
  threaded : bool;
  executions : int;
  failures_seen : int;
  time_to_isolation : int option;
  proposed : int;  (** Deployable fixes proposed. *)
  correct : int;  (** Of those, correct against the ground truth. *)
  patch_candidates : int;  (** Repair-lab (non-deployable) proposals. *)
  fix_kinds : string list;  (** Kind names of every proposal, for reporting. *)
  localized : bool;  (** [correct > 0]. *)
  averted : bool;
  proof_coverage : float;
  proof_strength : string option;
}

type family_score = {
  family : string;
  version : int;
  instances : int;
  precision : float;  (** Micro-averaged over proposals; 1.0 if none. *)
  recall : float;  (** Fraction of instances localized. *)
  isolated : int;  (** Instances with [time_to_isolation = Some _]. *)
  mean_time_to_isolation : float;  (** Over isolated instances; 0.0 if none. *)
  averted_rate : float;
  mean_proof_coverage : float;
}

val score_instance : ?config:config -> Corpus_bench.instance -> instance_score

val score_corpus :
  ?config:config -> Corpus_bench.instance list -> instance_score list * family_score list
(** Scores every instance and aggregates per family (families in
    corpus order). *)

val fixed_variant_fixes : ?config:config -> Corpus_bench.instance -> Fixgen.fix list
(** Drive the same execution stream (trigger recipe included) at the
    instance's {e fixed} program and return everything [analyze]
    proposes.  The Fixgen false-positive guard: this must be empty —
    a fixed program yields no failures, hence no evidence, hence no
    fixes. *)
