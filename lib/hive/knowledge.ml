module Ir = Softborg_prog.Ir
module Outcome = Softborg_exec.Outcome
module Interp = Softborg_exec.Interp
module Vm = Softborg_exec.Vm
module Trace = Softborg_trace.Trace
module Sampling = Softborg_trace.Sampling
module Wire = Softborg_trace.Wire
module Exec_tree = Softborg_tree.Exec_tree
module Deadlock = Softborg_conc.Deadlock
module Immunity = Softborg_conc.Immunity
module Sym_exec = Softborg_symexec.Sym_exec
module Lru = Softborg_util.Lru

type crash_bucket = {
  site : Ir.site;
  crash_kind : Outcome.crash_kind;
  mutable count : int;
}

type t = {
  program : Ir.t;
  digest : string;
  tree : Exec_tree.t;
  deadlocks : Deadlock.t;
  isolate : Isolate.t;
  store : Trace_store.t;
  crash_buckets : (string, crash_bucket) Hashtbl.t;
  deadlock_buckets : (string, int list * int ref) Hashtbl.t;  (* lock set, count *)
  other_buckets : (string, int ref) Hashtbl.t;  (* hang buckets *)
  mutable fixes : Fixgen.fix list;
  mutable epoch : int;
  (* Staged rollout: retracted fix ids (sorted; the fixes themselves
     stay in [fixes] so id minting never reuses a condemned id) and
     the per-fix lifecycle ledger.  Both are serialized — a restored
     hive must not resurrect a retracted fix.  The rollout config and
     the quarantine counter are runtime attachments: config comes from
     [Hive.config], and quarantined traces are by definition *not*
     evidence, so they must not influence knowledge bytes. *)
  mutable retracted : int list;
  mutable lifecycle : Fix_lifecycle.entry list;
  mutable rollout : Fix_lifecycle.config;
  mutable quarantined : int;
  mutable traces_ingested : int;
  mutable failures : int;
  mutable replay_errors : int;
  mutable proofs : Prover.proof list;
  (* Decoded-trace cache: content key -> reconstruction.  Duplicate
     uploads (the common case at fleet scale) skip the replay. *)
  replay_cache : (string, Interp.reconstruction) Lru.t;
  mutable replay_cache_hits : int;
  (* Symbolic gap verdicts, shared by guidance planning and gap
     closing.  A verdict reads only [program], which never changes, so
     the table lives as long as this value; a restore starts it cold. *)
  gap_memo : Gap_memo.t;
  (* Path-condition solver verdicts, shared by every symbolic query
     the hive runs against this program; same lifetime. *)
  verdict_cache : Softborg_solver.Verdict_cache.t;
}

(* Decoded-trace LRU entries; [read] restores knowledge with a cold
   cache of this size. *)
let replay_cache_size = 256

let create program =
  {
    program;
    digest = Ir.digest program;
    tree = Exec_tree.create ();
    deadlocks = Deadlock.create ();
    isolate = Isolate.create ();
    store = Trace_store.create ();
    crash_buckets = Hashtbl.create 8;
    deadlock_buckets = Hashtbl.create 8;
    other_buckets = Hashtbl.create 8;
    fixes = [];
    epoch = 0;
    retracted = [];
    lifecycle = [];
    rollout = Fix_lifecycle.instant;
    quarantined = 0;
    traces_ingested = 0;
    failures = 0;
    replay_errors = 0;
    proofs = [];
    replay_cache = Lru.create replay_cache_size;
    replay_cache_hits = 0;
    gap_memo = Gap_memo.create ();
    verdict_cache = Softborg_solver.Verdict_cache.create ();
  }

let program t = t.program
let digest t = t.digest
let tree t = t.tree
let isolate t = t.isolate
let epoch t = t.epoch
let fixes t = t.fixes
let proofs t = t.proofs
let traces_ingested t = t.traces_ingested
let failures_observed t = t.failures
let replay_errors t = t.replay_errors
let replay_cache_hits t = t.replay_cache_hits
let gap_memo t = t.gap_memo
let verdict_cache t = t.verdict_cache

(* The fix set minus retractions — what deploys, replays, and guards.
   Retracted fixes are dead everywhere except id continuity. *)
let live_fixes t =
  match t.retracted with
  | [] -> t.fixes
  | retracted -> List.filter (fun fix -> not (List.mem fix.Fixgen.id retracted)) t.fixes

let retracted_ids t = t.retracted
let lifecycle t = t.lifecycle
let set_rollout t config = t.rollout <- config
let quarantined_traces t = t.quarantined

let canary_ids t =
  List.filter_map
    (fun (e : Fix_lifecycle.entry) ->
      if e.Fix_lifecycle.stage = Fix_lifecycle.Canary then Some e.Fix_lifecycle.fix_id else None)
    t.lifecycle
  |> List.sort Int.compare

let canary_mils t = t.rollout.Fix_lifecycle.canary_mils

let hooks_for_epoch t target_epoch = Fixgen.runtime_hooks ~epoch:target_epoch (live_fixes t)

let current_hooks t = hooks_for_epoch t t.epoch

let record_failure t (outcome : Outcome.t) =
  match outcome with
  | Outcome.Success -> ()
  | Outcome.Crash { site; kind; _ } ->
    t.failures <- t.failures + 1;
    let key = Outcome.bucket_key outcome in
    (match Hashtbl.find_opt t.crash_buckets key with
    | Some bucket -> bucket.count <- bucket.count + 1
    | None -> Hashtbl.replace t.crash_buckets key { site; crash_kind = kind; count = 1 })
  | Outcome.Deadlock { waiting } ->
    t.failures <- t.failures + 1;
    let key = Outcome.bucket_key outcome in
    let locks = List.map snd waiting |> List.sort_uniq Int.compare in
    (match Hashtbl.find_opt t.deadlock_buckets key with
    | Some (_, count) -> incr count
    | None -> Hashtbl.replace t.deadlock_buckets key (locks, ref 1))
  | Outcome.Hang ->
    t.failures <- t.failures + 1;
    let key = Outcome.bucket_key outcome in
    (match Hashtbl.find_opt t.other_buckets key with
    | Some count -> incr count
    | None -> Hashtbl.replace t.other_buckets key (ref 1))

let store t = t.store

let merge_reconstruction t (trace : Trace.t) ({ Interp.decisions; locks } : Interp.reconstruction) =
  ignore (Exec_tree.add_path t.tree decisions trace.Trace.outcome);
  Deadlock.observe t.deadlocks ~outcome:trace.Trace.outcome ~locks;
  Isolate.record_path t.isolate ~full_path:decisions ~outcome:trace.Trace.outcome

(* Quarantine test: evidence recorded under a since-retracted fix
   describes behavior the fleet no longer exhibits, and admitting it
   would make knowledge bytes depend on *when* the retraction landed
   rather than on the accepted-trace multiset alone. *)
let quarantines t (trace : Trace.t) =
  t.retracted <> []
  &&
  match trace.Trace.attribution with
  | None -> false
  | Some a -> List.exists (fun id -> List.mem id t.retracted) a.Trace.active_fixes

(* Canary health accounting: every attributed run is a sample — exposed
   for the canary fixes in its active set, control for the rest.  Only
   a staging config registers canaries, so at [canary_mils = 0] this
   does nothing. *)
let observe_health t (trace : Trace.t) =
  match trace.Trace.attribution with
  | None -> ()
  | Some a ->
    let failed = Outcome.is_failure trace.Trace.outcome in
    let bucket = Outcome.bucket_key trace.Trace.outcome in
    List.iter
      (fun (e : Fix_lifecycle.entry) ->
        if e.Fix_lifecycle.stage = Fix_lifecycle.Canary then
          Fix_lifecycle.observe e
            ~exposed:(List.mem e.Fix_lifecycle.fix_id a.Trace.active_fixes)
            ~failed ~bucket ~hook_fires:a.Trace.hook_fires)
      t.lifecycle

(* Replay hooks for one trace: an attributed trace names its exact
   active fix set (a canary pod runs a strict subset of its epoch's
   fixes), an unattributed one falls back to the epoch approximation. *)
let replay_hooks t (trace : Trace.t) =
  match trace.Trace.attribution with
  | Some a -> Fixgen.runtime_hooks_for_ids ~ids:a.Trace.active_fixes t.fixes
  | None -> hooks_for_epoch t trace.Trace.fix_epoch

let ingest_trace ?prepared t (trace : Trace.t) =
  if quarantines t trace then begin
    t.quarantined <- t.quarantined + 1;
    Ok ()
  end
  else begin
    t.traces_ingested <- t.traces_ingested + 1;
    let content_key, _ = Trace_store.admit_keyed ?prepared t.store trace in
    record_failure t trace.Trace.outcome;
    observe_health t trace;
    if trace.Trace.steps = 0 && trace.Trace.n_decisions = 0 then
      (* Outcome-only disclosure: nothing to replay or merge. *)
      Ok ()
    else
      match Lru.find t.replay_cache content_key with
      | Some reconstruction ->
        (* Same content already replayed: skip the wire/replay round-trip
           and merge the cached decision sequence directly. *)
        t.replay_cache_hits <- t.replay_cache_hits + 1;
        merge_reconstruction t trace reconstruction;
        Ok ()
      | None -> (
        match
          Vm.reconstruct ~hooks:(replay_hooks t trace) ~program:t.program ~bits:trace.Trace.bits
            ~schedule:trace.Trace.schedule ~total_decisions:trace.Trace.n_decisions
            ~total_steps:trace.Trace.steps ()
        with
        | Ok reconstruction ->
          Lru.add t.replay_cache content_key reconstruction;
          merge_reconstruction t trace reconstruction;
          Ok ()
        | Error msg ->
          t.replay_errors <- t.replay_errors + 1;
          Error msg)
  end

let ingest_sampled t sampled =
  t.traces_ingested <- t.traces_ingested + 1;
  record_failure t sampled.Sampling.outcome;
  Isolate.record t.isolate sampled

let ingest_outcome_only t (trace : Trace.t) =
  if quarantines t trace then t.quarantined <- t.quarantined + 1
  else begin
    t.traces_ingested <- t.traces_ingested + 1;
    record_failure t trace.Trace.outcome;
    observe_health t trace
  end

let crash_evidence t =
  Hashtbl.fold
    (fun key bucket acc ->
      { Fixgen.site = bucket.site; crash_kind = bucket.crash_kind; bucket = key; count = bucket.count }
      :: acc)
    t.crash_buckets []
  (* Ties broken by bucket key: the hashtable fold order depends on
     insertion history, and evidence order must not (fix proposal
     iterates it, and proposed-fix bytes must be ingestion-order
     independent). *)
  |> List.sort (fun (a : Fixgen.crash_evidence) b ->
         match Int.compare b.Fixgen.count a.Fixgen.count with
         | 0 -> String.compare a.Fixgen.bucket b.Fixgen.bucket
         | c -> c)

let deadlock_pattern_sets t =
  List.map (fun (p : Deadlock.pattern) -> p.Deadlock.locks) (Deadlock.patterns t.deadlocks)

let deadlock_bucket_info t =
  Hashtbl.fold (fun key (locks, count) acc -> (key, locks, !count) :: acc) t.deadlock_buckets []

let bucket_counts t =
  let crash = Hashtbl.fold (fun key b acc -> (key, b.count) :: acc) t.crash_buckets [] in
  let dl = Hashtbl.fold (fun key (_, n) acc -> (key, !n) :: acc) t.deadlock_buckets [] in
  let other = Hashtbl.fold (fun key n acc -> (key, !n) :: acc) t.other_buckets [] in
  List.sort
    (fun (k1, a) (k2, b) ->
      match Int.compare b a with 0 -> String.compare k1 k2 | c -> c)
    (crash @ dl @ other)

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  (* Replay depends on the hooks in force at a trace's fix epoch; a new
     epoch can change the hook set, so cached reconstructions are
     dropped rather than risked.  The symbolic verdict tables stay: no
     fix hook reaches symbolic analysis, which reads only the program. *)
  Lru.clear t.replay_cache;
  ignore (Prover.invalidate t.proofs ~current_epoch:t.epoch)

(* Under a staging config every newly deployed fix enters the ledger
   as a canary; at [canary_mils = 0] fixes ship fleet-wide instantly
   (the default, and the bench's "naive" arm).  The only place the
   config decides whether to stage: without canary entries the
   lifecycle tick has nothing to judge. *)
let register_canaries t new_fixes =
  if t.rollout.Fix_lifecycle.canary_mils > 0 then
    List.iter
      (fun (fix : Fixgen.fix) ->
        if
          Fixgen.is_deployable fix
          && not
               (List.exists
                  (fun (e : Fix_lifecycle.entry) -> e.Fix_lifecycle.fix_id = fix.id)
                  t.lifecycle)
        then
          t.lifecycle <-
            t.lifecycle @ [ Fix_lifecycle.create_entry ~fix_id:fix.id ~stage:Fix_lifecycle.Canary ])
      new_fixes

let analyze ?symexec_config t =
  let new_fixes =
    Fixgen.propose ?symexec_config ~cache:t.verdict_cache ~program:t.program
      ~deadlock_patterns:(deadlock_pattern_sets t) ~crashes:(crash_evidence t)
      ~existing:t.fixes ~next_epoch:(t.epoch + 1) ()
  in
  let deployable = List.filter Fixgen.is_deployable new_fixes in
  if deployable <> [] then bump_epoch t;
  t.fixes <- t.fixes @ new_fixes;
  register_canaries t new_fixes;
  new_fixes

let add_fix t kind =
  let fix = { Fixgen.id = 1_000_000 + List.length t.fixes; epoch = t.epoch + 1; kind } in
  bump_epoch t;
  t.fixes <- t.fixes @ [ fix ];
  register_canaries t [ fix ];
  fix

(* The sequential health test, run once per analysis tick.  Stage
   moves and the epoch bump happen together at the end, so one tick
   costs at most one epoch (one cache/proof invalidation) however many
   canaries move. *)
let lifecycle_tick t =
  let promoted = ref [] in
  let condemned = ref [] in
  List.iter
    (fun (e : Fix_lifecycle.entry) ->
      if e.Fix_lifecycle.stage = Fix_lifecycle.Canary then begin
        e.Fix_lifecycle.ticks_held <- e.Fix_lifecycle.ticks_held + 1;
        match Fix_lifecycle.decide t.rollout e with
        | Fix_lifecycle.Hold -> ()
        | Fix_lifecycle.Promote -> promoted := e :: !promoted
        | Fix_lifecycle.Retract reason -> condemned := (e, reason) :: !condemned
      end)
    (List.sort
       (fun (a : Fix_lifecycle.entry) b -> Int.compare a.Fix_lifecycle.fix_id b.Fix_lifecycle.fix_id)
       t.lifecycle);
  let promoted = List.rev !promoted in
  let condemned = List.rev !condemned in
  if promoted <> [] || condemned <> [] then begin
    List.iter (fun (e : Fix_lifecycle.entry) -> e.Fix_lifecycle.stage <- Fix_lifecycle.Fleet) promoted;
    List.iter
      (fun ((e : Fix_lifecycle.entry), _) -> e.Fix_lifecycle.stage <- Fix_lifecycle.Retracted)
      condemned;
    t.retracted <-
      List.sort_uniq Int.compare
        (List.map (fun ((e : Fix_lifecycle.entry), _) -> e.Fix_lifecycle.fix_id) condemned
        @ t.retracted);
    bump_epoch t;
    List.iter
      (fun ((e : Fix_lifecycle.entry), _) -> e.Fix_lifecycle.retired_epoch <- t.epoch)
      condemned
  end;
  ( List.map (fun (e : Fix_lifecycle.entry) -> e.Fix_lifecycle.fix_id) promoted,
    List.map (fun ((e : Fix_lifecycle.entry), reason) -> (e.Fix_lifecycle.fix_id, reason)) condemned
  )

(* Federation: a shard adopts the coordinator's deployed fix set
   wholesale, so its replay hooks for a given epoch match what the
   pods (and the merged knowledge) compute.  Invalidation mirrors
   [bump_epoch]: a new fix set can change the replay hooks, so cached
   reconstructions go, and proofs of an older epoch lapse.

   Monotonic: a stale or reordered adoption (epoch ≤ ours) is dropped,
   never applied — a duplicated/delayed [Fix_update] on a lossy link
   must not regress anyone to an older fix set (every legitimate
   change, including a retraction, bumps the epoch first). *)
let adopt_fixes t ~fixes ~epoch ~retracted =
  if epoch > t.epoch then begin
    t.fixes <- fixes;
    t.epoch <- epoch;
    t.retracted <- List.sort_uniq Int.compare retracted;
    Lru.clear t.replay_cache;
    ignore (Prover.invalidate t.proofs ~current_epoch:t.epoch)
  end

let record_proof t proof = t.proofs <- proof :: t.proofs
let valid_proofs t = List.filter (fun (p : Prover.proof) -> p.Prover.valid) t.proofs

(* ---- Checkpoint codec -------------------------------------------------- *)

module Codec = Softborg_util.Codec
module Ir_codec = Softborg_prog.Ir_codec

let sorted_bindings table =
  Hashtbl.fold (fun key value acc -> (key, value) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Everything hashtable-backed is written in sorted key order and the
   two lists (fixes, proofs) verbatim, so equal knowledge bases always
   serialize to equal bytes — the round-trip property tests depend on
   it.  The replay cache is deliberately not persisted: it is a pure
   accelerator and restarts cold. *)
let write w t =
  Ir_codec.write_program w t.program;
  (* The digest is persisted, not recomputed on read: [Ir.digest] goes
     through [Marshal], whose output encodes structural sharing, so a
     decoded (sharing-free) program can hash differently from the
     original even though it is structurally equal.  The digest is the
     identity pods address their traces to — it must survive verbatim. *)
  Codec.Writer.bytes w t.digest;
  Codec.Writer.varint w t.epoch;
  Codec.Writer.varint w t.traces_ingested;
  Codec.Writer.varint w t.failures;
  Codec.Writer.varint w t.replay_errors;
  (* [replay_cache_hits] is deliberately not serialized: it depends on
     LRU arrival order (a process-local accident, like the cache
     itself), and knowledge bytes must be a pure function of the
     ingested evidence for the federation's merge-equality check. *)
  Exec_tree.write w t.tree;
  Trace_store.write w t.store;
  Isolate.write w t.isolate;
  Deadlock.write w t.deadlocks;
  Codec.Writer.list w
    (fun (key, bucket) ->
      Codec.Writer.bytes w key;
      Ir_codec.write_site w bucket.site;
      Wire.write_crash_kind w bucket.crash_kind;
      Codec.Writer.varint w bucket.count)
    (sorted_bindings t.crash_buckets);
  Codec.Writer.list w
    (fun (key, (locks, count)) ->
      Codec.Writer.bytes w key;
      Codec.Writer.list w (Codec.Writer.varint w) locks;
      Codec.Writer.varint w !count)
    (sorted_bindings t.deadlock_buckets);
  Codec.Writer.list w
    (fun (key, count) ->
      Codec.Writer.bytes w key;
      Codec.Writer.varint w !count)
    (sorted_bindings t.other_buckets);
  Codec.Writer.list w (Fixgen.write_fix w) t.fixes;
  Codec.Writer.list w (Prover.write_proof w) t.proofs;
  (* Rollout state rides at the end (checkpoint format v3): sorted
     retracted ids, then the lifecycle ledger.  A restored hive can
     therefore never resurrect a retracted fix. *)
  Codec.Writer.list w (Codec.Writer.varint w) t.retracted;
  Fix_lifecycle.write_entries w t.lifecycle

let read r =
  let program = Ir_codec.read_program r in
  let digest = Codec.Reader.bytes r in
  let epoch = Codec.Reader.varint r in
  let traces_ingested = Codec.Reader.varint r in
  let failures = Codec.Reader.varint r in
  let replay_errors = Codec.Reader.varint r in
  let tree = Exec_tree.read r in
  let store = Trace_store.read r in
  let isolate = Isolate.read r in
  let deadlocks = Deadlock.read r in
  let fill n decode =
    let table = Hashtbl.create n in
    List.iter (fun (key, value) -> Hashtbl.replace table key value) (Codec.Reader.list r decode);
    table
  in
  let crash_buckets =
    fill 8 (fun r ->
        let key = Codec.Reader.bytes r in
        let site = Ir_codec.read_site r in
        let crash_kind = Wire.read_crash_kind r in
        let count = Codec.Reader.varint r in
        (key, { site; crash_kind; count }))
  in
  let deadlock_buckets =
    fill 8 (fun r ->
        let key = Codec.Reader.bytes r in
        let locks = Codec.Reader.list r Codec.Reader.varint in
        let count = Codec.Reader.varint r in
        (key, (locks, ref count)))
  in
  let other_buckets =
    fill 8 (fun r ->
        let key = Codec.Reader.bytes r in
        let count = Codec.Reader.varint r in
        (key, ref count))
  in
  let fixes = Codec.Reader.list r (fun r -> Fixgen.read_fix r) in
  let proofs = Codec.Reader.list r (fun r -> Prover.read_proof r) in
  let retracted = Codec.Reader.list r Codec.Reader.varint in
  let lifecycle = Fix_lifecycle.read_entries r in
  {
    program;
    digest;
    tree;
    deadlocks;
    isolate;
    store;
    crash_buckets;
    deadlock_buckets;
    other_buckets;
    fixes;
    epoch;
    retracted;
    lifecycle;
    rollout = Fix_lifecycle.instant;
    quarantined = 0;
    traces_ingested;
    failures;
    replay_errors;
    proofs;
    replay_cache = Lru.create replay_cache_size;
    replay_cache_hits = 0;
    gap_memo = Gap_memo.create ();
    verdict_cache = Softborg_solver.Verdict_cache.create ();
  }
