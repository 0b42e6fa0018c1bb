type snapshot = {
  time : float;
  sessions : int;
  guided_runs : int;
  user_failures : int;
  averted_crashes : int;
  deferred_acquisitions : int;
  guard_flags : int;
  traces_uploaded : int;
  fixes_deployed : int;
  proofs_valid : int;
  tree_paths : int;
  tree_completeness : float;
  checkpoints : int;
  restores : int;
  shed_uploads : int;
  quarantined_frames : int;
  pods_muted : int;
  peak_queue_depth : int;
  thinned_uploads : int;
  dead_letters : int;
  (* Wire-plane counters, summed over the pod-side endpoints: what the
     delta/batch encodings exist to shrink.  Data-only in the snapshot
     ([pp_snapshot] omits them; [Platform.pp_report] prints one wire
     line from the final snapshot instead). *)
  wire_bytes : int;
  wire_frames_sent : int;
  wire_frames_received : int;
  (* Cache-efficiency counters summed over the knowledge bases.  They
     are carried in the snapshot for programmatic access but are NOT
     printed by [pp_snapshot]: they count work, not knowledge, and
     printing them would change every report.  Federated runs print
     them per shard in the report's federation section. *)
  gap_memo_hits : int;
  gap_memo_misses : int;
  verdict_cache_hits : int;
  verdict_cache_misses : int;
  (* Staged-rollout counters; all zero (and silent in [pp_snapshot])
     when the run deploys fixes instantly. *)
  canary_fixes : int;
  fix_promotions : int;
  fix_retractions : int;
  quarantined_fix_traces : int;
  pods_exposed : int;
}

let failure_rate s =
  if s.sessions = 0 then 0.0 else float_of_int s.user_failures /. float_of_int s.sessions

type window = {
  t_start : float;
  t_end : float;
  w_sessions : int;
  w_failures : int;
  w_averted : int;
  w_failure_rate : float;
}

let windows snapshots =
  let rec pair acc = function
    | a :: (b :: _ as rest) ->
      let w_sessions = b.sessions - a.sessions in
      let w_failures = b.user_failures - a.user_failures in
      let window =
        {
          t_start = a.time;
          t_end = b.time;
          w_sessions;
          w_failures;
          w_averted = b.averted_crashes - a.averted_crashes;
          w_failure_rate =
            (if w_sessions = 0 then 0.0 else float_of_int w_failures /. float_of_int w_sessions);
        }
      in
      pair (window :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  pair [] snapshots

(* Overload fields print only when non-zero: an unpressured run's
   snapshot lines stay byte-identical to builds without the overload
   layer (the byte-identity invariant tests rely on). *)
let pp_snapshot fmt s =
  Format.fprintf fmt
    "t=%-7.0f sessions=%-6d failures=%-5d averted=%-5d fixes=%-3d proofs=%-2d paths=%-5d%s%s%s%s%s%s%s%s"
    s.time s.sessions s.user_failures s.averted_crashes s.fixes_deployed s.proofs_valid
    s.tree_paths
    (if s.restores > 0 then Printf.sprintf " restores=%d" s.restores else "")
    (if s.shed_uploads > 0 then Printf.sprintf " shed=%d" s.shed_uploads else "")
    (if s.quarantined_frames > 0 then Printf.sprintf " quarantined=%d" s.quarantined_frames
     else "")
    (if s.pods_muted > 0 then Printf.sprintf " muted=%d" s.pods_muted else "")
    (if s.thinned_uploads > 0 then Printf.sprintf " thinned=%d" s.thinned_uploads else "")
    (if s.canary_fixes > 0 then Printf.sprintf " canary=%d" s.canary_fixes else "")
    (if s.fix_retractions > 0 then Printf.sprintf " retracted=%d" s.fix_retractions else "")
    (if s.pods_exposed > 0 then Printf.sprintf " exposed=%d" s.pods_exposed else "")
