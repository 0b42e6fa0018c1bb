(* One measured repetition: a whole [Platform.run] in a forked child.

   The parent only builds configs and forks; it never spawns a domain,
   so [Unix.fork] stays legal.  Forking also gives every repetition the
   same process-global state (pod and trace id counters), which a
   second in-process [Platform.run] would not have — see README.md,
   "Known issues". *)

module Platform = Softborg.Platform
module Metrics = Softborg.Metrics
module Hive = Softborg_hive.Hive
module Knowledge = Softborg_hive.Knowledge
module Federation = Softborg_hive.Federation
module Transport = Softborg_net.Transport
module Pod = Softborg_pod.Pod
module Codec = Softborg_util.Codec

(* ---- Forked children ---------------------------------------------------- *)

(* Run [f] in a child process and return its marshalled result.  The
   child leaves with [_exit], so no parent [at_exit] work runs twice. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let result : ('a, string) result =
      match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc result [];
    close_out oc;
    Unix._exit (if Result.is_ok result then 0 else 2)
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result =
      match (Marshal.from_channel ic : ('a, string) result) with
      | r -> r
      | exception End_of_file -> Error "child exited without a result"
    in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    match (result, status) with
    | Ok v, Unix.WEXITED 0 -> v
    | Error msg, _ -> failwith ("benchmark child failed: " ^ msg)
    | Ok _, _ -> failwith "benchmark child exited abnormally"

(* ---- What one run reports ----------------------------------------------- *)

(* Equal across every repetition of one workload and seed, or the
   benchmark is not measuring the same work twice. *)
type fingerprint = {
  sessions : int;
  guided_runs : int;
  failures : int;
  fixes : int;
  traces_received : int;
  wire_bytes : int;
  knowledge_digest : string;
}

let knowledge_digest knowledge =
  List.map
    (fun k ->
      let w = Codec.Writer.create () in
      Knowledge.write w k;
      Codec.Writer.contents w)
    knowledge
  |> List.sort String.compare |> String.concat "" |> Digest.string |> Digest.to_hex

(* End-of-run state, not the last snapshot: the traced copy reads the
   same sources, and a tick landing exactly at [duration] after the
   final sample would otherwise split the two. *)
let fingerprint ~pod_metrics ~transport_stats ~(hive_stats : Hive.stats) ~knowledge =
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 pod_metrics in
  {
    sessions = sum (fun m -> m.Pod.sessions);
    guided_runs = sum (fun m -> m.Pod.guided_runs);
    failures = sum (fun m -> m.Pod.user_failures);
    fixes = hive_stats.Hive.fixes_deployed;
    traces_received = hive_stats.Hive.traces_received;
    wire_bytes = List.fold_left (fun acc s -> acc + s.Transport.bytes_on_wire) 0 transport_stats;
    knowledge_digest = knowledge_digest knowledge;
  }

let fingerprint_of_report (r : Platform.report) =
  fingerprint ~pod_metrics:r.Platform.pod_metrics ~transport_stats:r.Platform.transport_stats
    ~hive_stats:r.Platform.hive_stats ~knowledge:r.Platform.knowledge

type run = {
  fingerprint : fingerprint;
  wall_s : float;  (** [Platform.run] alone. *)
  end_to_end : (string * float) list;  (** Every end-to-end metric but [setup_s]. *)
  per_layer : (string * float) list;
      (** Counters from the report, GC deltas, and the seed-determined
          quality numbers. *)
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* The hives that face pods: every shard in a federated run. *)
let facing_hive_stats (r : Platform.report) =
  match r.Platform.federation with
  | None -> [ r.Platform.hive_stats ]
  | Some fs -> List.map (fun ss -> ss.Federation.hive_stats) fs.Federation.per_shard

(* Analysis ticks until the first snapshot with a deployed fix; one past
   the run's last tick when no snapshot shows one. *)
let ttff_ticks (config : Platform.config) (r : Platform.report) =
  let interval = config.Platform.hive_config.Hive.analysis_interval in
  match List.find_opt (fun s -> s.Metrics.fixes_deployed > 0) r.Platform.snapshots with
  | Some s -> s.Metrics.time /. interval
  | None -> Float.floor (config.Platform.duration /. interval) +. 1.0

(* Uploads that never became knowledge: shed at admission, abandoned
   by the transport, quarantined as poison or as evidence of a
   retracted fix, or failing replay. *)
let refused (r : Platform.report) =
  let hives = facing_hive_stats r in
  sum (fun h -> h.Hive.shed_success + h.Hive.shed_failure + h.Hive.quarantined_frames) hives
  + sum (fun m -> m.Pod.dead_letters) r.Platform.pod_metrics
  + r.Platform.hive_stats.Hive.quarantined_fix_traces
  + sum Knowledge.replay_errors r.Platform.knowledge

let report_counts (config : Platform.config) (r : Platform.report) ~traces_uploaded =
  let f = r.Platform.final in
  let fp = fingerprint_of_report r in
  let count x = float_of_int x in
  [
    (* A federated run replays on the shards, whose knowledge the report
       does not carry: there the rate is the coordinator's. *)
    ( "hive.replay_cache.hit_rate",
      ratio (sum Knowledge.replay_cache_hits r.Platform.knowledge)
        (sum Knowledge.traces_ingested r.Platform.knowledge) );
    ( "hive.gap_memo.hit_rate",
      ratio f.Metrics.gap_memo_hits (f.Metrics.gap_memo_hits + f.Metrics.gap_memo_misses) );
    ( "solver.verdict_cache.hit_rate",
      ratio f.Metrics.verdict_cache_hits
        (f.Metrics.verdict_cache_hits + f.Metrics.verdict_cache_misses) );
    ( "hive.shed",
      count (sum (fun h -> h.Hive.shed_success + h.Hive.shed_failure) (facing_hive_stats r)) );
    ("hive.peak_queue", count f.Metrics.peak_queue_depth);
    ("pod.thinned", count (sum (fun m -> m.Pod.thinned_uploads) r.Platform.pod_metrics));
    ( "net.retransmissions",
      count (sum (fun s -> s.Transport.retransmissions) r.Platform.transport_stats) );
    ("net.dead_letters", count (sum (fun m -> m.Pod.dead_letters) r.Platform.pod_metrics));
    ("hive.restores", count (sum (fun h -> h.Hive.restores_completed) (facing_hive_stats r)));
    ("quality.failure_rate", ratio fp.failures fp.sessions);
    ("quality.failed_share", ratio (refused r) traces_uploaded);
    ("quality.ttff_ticks", ttff_ticks config r);
  ]

let mib words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Runs inside the child: the wall clock covers [Platform.run] only. *)
let measure_in_child (config : Platform.config) =
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let report = Platform.run config in
  let wall_s = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  let fp = fingerprint_of_report report in
  let traces_uploaded = sum (fun m -> m.Pod.traces_uploaded) report.Platform.pod_metrics in
  let sessions = float_of_int (max 1 (fp.sessions + fp.guided_runs)) in
  {
    fingerprint = fp;
    wall_s;
    end_to_end =
      [
        ("sessions_per_s", sessions /. wall_s);
        ("traces_per_s", float_of_int fp.traces_received /. wall_s);
        ("sim_s_per_wall_s", config.Platform.duration /. wall_s);
        ("heap_peak_mb", mib gc1.Gc.top_heap_words);
        ("wire_bytes_per_trace", ratio fp.wire_bytes traces_uploaded);
      ];
    per_layer =
      report_counts config report ~traces_uploaded
      @ [
          ("gc.minor_words_per_session", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. sessions);
          ( "gc.promoted_words_per_session",
            (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. sessions );
          ( "gc.major_collections",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ];
  }

let run config = in_child (fun () -> measure_in_child config)
