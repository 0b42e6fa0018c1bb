(* The metric table, summaries, the result JSON, and [compare].

   [end_to_end] and [per_layer] are the single source of the names,
   units and bounds that BENCHMARK.json repeats; the smoke test checks
   that the two agree. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type end_to_end = { name : string; unit_ : string; better : better; bound : float }

(* [bound]: the share of the parent's median by which the metric may
   worsen before a change counts as a regression. *)
let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "sessions_per_s"; unit_ = "1/s"; better = Higher; bound = 0.25 };
    { name = "traces_per_s"; unit_ = "1/s"; better = Higher; bound = 0.25 };
    { name = "sim_s_per_wall_s"; unit_ = "s/s"; better = Higher; bound = 0.25 };
    { name = "heap_peak_mb"; unit_ = "MiB"; better = Lower; bound = 0.15 };
    { name = "wire_bytes_per_trace"; unit_ = "B"; better = Lower; bound = 0.06 };
  ]

(* name, unit, better *)
let per_layer =
  [
    ("hive.tick.share", "share", Lower);
    ("hive.tick.ms_p50", "ms", Lower);
    ("hive.tick.ms_max", "ms", Lower);
    ("hive.tick.count", "count", Lower);
    ("hive.receive.share", "share", Lower);
    ("hive.receive.ns_p50", "ns", Lower);
    ("hive.receive.ns_p99", "ns", Lower);
    ("hive.receive.count", "count", Lower);
    ("pods_net.share", "share", Lower);
    ("pods_net.ns_per_session", "ns", Lower);
    ("sim.events", "count", Lower);
    ("fed.superstep.share", "share", Lower);
    ("fed.superstep.ms_p50", "ms", Lower);
    ("fed.shard_tick.share", "share", Lower);
    ("hive.checkpoint.ms_p50", "ms", Lower);
    ("hive.checkpoint.bytes", "B", Lower);
    ("hive.checkpoint.count", "count", Lower);
    ("hive.restore.ms_p50", "ms", Lower);
    ("hive.restore.count", "count", Lower);
    ("gc.pause.share", "share", Lower);
    ("gc.minor_words_per_session", "words", Lower);
    ("gc.promoted_words_per_session", "words", Lower);
    ("gc.major_collections", "count", Lower);
    ("pool.speedup", "ratio", Higher);
    ("wire.encode.ns", "ns", Lower);
    ("wire.decode.ns", "ns", Lower);
    ("replay.tree.ns", "ns", Lower);
    ("replay.vm.ns", "ns", Lower);
    ("tree.add_path.ns", "ns", Lower);
    ("exec.vm.ns", "ns", Lower);
    ("exec.tree.ns", "ns", Lower);
    ("hive.replay_cache.hit_rate", "share", Higher);
    ("hive.gap_memo.hit_rate", "share", Higher);
    ("solver.verdict_cache.hit_rate", "share", Higher);
    ("hive.shed", "count", Lower);
    ("hive.peak_queue", "count", Lower);
    ("pod.thinned", "count", Lower);
    ("net.retransmissions", "count", Lower);
    ("net.dead_letters", "count", Lower);
    ("hive.restores", "count", Lower);
    ("quality.failure_rate", "share", Lower);
    ("quality.failed_share", "share", Lower);
    ("quality.ttff_ticks", "ticks", Lower);
    ("trace.covered", "share", Higher);
    ("trace.overhead", "share", Lower);
    ("trace.faithful", "bool", Higher);
  ]

let unit_of name =
  match List.find_opt (fun m -> m.name = name) end_to_end with
  | Some m -> m.unit_
  | None -> (
    match List.find_opt (fun (n, _, _) -> n = name) per_layer with
    | Some (_, u, _) -> u
    | None -> invalid_arg ("unknown metric " ^ name))

(* What BENCHMARK.json gets wrong against these tables and
   [Workloads.all], and which of its metrics no run [printed]. *)
let spec_errors spec ~printed =
  let entries key f = List.map f (Json.to_list (Json.get key spec)) in
  let str k m = Json.to_str (Json.get k m) in
  let mismatch what = function
    | true -> []
    | false -> [ "BENCHMARK.json " ^ what ^ " disagree with bench/e2e" ]
  in
  let declared = entries "end_to_end" (str "name") @ entries "per_layer" (str "name") in
  mismatch "workloads"
    (entries "workloads" (fun m -> (str "name" m, str "why" m))
    = List.map (fun (w : Workloads.t) -> (w.Workloads.name, w.Workloads.why)) Workloads.all)
  @ mismatch "end-to-end metrics"
      (entries "end_to_end" (fun m ->
           (str "name" m, str "unit" m, str "better" m, Json.to_num (Json.get "bound" m)))
      = List.map (fun m -> (m.name, m.unit_, better_name m.better, m.bound)) end_to_end)
  @ mismatch "per-layer metrics"
      (entries "per_layer" (fun m -> (str "name" m, str "unit" m, str "better" m))
      = List.map (fun (n, u, b) -> (n, u, better_name b)) per_layer)
  @ List.filter_map
      (fun n -> if List.mem n printed then None else Some ("no run printed " ^ n))
      declared

(* ---- Summaries ---------------------------------------------------------- *)

let median xs = Softborg_util.Stats.median xs

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method), so spreads here match any external check. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (i * m / 4) (n - 1)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* The median over positions [j] of the mean over [batches] of each
   batch's [j]-th sample.  Set-up samples come in batches of a few
   milliseconds, and on a shared box a batch runs either at full speed
   or up to 1.75x slower for seconds at a time; the mean across batches
   averages those spells over the run, as the repetitions do, and the
   median across positions drops each batch's first, cold samples. *)
let median_of_means batches =
  let n = List.fold_left (fun acc b -> min acc (List.length b)) max_int batches in
  let rows = List.map (fun b -> Array.of_list b) batches in
  List.init n (fun j ->
      List.fold_left (fun acc row -> acc +. row.(j)) 0.0 rows /. float_of_int (List.length rows))
  |> median

(* Median of each named metric over several runs' (name, value) lists. *)
let medians runs =
  match runs with
  | [] -> []
  | first :: _ ->
    List.map (fun (name, _) -> (name, median (List.map (List.assoc name) runs))) first

let print_metric (name, value) =
  Printf.printf "  %-32s %18.6f %s\n" name value (unit_of name)

let metric_json metrics =
  Json.Obj
    (List.map
       (fun (name, value) ->
         (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str (unit_of name)) ]))
       metrics)

(* The last line of a one-workload run. *)
let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", metric_json metrics);
       ])

(* One end-to-end metric over the rounds of a full run. *)
let summary_json (m : end_to_end) values =
  let q1, q3 = quartiles values in
  Json.Obj
    [
      ("unit", Json.Str m.unit_);
      ("better", Json.Str (better_name m.better));
      ("bound", Json.Num m.bound);
      ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
      ("median", Json.Num (median values));
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
    ]

(* ---- compare ------------------------------------------------------------ *)

type side = { median : float; q1 : float; q3 : float; values : float list }

let side values =
  let q1, q3 = quartiles values in
  { median = median values; q1; q3; values }

(* choosing-metrics §6.5 and §8: a change is worse when its median
   loses by more than the bound; unresolved when either side's spread
   exceeds the bound, unless every change run beats every parent run;
   better when its median wins by more than the parent's own spread and
   the two sides' quartile ranges do not overlap. *)
let verdict (m : end_to_end) parent change =
  let gain a b = match m.better with Higher -> b -. a | Lower -> a -. b in
  let spread s = (s.q3 -. s.q1) /. Float.abs s.median in
  let delta = gain parent.median change.median /. Float.abs parent.median in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> gain p c > 0.0) parent.values) change.values
  in
  let separated =
    match m.better with Higher -> change.q1 > parent.q3 | Lower -> change.q3 < parent.q1
  in
  if all_better && delta > spread parent then "better"
  else if spread parent > m.bound || spread change > m.bound then "unresolved"
  else if delta < -.m.bound then "worse"
  else if delta > spread parent && separated then "better"
  else "within bound"

(* Every value of [metric] on [workload] across one side's files. *)
let pooled files ~workload ~metric =
  List.concat_map
    (fun path ->
      Json.of_file path |> Json.get "workloads" |> Json.to_list
      |> List.filter (fun w -> Json.to_str (Json.get "name" w) = workload)
      |> List.concat_map (fun w ->
             match Json.member metric (Json.get "end_to_end" w) with
             | Some m -> List.map Json.to_num (Json.to_list (Json.get "values" m))
             | None -> []))
    files

(* [parent] and [change] are lists of BENCH_e2e.json files, pooled per
   side: one file per run of a ten-pair alternation, or a single file
   each. *)
let compare ~parent ~change =
  Printf.printf "%-16s %-22s %13s %13s %25s %25s %5s  %s\n" "workload" "metric" "parent" "change"
    "parent q1..q3" "change q1..q3" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (m : end_to_end) ->
          let workload = w.Workloads.name and metric = m.name in
          match (pooled parent ~workload ~metric, pooled change ~workload ~metric) with
          | [], _ | _, [] -> ()
          | p, c ->
            let p = side p and c = side c in
            let v = verdict m p c in
            if v = "worse" then incr worse;
            Printf.printf "%-16s %-22s %13.6g %13.6g %12.6g..%-12.6g %12.6g..%-12.6g %5.2f  %s\n"
              workload metric p.median c.median p.q1 p.q3 c.q1 c.q3 m.bound v)
        end_to_end)
    Workloads.all;
  !worse
