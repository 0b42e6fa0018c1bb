(* bench e2e: whole [Platform.run] loops on four workloads, timed end
   to end, with a per-layer trace taken from outside.  See README.md.

   e2e.exe [--seed S] [--rounds N] [--workload W]... [--out FILE]
     Full run: every round runs each workload once, each run in its own
     forked child; then one traced run per workload.  Prints every
     metric and writes BENCH_e2e.json.
   e2e.exe --workload W --seed S --seconds T --trace 0|1
     One workload for about T seconds.  The last line of output is one
     JSON object: end-to-end metrics with --trace 0, per-layer metrics
     with --trace 1.
   e2e.exe compare PARENT.json[,...] CHANGE.json[,...]
     One verdict per (workload, end-to-end metric), each side's values
     pooled over its files; exits 1 on "worse".
   e2e.exe smoke BENCHMARK.json
     All workloads at 1/10 duration, with the smoke assertions.

   Every mode exits non-zero on a correctness failure. *)

module Platform = Softborg.Platform
module Hive = Softborg_hive.Hive
module Pod = Softborg_pod.Pod

(* ---- Set-up ------------------------------------------------------------- *)

(* Set-up is building one config per fleet seed — program generation
   included — in the parent, before the first fork.  It takes well
   under a millisecond, so it is timed in batches of [setup_repeats]
   and summarised by [Report.median_of_means]. *)
let setup_repeats = 101

let set_up (w : Workloads.t) ~seed ~scale =
  let samples =
    List.init setup_repeats (fun _ ->
        let t0 = Traced.now_ns () in
        ignore (Sys.opaque_identity (Workloads.configs w ~seed ~scale));
        float_of_int (Traced.now_ns () - t0) /. 1e9)
  in
  (Workloads.configs w ~seed ~scale, samples)

let pool_size (config : Platform.config) = config.Platform.hive_config.Hive.pool_size

(* ---- The traced child --------------------------------------------------- *)

type traced = {
  t_fingerprint : Measure.fingerprint;
  t_wall_s : float;
  t_metrics : (string * float) list;
  t_errors : string list;
}

(* The traced run, then the offline replays of what it captured, with
   [exec_sessions] fresh sessions for the execution replays. *)
let traced_child config ~exec_sessions () =
  let r = Traced.run config in
  let off =
    Offline.run config ~captured:r.Traced.captured ~knowledge:r.Traced.knowledge
      ~sessions:exec_sessions
  in
  let wall = float_of_int r.Traced.wall_ns in
  let l = r.Traced.layers in
  let open Traced in
  let share (s : Spans.t) = float_of_int s.Spans.total /. wall in
  let pct p ~unit_ns (s : Spans.t) = Spans.percentile s p /. unit_ns in
  let count (s : Spans.t) = float_of_int s.Spans.count in
  let fp = r.fingerprint in
  let sessions_total = float_of_int (max 1 (fp.Measure.sessions + fp.Measure.guided_runs)) in
  let spans = [ l.receive; l.tick; l.shard_tick; l.superstep; l.checkpoint; l.restore ] in
  let covered =
    List.fold_left (fun acc (s : Spans.t) -> acc + s.Spans.total) r.pods_net_ns spans
  in
  if r.gc_events_lost > 0 then
    Printf.eprintf "warning: %d runtime events lost; gc.pause.share is a lower bound\n%!"
      r.gc_events_lost;
  {
    t_fingerprint = fp;
    t_wall_s = wall /. 1e9;
    t_metrics =
      [
        ("hive.tick.share", share l.tick);
        ("hive.tick.ms_p50", pct 50.0 ~unit_ns:1e6 l.tick);
        ("hive.tick.ms_max", pct 100.0 ~unit_ns:1e6 l.tick);
        ("hive.tick.count", count l.tick);
        ("hive.receive.share", share l.receive);
        ("hive.receive.ns_p50", pct 50.0 ~unit_ns:1.0 l.receive);
        ("hive.receive.ns_p99", pct 99.0 ~unit_ns:1.0 l.receive);
        ("hive.receive.count", count l.receive);
        ("pods_net.share", float_of_int r.pods_net_ns /. wall);
        ("pods_net.ns_per_session", float_of_int r.pods_net_ns /. sessions_total);
        ("sim.events", float_of_int r.sim_events);
        ("fed.superstep.share", share l.superstep);
        ("fed.superstep.ms_p50", pct 50.0 ~unit_ns:1e6 l.superstep);
        ("fed.shard_tick.share", share l.shard_tick);
        ("hive.checkpoint.ms_p50", pct 50.0 ~unit_ns:1e6 l.checkpoint);
        ( "hive.checkpoint.bytes",
          match l.checkpoint_bytes with
          | [] -> 0.0
          | bytes -> Report.median (List.map float_of_int bytes) );
        ("hive.checkpoint.count", count l.checkpoint);
        ("hive.restore.ms_p50", pct 50.0 ~unit_ns:1e6 l.restore);
        ("hive.restore.count", count l.restore);
        ("gc.pause.share", float_of_int r.gc_pause_ns /. wall);
        ("trace.covered", float_of_int covered /. wall);
      ]
      @ off.Offline.metrics;
    t_errors = off.Offline.errors;
  }

let run_traced config ~exec_sessions = Measure.in_child (traced_child config ~exec_sessions)

(* ---- One workload's results --------------------------------------------- *)

(* A measured repetition on the [fleet]-th fleet seed. *)
type rep = { fleet : int; run : Measure.run }

type outcome = {
  setups : float list list;  (** Batches of set-up samples. *)
  reps : rep list;
  traced : traced option;  (** On fleet seed 0, like the twin. *)
  twin : Measure.run option;  (** The pool-1 twin of a pool > 1 workload. *)
}

let runs o = List.map (fun r -> r.run) o.reps
let runs_on fleet o = List.filter_map (fun r -> if r.fleet = fleet then Some r.run else None) o.reps
let median_wall runs = Report.median (List.map (fun r -> r.Measure.wall_s) runs)

(* Medians over every repetition, whatever its fleet seed: a run cycles
   through the fleet seeds evenly. *)
let end_to_end o =
  ("setup_s", Report.median_of_means o.setups)
  :: Report.medians (List.map (fun r -> r.Measure.end_to_end) (runs o))

(* Per-layer metrics in table order: the traced run's spans and replays,
   the measured runs' counters, and the comparisons of the traced run
   and the twin with the measured runs on the same fleet seed. *)
let per_layer o (t : traced) =
  let same_seed = runs_on 0 o in
  let untraced = median_wall same_seed in
  let derived =
    [
      ( "pool.speedup",
        match o.twin with Some twin -> twin.Measure.wall_s /. untraced | None -> 1.0 );
      ("trace.overhead", (t.t_wall_s /. untraced) -. 1.0);
      ( "trace.faithful",
        if t.t_fingerprint = (List.hd same_seed).Measure.fingerprint then 1.0 else 0.0 );
    ]
  in
  let counts = Report.medians (List.map (fun r -> r.Measure.per_layer) (runs o)) in
  let all = t.t_metrics @ counts @ derived in
  List.map (fun (name, _, _) -> (name, List.assoc name all)) Report.per_layer

(* Everything that makes a workload's results wrong, not just slow. *)
let errors name o =
  let err fmt = Printf.ksprintf (fun s -> Some (Printf.sprintf "%s: %s" name s)) fmt in
  let fleets = List.sort_uniq compare (List.map (fun r -> r.fleet) o.reps) in
  let per_fleet =
    List.concat_map
      (fun fleet ->
        let fps = List.map (fun r -> r.Measure.fingerprint) (runs_on fleet o) in
        let fp = List.hd fps in
        List.filter_map Fun.id
          [
            (if List.for_all (( = ) fp) fps then None
             else err "repetitions on fleet seed %d differ in fingerprint" fleet);
            (if fp.Measure.traces_received > 0 && fp.Measure.fixes > 0 then None
             else err "no traces received or no fix deployed on fleet seed %d" fleet);
          ])
      fleets
  in
  let fp = (List.hd (runs_on 0 o)).Measure.fingerprint in
  per_fleet
  @ List.filter_map Fun.id
      [
        (match o.traced with
        | Some t when t.t_fingerprint <> fp -> err "traced run is not faithful"
        | _ -> None);
        (match o.twin with
        | Some twin
          when twin.Measure.fingerprint.Measure.knowledge_digest <> fp.Measure.knowledge_digest ->
          err "pool-1 twin's knowledge differs"
        | _ -> None);
      ]
  @
  match o.traced with
  | Some t -> List.map (fun e -> Printf.sprintf "%s: %s" name e) t.t_errors
  | None -> []

let print_fingerprint name (fp : Measure.fingerprint) =
  Printf.printf
    "%s: sessions=%d guided=%d failures=%d fixes=%d traces=%d wire-bytes=%d knowledge=%s\n" name
    fp.Measure.sessions fp.Measure.guided_runs fp.Measure.failures fp.Measure.fixes
    fp.Measure.traces_received fp.Measure.wire_bytes fp.Measure.knowledge_digest

let twin_of configs =
  let config = List.hd configs in
  if pool_size config > 1 then Some (Measure.run (Workloads.with_pool 1 config)) else None

(* ---- One workload for the harness --------------------------------------- *)

(* One cycle over the fleet seeds, then more repetitions, continuing
   the cycle, until the next one would overrun [seconds].  A set-up
   batch follows every repetition (see [Report.median_of_means]). *)
let timed_run ~seed ~seconds ~trace (w : Workloads.t) =
  let start = Unix.gettimeofday () in
  let configs, samples = set_up w ~seed ~scale:1.0 in
  let setups = ref [ samples ] in
  let rep fleet =
    let run = Measure.run (List.nth configs fleet) in
    setups := snd (set_up w ~seed ~scale:1.0) :: !setups;
    { fleet; run }
  in
  let first = List.init Workloads.fleet_seeds rep in
  let per_rep = (Unix.gettimeofday () -. start) /. float_of_int Workloads.fleet_seeds in
  (* The traced run and the twin follow the first cycle, so drift on a
     shared machine falls on both sides of [trace.overhead]. *)
  let traced = if trace then Some (run_traced (List.hd configs) ~exec_sessions:5000) else None in
  let twin = if trace then twin_of configs else None in
  let rec more reps n =
    if Unix.gettimeofday () -. start +. per_rep > seconds then List.rev reps
    else more (rep (n mod Workloads.fleet_seeds) :: reps) (n + 1)
  in
  let reps = more (List.rev first) Workloads.fleet_seeds in
  let setups = !setups in
  let o = { setups; reps; traced; twin } in
  let errs = errors w.Workloads.name o in
  let metrics = match traced with Some t -> per_layer o t | None -> end_to_end o in
  List.iter (fun r -> print_fingerprint w.Workloads.name r.run.Measure.fingerprint) first;
  List.iter Report.print_metric metrics;
  List.iter prerr_endline errs;
  let attempted =
    List.length reps + (if traced = None then 0 else 1) + if twin = None then 0 else 1
  in
  print_endline
    (Report.result_line ~correct:(errs = []) ~attempted ~failed:(min attempted (List.length errs))
       metrics);
  if errs = [] then 0 else 1

(* ---- Full run ----------------------------------------------------------- *)

let cores () = Domain.recommended_domain_count ()

let config_json (config : Platform.config) =
  Json.Obj
    [
      ("programs", Json.Num (float_of_int (List.length config.Platform.programs)));
      ("pods", Json.Num (float_of_int config.Platform.n_pods));
      ("duration_s", Json.Num config.Platform.duration);
      ("shards", Json.Num (float_of_int config.Platform.n_shards));
      ("pool", Json.Num (float_of_int (pool_size config)));
      ("upload_batch", Json.Num (float_of_int config.Platform.pod_config.Pod.upload_batch));
      ("overload", Json.Bool (config.Platform.hive_config.Hive.overload <> None));
      ("chaos", Json.Bool (config.Platform.chaos <> None));
    ]

let fingerprint_json (fp : Measure.fingerprint) =
  let n x = Json.Num (float_of_int x) in
  Json.Obj
    [
      ("sessions", n fp.Measure.sessions);
      ("guided_runs", n fp.Measure.guided_runs);
      ("failures", n fp.Measure.failures);
      ("fixes", n fp.Measure.fixes);
      ("traces_received", n fp.Measure.traces_received);
      ("wire_bytes", n fp.Measure.wire_bytes);
      ("knowledge_digest", Json.Str fp.Measure.knowledge_digest);
    ]

(* Set-up's values are its per-round batch medians, so it gets a spread
   like the other end-to-end metrics. *)
let workload_json (w : Workloads.t) configs o =
  let values name =
    if name = "setup_s" then List.map Report.median o.setups
    else List.map (fun r -> List.assoc name r.Measure.end_to_end) (runs o)
  in
  Json.Obj
    [
      ("name", Json.Str w.Workloads.name);
      ("why", Json.Str w.Workloads.why);
      ("config", config_json (List.hd configs));
      ( "fleet_seeds",
        Json.Arr
          (List.map (fun (c : Platform.config) -> Json.Num (float_of_int c.Platform.seed)) configs)
      );
      ( "fingerprints",
        Json.Arr
          (List.sort_uniq compare (List.map (fun r -> (r.fleet, r.run.Measure.fingerprint)) o.reps)
          |> List.map (fun (_, fp) -> fingerprint_json fp)) );
      ( "end_to_end",
        Json.Obj
          (List.map
             (fun (m : Report.end_to_end) ->
               (m.Report.name, Report.summary_json m (values m.Report.name)))
             Report.end_to_end) );
      ( "per_layer",
        match o.traced with
        | Some t -> Report.metric_json (per_layer o t)
        | None -> Json.Obj [] );
    ]

(* Round [r] runs every workload once, on fleet seed [r mod 4]. *)
let full ~seed ~rounds ~workloads ~out =
  let set = List.map (fun w -> (w, fst (set_up w ~seed ~scale:1.0))) workloads in
  let setups = Hashtbl.create 4 and reps = Hashtbl.create 4 in
  let push table name x =
    Hashtbl.replace table name (x :: Option.value ~default:[] (Hashtbl.find_opt table name))
  in
  for round = 0 to rounds - 1 do
    let fleet = round mod Workloads.fleet_seeds in
    List.iter
      (fun ((w : Workloads.t), configs) ->
        let name = w.Workloads.name in
        push setups name (snd (set_up w ~seed ~scale:1.0));
        let run = Measure.run (List.nth configs fleet) in
        Printf.printf "round %d/%d %-16s fleet seed %d: %.3f s\n%!" (round + 1) rounds name
          (List.nth configs fleet).Platform.seed run.Measure.wall_s;
        push reps name { fleet; run })
      set
  done;
  let results =
    List.map
      (fun ((w : Workloads.t), configs) ->
        let name = w.Workloads.name in
        let o =
          {
            setups = List.rev (Hashtbl.find setups name);
            reps = List.rev (Hashtbl.find reps name);
            traced = Some (run_traced (List.hd configs) ~exec_sessions:5000);
            twin = twin_of configs;
          }
        in
        (w, configs, o))
      set
  in
  Printf.printf "\ncores=%d seed=%d rounds=%d population_seed=%d\n" (cores ()) seed rounds
    Workloads.population_seed;
  let errs =
    List.concat_map
      (fun ((w : Workloads.t), _, o) ->
        Printf.printf "\n== %s\n" w.Workloads.name;
        print_fingerprint w.Workloads.name (List.hd (runs_on 0 o)).Measure.fingerprint;
        print_endline " end-to-end (median over rounds)";
        List.iter Report.print_metric (end_to_end o);
        print_endline " per-layer";
        Option.iter (fun t -> List.iter Report.print_metric (per_layer o t)) o.traced;
        errors w.Workloads.name o)
      results
  in
  let json =
    Json.Obj
      [
        ("suite", Json.Str "e2e");
        ("cores", Json.Num (float_of_int (cores ())));
        ("seed", Json.Num (float_of_int seed));
        ("population_seed", Json.Num (float_of_int Workloads.population_seed));
        ("rounds", Json.Num (float_of_int rounds));
        ("correct", Json.Bool (errs = []));
        ( "workloads",
          Json.Arr (List.map (fun (w, configs, o) -> workload_json w configs o) results) );
      ]
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Json.to_string ~pretty:true json ^ "\n"));
  Printf.printf "\nwrote %s\n" out;
  List.iter prerr_endline errs;
  if errs = [] then 0 else 1

(* ---- Smoke -------------------------------------------------------------- *)

(* Every workload at 1/10 duration: one repetition and the traced run
   on fleet seed 0 (their fingerprints must agree), the trace covering
   >= 90% of its wall time, and BENCHMARK.json agreeing with the metric
   and workload tables, every metric it names printed. *)
let smoke ~benchmark =
  let spec = Json.of_file benchmark in
  let produced = ref [] in
  let errs =
    List.concat_map
      (fun (w : Workloads.t) ->
        let start = Unix.gettimeofday () in
        let configs, samples = set_up w ~seed:42 ~scale:0.1 in
        let config = List.hd configs in
        let reps = [ { fleet = 0; run = Measure.run config } ] in
        let traced = run_traced config ~exec_sessions:300 in
        let o = { setups = [ samples ]; reps; traced = Some traced; twin = None } in
        let layer = per_layer o traced in
        produced := List.map fst (end_to_end o @ layer) @ !produced;
        let covered = List.assoc "trace.covered" layer in
        Printf.printf "e2e-smoke %-16s covered=%.3f overhead=%+.3f in %.1f s\n%!" w.Workloads.name
          covered (List.assoc "trace.overhead" layer)
          (Unix.gettimeofday () -. start);
        errors w.Workloads.name o
        @ if covered >= 0.9 then [] else [ w.Workloads.name ^ ": trace.covered below 0.9" ])
      Workloads.all
  in
  let errs = errs @ Report.spec_errors spec ~printed:!produced in
  List.iter prerr_endline errs;
  if errs = [] then (print_endline "e2e-smoke: ok"; 0) else 1

(* ---- Command line ------------------------------------------------------- *)

let usage () =
  prerr_string
    "usage: e2e.exe [--seed S] [--rounds N] [--workload W]... [--out FILE]\n\
    \       e2e.exe --workload W --seed S --seconds T --trace 0|1\n\
    \       e2e.exe compare PARENT.json[,...] CHANGE.json[,...]\n\
    \       e2e.exe smoke BENCHMARK.json\n";
  prerr_string
    ("workloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)
    ^ "\n");
  2

let main argv =
  match argv with
  | [ "compare"; parent; change ] ->
    let files s = String.split_on_char ',' s in
    if Report.compare ~parent:(files parent) ~change:(files change) > 0 then 1 else 0
  | [ "smoke"; benchmark ] -> smoke ~benchmark
  | args -> (
    let seed = ref 42 and rounds = ref 8 and out = ref "bench/e2e/BENCH_e2e.json" in
    let workloads = ref [] and seconds = ref None and trace = ref false in
    let rec parse = function
      | [] -> Ok ()
      | "--seed" :: v :: rest -> int_arg seed v rest
      | "--rounds" :: v :: rest -> int_arg rounds v rest
      | "--out" :: v :: rest ->
        out := v;
        parse rest
      | "--workload" :: v :: rest -> (
        match Workloads.find v with
        | Some w ->
          workloads := !workloads @ [ w ];
          parse rest
        | None -> Error ("unknown workload " ^ v))
      | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 ->
          seconds := Some s;
          parse rest
        | _ -> Error ("bad --seconds " ^ v))
      | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
      | arg :: _ -> Error ("unexpected argument " ^ arg)
    and int_arg r v rest =
      match int_of_string_opt v with
      | Some n when n > 0 ->
        r := n;
        parse rest
      | _ -> Error ("bad number " ^ v)
    in
    match (parse args, !seconds, !workloads) with
    | Error msg, _, _ ->
      prerr_endline msg;
      usage ()
    | Ok (), Some seconds, [ w ] -> timed_run ~seed:!seed ~seconds ~trace:!trace w
    | Ok (), Some _, _ ->
      prerr_endline "--seconds takes exactly one --workload";
      usage ()
    | Ok (), None, ws ->
      let workloads = if ws = [] then Workloads.all else ws in
      full ~seed:!seed ~rounds:!rounds ~workloads ~out:!out)

let () = exit (main (List.tl (Array.to_list Sys.argv)))
