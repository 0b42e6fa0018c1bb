(* The four benchmark workloads: named [Platform.config] builders.

   A workload fixes its program population and its fault plan; the
   fleet seed drives everything the users and the network do — session
   inputs, arrival times, schedules, link loss.  The population is
   [Scenario.buggy_population] over all four bug classes (the default
   mix has no [Deadlock_pair], which would leave the immunity and
   schedule-probing paths cold), generated from [population_seed].
   Seeding the population too would make a run's cost a property of
   which programs were drawn: on [analysis] one run's wall time varies
   3x across population seeds.

   Even with the population fixed, the analysis cost of one run moves
   10-15% with the fleet seed (the first ticks' evidence decides how
   much symbolic work follows), so a benchmark seed [s] stands for
   [fleet_seeds] fleet seeds, [4s .. 4s+3], and a run cycles through
   them.

   Pods are an open loop in simulated time: Poisson arrivals at
   [Pod.default_config.arrival_rate] = 1 session/s per pod, whatever
   the hive's speed.  A snapshot every 30 s (one analysis tick) lets
   the time to first fix resolve to a single tick. *)

module Generator = Softborg_prog.Generator
module Hive = Softborg_hive.Hive
module Platform = Softborg.Platform
module Scenario = Softborg.Scenario

type t = {
  name : string;
  why : string;
  build : seed:int -> scale:float -> Platform.config;
      (** [seed] is a fleet seed; [scale] multiplies the simulated
          duration (the smoke test runs at 1/10). *)
}

let population_seed = 42
let fleet_seeds = 4
let fleet_seed ~seed i = (fleet_seeds * seed) + i

let bugs =
  [ Generator.Rare_assert; Generator.Unchecked_syscall; Generator.Div_by_zero;
    Generator.Deadlock_pair ]

let population ~seed ~n_programs ~n_pods ~duration ~scale =
  let config, _ =
    Scenario.buggy_population ~seed:population_seed ~n_programs ~n_pods ~bugs ()
  in
  { config with Platform.seed; duration = duration *. scale; sample_interval = 30.0 }

let with_pool n (config : Platform.config) =
  { config with Platform.hive_config = { config.Platform.hive_config with Hive.pool_size = n } }

let fleet_ingest ~seed ~scale =
  population ~seed ~n_programs:4 ~n_pods:48 ~duration:900.0 ~scale

let analysis ~seed ~scale =
  population ~seed ~n_programs:8 ~n_pods:8 ~duration:900.0 ~scale |> with_pool 2

let sharded_batched ~seed ~scale =
  fleet_ingest ~seed ~scale |> Scenario.with_shards 4
  |> Scenario.with_fleet_encoding ~batch:16 ~delta:true
  |> Scenario.with_rollout

(* [with_chaos] replaces any plan, so it comes first; the spike's joins
   and leaves are appended to it, at times scaled with the duration.
   The plan keeps [Scenario.with_chaos]'s fixed chaos seed. *)
let overload_chaos ~seed ~scale =
  population ~seed ~n_programs:4 ~n_pods:12 ~duration:1200.0 ~scale
  |> Scenario.with_overload
  |> Scenario.with_chaos ~crash_rate:(1.0 /. 200.0)
  |> Scenario.overload_spike ~spike_pods:48 ~spike_start:(150.0 *. scale)
       ~spike_end:(300.0 *. scale)
  |> Scenario.lossy_network |> Scenario.with_rollout

(* Each [why] is repeated verbatim in BENCHMARK.json (checked by the
   smoke test). *)
let all =
  [
    {
      name = "fleet-ingest";
      why =
        "48 pods on 4 programs for 900 s, one frame per trace, pool 1: pod execution, wire \
         encoding and the hive receive path, little analysis";
      build = fleet_ingest;
    };
    {
      name = "analysis";
      why =
        "8 programs on 8 pods, pool 2: the analysis tick (isolate, fixgen, guidance, prover, \
         solver) and the worker pool on real cores";
      build = analysis;
    };
    {
      name = "sharded-batched";
      why =
        "fleet-ingest over 4 shards with batch/delta frames and canary rollout: the same layers \
         through federation supersteps";
      build = sharded_batched;
    };
    {
      name = "overload-chaos";
      why =
        "12 pods plus a 48-pod spike, overload control, chaos and a lossy network: shedding, \
         thinning, checkpoints, restores";
      build = overload_chaos;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Set-up: one config per fleet seed of benchmark seed [seed]. *)
let configs w ~seed ~scale =
  List.init fleet_seeds (fun i -> w.build ~seed:(fleet_seed ~seed i) ~scale)
