(* Offline layer replays: the traced run's captured uploads, and
   sessions drawn from the workload's pod config, pushed through one
   layer at a time with nothing else running.  Each metric is ns per
   operation over one pass.  Every replay is also checked: encodings
   round-trip, and the tree-walk and bytecode engines agree. *)

module Platform = Softborg.Platform
module Rng = Softborg_util.Rng
module Bitvec = Softborg_util.Bitvec
module Ir = Softborg_prog.Ir
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Engine = Softborg_exec.Engine
module Interp = Softborg_exec.Interp
module Bytecode = Softborg_exec.Bytecode
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Exec_tree = Softborg_tree.Exec_tree
module Protocol = Softborg_hive.Protocol
module Knowledge = Softborg_hive.Knowledge
module Fixgen = Softborg_hive.Fixgen
module Pod = Softborg_pod.Pod
module Workload = Softborg_pod.Workload

(* ns per element of one timed pass of [f] over [xs]. *)
let per_op f xs =
  let n = Array.length xs in
  let t0 = Traced.now_ns () in
  let out = Array.map f xs in
  let ns = float_of_int (Traced.now_ns () - t0) /. float_of_int (max 1 n) in
  (out, ns)

let decode_upload payload =
  match Protocol.decode payload with
  | Ok (Protocol.Trace_upload inner) -> Result.to_option (Wire.decode inner)
  | Ok _ | Error _ -> None

(* Mirrors the hive's replay hooks: an attributed trace names its
   active fix set, an unattributed one gets the epoch's. *)
let replay_hooks k (trace : Trace.t) =
  match trace.Trace.attribution with
  | Some a -> Fixgen.runtime_hooks_for_ids ~ids:a.Trace.active_fixes (Knowledge.fixes k)
  | None -> Knowledge.hooks_for_epoch k trace.Trace.fix_epoch

type outcome = { metrics : (string * float) list; errors : string list }

let run (config : Platform.config) ~captured ~knowledge ~sessions =
  let errors = ref [] in
  let check ok what = if not ok then errors := what :: !errors in
  let traces = Array.of_list (List.filter_map decode_upload captured) in
  check (Array.length traces > 0) "no uploads captured";
  (* Wire: single frames, or batch records against a per-program
     basis (the first captured trace of the program with branch bits,
     as the hive would announce). *)
  let batched = config.Platform.pod_config.Pod.upload_batch > 1 in
  let bases = Hashtbl.create 8 in
  Array.iter
    (fun (t : Trace.t) ->
      if Bitvec.length t.Trace.bits > 0 && not (Hashtbl.mem bases t.Trace.program_digest) then
        Hashtbl.replace bases t.Trace.program_digest t)
    traces;
  let basis (t : Trace.t) = Hashtbl.find_opt bases t.Trace.program_digest in
  let encode (t : Trace.t) =
    if batched then Wire.encode_record ?basis:(basis t) t else Wire.encode t
  in
  let blobs, encode_ns = per_op encode traces in
  let decode_at i =
    let t = traces.(i) in
    if batched then
      Wire.decode_record ?basis:(basis t) ~program_digest:t.Trace.program_digest blobs.(i)
    else Wire.decode blobs.(i)
  in
  let decoded, decode_ns = per_op decode_at (Array.init (Array.length traces) Fun.id) in
  check
    (Array.for_all2
       (fun t d -> match d with Ok d -> Trace.equal t d | Error _ -> false)
       traces decoded)
    "wire round trip changed a trace";
  (* Replay, as the hive does on ingest, on both engines. *)
  let by_digest = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace by_digest (Knowledge.digest k) k) knowledge;
  let jobs =
    Array.to_list traces
    |> List.filter_map (fun (t : Trace.t) ->
           match Hashtbl.find_opt by_digest t.Trace.program_digest with
           | Some k when not (t.Trace.steps = 0 && t.Trace.n_decisions = 0) ->
             Some (Knowledge.program k, replay_hooks k t, t)
           | Some _ | None -> None)
    |> Array.of_list
  in
  let cache = Bytecode.create_cache () in
  let reconstruct engine (program, hooks, (t : Trace.t)) =
    Engine.reconstruct ~hooks ~cache ~engine ~program ~bits:t.Trace.bits
      ~schedule:t.Trace.schedule ~total_decisions:t.Trace.n_decisions
      ~total_steps:t.Trace.steps ()
  in
  (* Compile every program before timing the VM. *)
  Array.iter (fun (program, _, _) -> ignore (Bytecode.find_or_compile cache program)) jobs;
  let by_tree, replay_tree_ns = per_op (reconstruct Engine.Tree) jobs in
  let by_vm, replay_vm_ns = per_op (reconstruct Engine.Vm) jobs in
  check (by_tree = by_vm) "tree and vm replays disagree";
  (* Tree merge of the replayed paths into fresh per-program trees. *)
  let trees = Hashtbl.create 8 in
  let merges =
    Array.to_list (Array.map2 (fun (_, _, t) r -> (t, r)) jobs by_tree)
    |> List.filter_map (fun ((t : Trace.t), r) ->
           match r with
           | Ok (r : Interp.reconstruction) ->
             let tree =
               match Hashtbl.find_opt trees t.Trace.program_digest with
               | Some tree -> tree
               | None ->
                 let tree = Exec_tree.create () in
                 Hashtbl.replace trees t.Trace.program_digest tree;
                 tree
             in
             Some (tree, r.Interp.decisions, t.Trace.outcome)
           | Error _ -> None)
    |> Array.of_list
  in
  check (Array.length merges > 0) "no trace replayed";
  let _, add_path_ns =
    per_op
      (fun (tree, decisions, outcome) -> ignore (Exec_tree.add_path tree decisions outcome))
      merges
  in
  (* Pod execution of fresh sessions (no fixes deployed yet). *)
  let pod = config.Platform.pod_config in
  let programs = Array.of_list config.Platform.programs in
  let rng = Rng.create config.Platform.seed in
  let fault_plan =
    if pod.Pod.fault_probability > 0.0 then Env.Random_faults pod.Pod.fault_probability
    else Env.No_faults
  in
  let drawn =
    Array.init sessions (fun i ->
        let program = programs.(i mod Array.length programs) in
        let inputs = Workload.draw rng pod.Pod.workload ~n_inputs:program.Ir.n_inputs in
        (program, inputs, Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  let setups () =
    Array.map
      (fun (program, inputs, env_seed, sched_seed) ->
        ( program,
          Env.make ~fault_plan ~seed:env_seed ~inputs (),
          Sched.Random_sched (Rng.create sched_seed) ))
      drawn
  in
  let execute engine (program, env, sched) =
    let r = Engine.run ~max_steps:pod.Pod.max_steps ~cache ~engine ~program ~env ~sched () in
    (r.Interp.outcome, r.Interp.steps)
  in
  let on_tree, exec_tree_ns = per_op (execute Engine.Tree) (setups ()) in
  let on_vm, exec_vm_ns = per_op (execute Engine.Vm) (setups ()) in
  check (on_tree = on_vm) "tree and vm executions disagree";
  {
    metrics =
      [
        ("wire.encode.ns", encode_ns);
        ("wire.decode.ns", decode_ns);
        ("replay.tree.ns", replay_tree_ns);
        ("replay.vm.ns", replay_vm_ns);
        ("tree.add_path.ns", add_path_ns);
        ("exec.vm.ns", exec_vm_ns);
        ("exec.tree.ns", exec_tree_ns);
      ];
    errors = List.rev !errors;
  }
