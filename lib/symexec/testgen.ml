module Ir = Softborg_prog.Ir
module Env = Softborg_exec.Env
module Interp = Softborg_exec.Interp
module Sched = Softborg_exec.Sched
module Vm = Softborg_exec.Vm
module Codec = Softborg_util.Codec

type test_case = {
  inputs : int array;
  fault_plan : Env.fault_plan;
}

let write_test_case w { inputs; fault_plan } =
  Codec.Writer.list w (Codec.Writer.zigzag w) (Array.to_list inputs);
  match fault_plan with
  | Env.No_faults -> Codec.Writer.byte w 0
  | Env.Random_faults p ->
    Codec.Writer.byte w 1;
    Codec.Writer.float w p
  | Env.Targeted indices ->
    Codec.Writer.byte w 2;
    Codec.Writer.list w (Codec.Writer.varint w) indices

let read_test_case r =
  let inputs = Array.of_list (Codec.Reader.list r Codec.Reader.zigzag) in
  let fault_plan =
    match Codec.Reader.byte r with
    | 0 -> Env.No_faults
    | 1 -> Env.Random_faults (Codec.Reader.float r)
    | 2 -> Env.Targeted (Codec.Reader.list r Codec.Reader.varint)
    | n -> raise (Codec.Malformed (Printf.sprintf "fault plan tag %d" n))
  in
  { inputs; fault_plan }

let of_model ~n_inputs ~model ~origins =
  let inputs = Array.make n_inputs 0 in
  let faults = ref [] in
  Array.iteri
    (fun sym origin ->
      let value = if sym < Array.length model then model.(sym) else 0 in
      match origin with
      | Sym_exec.From_input i -> if i < n_inputs then inputs.(i) <- value
      | Sym_exec.From_syscall { occurrence; _ } ->
        if value < 0 then faults := occurrence :: !faults
      | Sym_exec.From_global _ -> ())
    origins;
  let fault_plan =
    match List.sort_uniq Int.compare !faults with
    | [] -> Env.No_faults
    | indices -> Env.Targeted indices
  in
  { inputs; fault_plan }

(* Env seeds (syscall results) under which a locally found test must
   take its direction before it is kept. *)
let validation_seeds = [ 1; 2; 3; 4 ]

(* Whether [test] drives the VM through (site, direction) under
   round-robin, the schedule a pod runs a guidance test under, at
   every validation seed. *)
let takes_direction program test ~site ~direction =
  List.for_all
    (fun seed ->
      let env = Env.make ~fault_plan:test.fault_plan ~seed ~inputs:test.inputs () in
      let result = Vm.execute ~program ~env ~sched:Sched.Round_robin () in
      List.exists
        (fun (s, d) -> d = direction && Ir.site_equal s site)
        result.Interp.full_path)
    validation_seeds

(* Paths the local search may emit before it leaves the direction to
   the strict query.  The directions it answers it answers within the
   first few paths; the ones it cannot answer would otherwise spend
   the caller's whole budget (96 paths at the hive's config) finding
   nothing before the strict query runs anyway. *)
let local_max_paths = 16

(* The directed search at [Local] consistency, for multi-threaded
   programs: only the site's thread runs, so other threads'
   interleavings drop out of the search.  Its model may hold only
   under havoc, so it counts only once a concrete run confirms it. *)
let local_test ?config ?cache program ~site ~direction =
  if Array.length program.Ir.threads <= 1 then None
  else
    let config = Option.value ~default:Sym_exec.default_config config in
    let config =
      { config with Sym_exec.max_paths = min config.Sym_exec.max_paths local_max_paths }
    in
    match
      Sym_exec.direction_feasible ~config ?cache
        ~level:(Consistency.Local { thread = site.Ir.thread })
        program ~site ~direction
    with
    | Sym_exec.Feasible { model; origins } ->
      let test = of_model ~n_inputs:program.Ir.n_inputs ~model ~origins in
      if takes_direction program test ~site ~direction then Some test else None
    | Sym_exec.Infeasible | Sym_exec.Unknown -> None

let for_direction ?config ?cache program ~site ~direction =
  match local_test ?config ?cache program ~site ~direction with
  | Some test -> `Test test
  | None -> (
    match Sym_exec.direction_feasible ?config ?cache program ~site ~direction with
    | Sym_exec.Feasible { model; origins } ->
      `Test (of_model ~n_inputs:program.Ir.n_inputs ~model ~origins)
    | Sym_exec.Infeasible -> `Infeasible
    | Sym_exec.Unknown -> `Unknown)
