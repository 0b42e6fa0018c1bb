module Ir = Softborg_prog.Ir
module Codec = Softborg_util.Codec
module Ir_codec = Softborg_prog.Ir_codec
module Env = Softborg_exec.Env
module Exec_tree = Softborg_tree.Exec_tree
module Sym_exec = Softborg_symexec.Sym_exec
module Testgen = Softborg_symexec.Testgen

type directive =
  | Cover_direction of {
      site : Ir.site;
      direction : bool;
      test : Testgen.test_case;
    }
  | Probe_schedules of {
      inputs : int array;
      seeds : int list;
    }

let pp_directive fmt = function
  | Cover_direction { site; direction; test } ->
    Format.fprintf fmt "cover %a=%c inputs=[%s]%s" Ir.pp_site site
      (if direction then 'T' else 'F')
      (String.concat ";" (Array.to_list (Array.map string_of_int test.Testgen.inputs)))
      (match test.Testgen.fault_plan with
      | Env.Targeted faults ->
        Printf.sprintf " faults=[%s]" (String.concat ";" (List.map string_of_int faults))
      | Env.No_faults | Env.Random_faults _ -> "")
  | Probe_schedules { inputs; seeds } ->
    Format.fprintf fmt "probe-schedules inputs=[%s] seeds=%d"
      (String.concat ";" (Array.to_list (Array.map string_of_int inputs)))
      (List.length seeds)

(* Scheduler seeds for a [Probe_schedules] directive. *)
let schedule_probe_seeds = [ 101; 202; 303; 404 ]

type plan_result = {
  directives : directive list;
  gaps_considered : int;
  gaps_closed_infeasible : int;
  gaps_unknown : int;
}

let plan ?config ?cache ?(max_directives = 8) ?exclude ?memo program tree =
  let multi_threaded = Array.length program.Ir.threads > 1 in
  (* Each gap costs a directed symbolic exploration; bound the total
     work per planning call, not just the directives handed out. *)
  let max_considered = 3 * max_directives in
  (* The first [max_considered] non-excluded gaps, hottest first,
     pulled lazily from the tree's frontier index — the frontier is
     never sorted, and an excluded gap is skipped on its index key
     without its record being built. *)
  let candidates =
    if max_considered <= 0 then []
    else
      let keep =
        Option.map (fun set site direction -> not (Hashtbl.mem set (site, direction))) exclude
      in
      Exec_tree.frontier_seq ?keep tree |> Seq.take max_considered |> List.of_seq
  in
  let directives = ref [] in
  let n_directives = ref 0 in
  let considered = ref 0 in
  let closed = ref 0 in
  let unknown = ref 0 in
  List.iter
    (fun (gap : Exec_tree.gap) ->
      if !n_directives < max_directives && !considered < max_considered then begin
        incr considered;
        (* Cached answers equal recomputed ones, so cache hits change
           no output. *)
        match
          Gap_memo.derive ?memo ?config ?cache program ~site:gap.Exec_tree.site
            ~direction:gap.Exec_tree.missing
        with
        | `Test test ->
          directives :=
            Cover_direction
              { site = gap.Exec_tree.site; direction = gap.Exec_tree.missing; test }
            :: !directives;
          incr n_directives
        | `Infeasible ->
          if
            Exec_tree.mark_infeasible tree ~prefix:gap.Exec_tree.prefix
              ~site:gap.Exec_tree.site ~direction:gap.Exec_tree.missing
          then incr closed
        | `Unknown -> incr unknown
      end)
    candidates;
  (* Rare interleavings "might be hiding bugs": steer some pods toward
     unexplored schedules (paper §3.3). *)
  if multi_threaded && !unknown > 0 && !n_directives < max_directives then
    directives :=
      Probe_schedules
        { inputs = Array.make program.Ir.n_inputs 0; seeds = schedule_probe_seeds }
      :: !directives;
  {
    directives = List.rev !directives;
    gaps_considered = !considered;
    gaps_closed_infeasible = !closed;
    gaps_unknown = !unknown;
  }

(* ---- Wire format ------------------------------------------------------ *)

let write_directive w = function
  | Cover_direction { site; direction; test } ->
    Codec.Writer.byte w 0;
    Ir_codec.write_dir w (site, direction);
    Testgen.write_test_case w test
  | Probe_schedules { inputs; seeds } ->
    Codec.Writer.byte w 1;
    Codec.Writer.list w (Codec.Writer.zigzag w) (Array.to_list inputs);
    Codec.Writer.list w (Codec.Writer.varint w) seeds

let read_directive r =
  match Codec.Reader.byte r with
  | 0 ->
    let site, direction = Ir_codec.read_dir r in
    let test = Testgen.read_test_case r in
    Cover_direction { site; direction; test }
  | 1 ->
    let inputs = Array.of_list (Codec.Reader.list r Codec.Reader.zigzag) in
    let seeds = Codec.Reader.list r Codec.Reader.varint in
    Probe_schedules { inputs; seeds }
  | n -> raise (Codec.Malformed (Printf.sprintf "directive tag %d" n))
