module Ir = Softborg_prog.Ir
module Env = Softborg_exec.Env
module Interp = Softborg_exec.Interp
module Exec_tree = Softborg_tree.Exec_tree
module Sym_exec = Softborg_symexec.Sym_exec
module Schedule_explore = Softborg_conc.Schedule_explore

type property =
  | Assert_safety
  | Deadlock_freedom

type strength =
  | Proved of { domain : int * int }
  | Tested of { executions : int; schedules : int }

type proof = {
  id : int;
  property : property;
  strength : strength;
  epoch : int;
  distinct_paths : int;
  mutable valid : bool;
}

let property_name = function
  | Assert_safety -> "assert-safety"
  | Deadlock_freedom -> "deadlock-freedom"

let strength_name = function
  | Proved _ -> "proved"
  | Tested _ -> "tested"

let pp fmt proof =
  Format.fprintf fmt "proof#%d %s (%s, paths=%d, epoch=%d%s)" proof.id
    (property_name proof.property) (strength_name proof.strength) proof.distinct_paths
    proof.epoch
    (if proof.valid then "" else ", INVALID")

let next_proof_id = ref 0

let make_proof property strength epoch distinct_paths =
  incr next_proof_id;
  { id = !next_proof_id; property; strength; epoch; distinct_paths; valid = true }

(* Gaps one call considers: each costs a directed symbolic
   exploration. *)
let gap_limit = 24

let close_gaps ?config ?cache ?memo program tree =
  let closed = ref 0 in
  (* Only the hottest [gap_limit] gaps are pulled from the index; the
     frontier is never materialized in full. *)
  Exec_tree.frontier_seq tree
  |> Seq.take gap_limit
  |> Seq.iter (fun (gap : Exec_tree.gap) ->
         match
           Gap_memo.derive ?memo ?config ?cache program ~site:gap.Exec_tree.site
             ~direction:gap.Exec_tree.missing
         with
         | `Infeasible ->
           if
             Exec_tree.mark_infeasible tree ~prefix:gap.Exec_tree.prefix
               ~site:gap.Exec_tree.site ~direction:gap.Exec_tree.missing
           then incr closed
         | `Test _ | `Unknown -> ());
  !closed

(* A path leaves the proof standing only if it solved [`Unsat], or
   [`Sat] and completed or deadlocked: a timeout leaves it undecided,
   a feasible crash is a counterexample and a feasible step-limit path
   never finished. *)
let rules_out_proof (p : Sym_exec.path) =
  match (p.Sym_exec.solver_verdict, p.Sym_exec.outcome) with
  | (`Timeout | `Unsolved), _ -> true
  | `Sat, (Sym_exec.Crashed _ | Sym_exec.Step_limit) -> true
  | `Sat, (Sym_exec.Completed | Sym_exec.Path_deadlock) | `Unsat, _ -> false

let attempt_assert_safety ?config ?cache ~program ~tree ~crash_observations ~epoch () =
  if crash_observations > 0 then None
  else begin
    let cfg = Option.value ~default:Sym_exec.default_config config in
    let single_threaded = Array.length program.Ir.threads <= 1 in
    if single_threaded then begin
      let report =
        Sym_exec.explore
          ~config:{ cfg with Sym_exec.solve_models = false }
          ?cache program Softborg_symexec.Consistency.Strict
      in
      (* A truncated exploration proves nothing whatever its verdicts
         say, so its paths stay unsolved.  Otherwise the paths are
         solved in emission order up to the first that rules the proof
         out. *)
      let proved =
        (not report.Sym_exec.truncated)
        && not
             (List.exists
                (fun p -> rules_out_proof (Sym_exec.solve_path ~config:cfg ?cache p))
                report.Sym_exec.paths)
      in
      if proved then
        Some
          (make_proof Assert_safety
             (Proved { domain = cfg.Sym_exec.domain })
             epoch
             (Exec_tree.n_distinct_paths tree))
      else if Exec_tree.n_executions tree > 0 then
        Some
          (make_proof Assert_safety
             (Tested { executions = Exec_tree.n_executions tree; schedules = 1 })
             epoch
             (Exec_tree.n_distinct_paths tree))
      else None
    end
    else if Exec_tree.n_executions tree > 0 then
      Some
        (make_proof Assert_safety
           (Tested { executions = Exec_tree.n_executions tree; schedules = 0 })
           epoch
           (Exec_tree.n_distinct_paths tree))
    else None
  end

let attempt_deadlock_freedom ?(max_runs = 100) ~program ~tree ~deadlock_observations
    ~lock_cycles ~make_env ~hooks ~epoch () =
  if deadlock_observations > 0 || lock_cycles <> [] then None
  else begin
    let takes_locks = Ir.lock_sites program <> [] in
    let single_threaded = Array.length program.Ir.threads <= 1 in
    if (not takes_locks) || single_threaded then
      (* A single thread can still self-deadlock by re-acquiring; but
         that is a lock-order self-cycle, excluded above only if
         observed.  Conservatively require no locks for Proved when
         single-threaded-with-locks hasn't been explored. *)
      if not takes_locks then
        Some
          (make_proof Deadlock_freedom
             (Proved { domain = Sym_exec.default_config.Sym_exec.domain })
             epoch
             (Exec_tree.n_distinct_paths tree))
      else
        Some
          (make_proof Deadlock_freedom
             (Tested { executions = Exec_tree.n_executions tree; schedules = 1 })
             epoch
             (Exec_tree.n_distinct_paths tree))
    else begin
      let result = Schedule_explore.explore ~max_runs ~hooks ~program ~make_env () in
      let deadlocked =
        List.exists
          (fun (o, _) ->
            match o with Softborg_exec.Outcome.Deadlock _ -> true | _ -> false)
          result.Schedule_explore.outcomes
      in
      if deadlocked then None
      else
        Some
          (make_proof Deadlock_freedom
             (Tested
                {
                  executions = Exec_tree.n_executions tree;
                  schedules = result.Schedule_explore.distinct_schedules;
                })
             epoch
             (Exec_tree.n_distinct_paths tree))
    end
  end

let invalidate proofs ~current_epoch =
  List.fold_left
    (fun acc proof ->
      if proof.valid && proof.epoch < current_epoch then begin
        proof.valid <- false;
        acc + 1
      end
      else acc)
    0 proofs

module Codec = Softborg_util.Codec

(* The id is a process-local ticket (like the replay-cache hit count):
   a hive that restores a checkpoint and re-derives the same proofs
   mints different ids, and checkpoint bytes must stay a pure function
   of the evidence.  So it is not serialized; readers mint a fresh
   one. *)
let write_proof w proof =
  Codec.Writer.byte w (match proof.property with Assert_safety -> 0 | Deadlock_freedom -> 1);
  (match proof.strength with
  | Proved { domain = lo, hi } ->
    Codec.Writer.byte w 0;
    Codec.Writer.zigzag w lo;
    Codec.Writer.zigzag w hi
  | Tested { executions; schedules } ->
    Codec.Writer.byte w 1;
    Codec.Writer.varint w executions;
    Codec.Writer.varint w schedules);
  Codec.Writer.varint w proof.epoch;
  Codec.Writer.varint w proof.distinct_paths;
  Codec.Writer.bool w proof.valid

let read_proof r =
  let property =
    match Codec.Reader.byte r with
    | 0 -> Assert_safety
    | 1 -> Deadlock_freedom
    | n -> raise (Codec.Malformed (Printf.sprintf "proof property tag %d" n))
  in
  let strength =
    match Codec.Reader.byte r with
    | 0 ->
      let lo = Codec.Reader.zigzag r in
      let hi = Codec.Reader.zigzag r in
      Proved { domain = (lo, hi) }
    | 1 ->
      let executions = Codec.Reader.varint r in
      let schedules = Codec.Reader.varint r in
      Tested { executions; schedules }
    | n -> raise (Codec.Malformed (Printf.sprintf "proof strength tag %d" n))
  in
  let epoch = Codec.Reader.varint r in
  let distinct_paths = Codec.Reader.varint r in
  let valid = Codec.Reader.bool r in
  incr next_proof_id;
  { id = !next_proof_id; property; strength; epoch; distinct_paths; valid }
