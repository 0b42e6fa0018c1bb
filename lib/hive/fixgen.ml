module Ir = Softborg_prog.Ir
module Ir_codec = Softborg_prog.Ir_codec
module Corpus_bench = Softborg_corpus.Corpus_bench
module Outcome = Softborg_exec.Outcome
module Path_cond = Softborg_solver.Path_cond
module Codec = Softborg_util.Codec
module Sym_exec = Softborg_symexec.Sym_exec
module Consistency = Softborg_symexec.Consistency

type kind =
  | Deadlock_immunity of int list
  | Input_guard of {
      bucket : string;
      condition : Path_cond.t;
      site : Ir.site;
      crash_kind : Outcome.crash_kind;
    }
  | Crash_suppression of { bucket : string; site : Ir.site; crash_kind : Outcome.crash_kind }
  | Patch_candidate of { bucket : string; site : Ir.site; description : string }

type fix = {
  id : int;
  epoch : int;
  kind : kind;
}

let is_deployable fix =
  match fix.kind with
  | Deadlock_immunity _ | Input_guard _ | Crash_suppression _ -> true
  | Patch_candidate _ -> false

let kind_name = function
  | Deadlock_immunity _ -> "deadlock-immunity"
  | Input_guard _ -> "input-guard"
  | Crash_suppression _ -> "crash-suppression"
  | Patch_candidate _ -> "patch-candidate"

let pp fmt fix =
  match fix.kind with
  | Deadlock_immunity locks ->
    Format.fprintf fmt "fix#%d@e%d immunity{%s}" fix.id fix.epoch
      (String.concat "," (List.map string_of_int locks))
  | Input_guard { bucket; condition; _ } ->
    Format.fprintf fmt "fix#%d@e%d guard[%s]{%a}" fix.id fix.epoch bucket Path_cond.pp condition
  | Crash_suppression { bucket; site; _ } ->
    Format.fprintf fmt "fix#%d@e%d suppress[%s]@%a" fix.id fix.epoch bucket Ir.pp_site site
  | Patch_candidate { bucket; site; description } ->
    Format.fprintf fmt "fix#%d@e%d candidate[%s]@%a: %s" fix.id fix.epoch bucket Ir.pp_site
      site description

type crash_evidence = {
  site : Ir.site;
  crash_kind : Outcome.crash_kind;
  bucket : string;
  count : int;
}

(* Fix ids continue from the highest id already deployed on the same
   knowledge, not from a process-global counter: two hives proposing
   over equal evidence and equal existing fixes must mint equal ids,
   or a federated merge could never be byte-identical to the
   single-hive baseline. *)
let next_id_over existing = 1 + List.fold_left (fun m fix -> max m fix.id) 0 existing

let covers_deadlock existing locks =
  List.exists
    (fun fix -> match fix.kind with Deadlock_immunity l -> l = locks | _ -> false)
    existing

let covers_bucket existing bucket =
  List.exists
    (fun fix ->
      match fix.kind with
      | Input_guard g -> String.equal g.bucket bucket
      | Crash_suppression s -> String.equal s.bucket bucket
      | Deadlock_immunity _ | Patch_candidate _ -> false)
    existing

let has_candidate existing bucket =
  List.exists
    (fun fix ->
      match fix.kind with
      | Patch_candidate c -> String.equal c.bucket bucket
      | Deadlock_immunity _ | Input_guard _ | Crash_suppression _ -> false)
    existing

(* An input guard is only usable by a pod if it speaks about real
   program inputs (slots below n_inputs); syscall symbols are not
   observable before the run. *)
let input_only_condition ~n_inputs condition =
  condition <> []
  && List.for_all (fun i -> i < n_inputs) (Path_cond.inputs_used condition)

(* Find a feasible symbolic crash path matching the evidence, to derive
   an input guard from its path condition.  Only a crash at the
   evidence's site and kind whose condition is input-only can yield
   the guard, so only those paths are solved, in emission order, up to
   the first feasible one. *)
let guard_condition ?symexec_config ?cache ~program evidence =
  if Array.length program.Ir.threads > 1 then None
  else
    let config = Option.value ~default:Sym_exec.default_config symexec_config in
    let report =
      Sym_exec.explore
        ~config:{ config with Sym_exec.solve_models = false }
        ?cache program Consistency.Strict
    in
    List.find_map
      (fun (p : Sym_exec.path) ->
        match p.Sym_exec.outcome with
        | Sym_exec.Crashed { site; kind; _ }
          when Ir.site_equal site evidence.site
               && kind = evidence.crash_kind
               && input_only_condition ~n_inputs:program.Ir.n_inputs p.Sym_exec.condition -> (
          match (Sym_exec.solve_path ~config ?cache p).Sym_exec.solver_verdict with
          | `Sat -> Some p.Sym_exec.condition
          | `Unsat | `Timeout | `Unsolved -> None)
        | _ -> None)
      report.Sym_exec.paths

let propose ?symexec_config ?cache ~program ~deadlock_patterns ~crashes ~existing ~next_epoch () =
  let fixes = ref [] in
  let next_id = ref (next_id_over existing) in
  let emit kind =
    let fix = { id = !next_id; epoch = next_epoch; kind } in
    incr next_id;
    fixes := fix :: !fixes
  in
  List.iter
    (fun locks ->
      let locks = List.sort_uniq Int.compare locks in
      if not (covers_deadlock existing locks) then emit (Deadlock_immunity locks))
    deadlock_patterns;
  List.iter
    (fun evidence ->
      if not (covers_bucket existing evidence.bucket) then begin
        (match guard_condition ?symexec_config ?cache ~program evidence with
        | Some condition ->
          emit
            (Input_guard
               {
                 bucket = evidence.bucket;
                 condition;
                 site = evidence.site;
                 crash_kind = evidence.crash_kind;
               })
        | None ->
          emit
            (Crash_suppression
               { bucket = evidence.bucket; site = evidence.site; crash_kind = evidence.crash_kind }));
        if not (has_candidate existing evidence.bucket) then
          emit
            (Patch_candidate
               {
                 bucket = evidence.bucket;
                 site = evidence.site;
                 description =
                   Printf.sprintf "handle %s at %s (seen %d times)"
                     (Outcome.crash_kind_name evidence.crash_kind)
                     (Format.asprintf "%a" Ir.pp_site evidence.site)
                     evidence.count;
               })
      end)
    crashes;
  List.rev !fixes

module Interp = Softborg_exec.Interp
module Immunity = Softborg_conc.Immunity

let runtime_hooks ?epoch fixes =
  let in_force fix = match epoch with None -> true | Some e -> fix.epoch <= e in
  let patterns =
    List.filter_map
      (fun fix ->
        match fix.kind with Deadlock_immunity locks when in_force fix -> Some locks | _ -> None)
      fixes
  in
  let suppressions =
    List.filter_map
      (fun fix ->
        match fix.kind with
        | Crash_suppression { site; crash_kind; _ } when in_force fix -> Some (site, crash_kind)
        | Input_guard { site; crash_kind; _ } when in_force fix ->
          (* The guard's site protection is unconditional so that hive
             replay under the same epoch reproduces pod behavior; the
             input condition itself is the pod's predictive flag. *)
          Some (site, crash_kind)
        | _ -> None)
      fixes
  in
  let immunity_hooks = Immunity.hooks (Immunity.create ~patterns) in
  {
    immunity_hooks with
    Interp.on_crash =
      (fun ~site ~kind ->
        if List.exists (fun (s, k) -> Ir.site_equal s site && k = kind) suppressions then
          `Suppress
        else `Propagate);
  }

let runtime_hooks_for_ids ~ids fixes =
  runtime_hooks (List.filter (fun fix -> List.mem fix.id ids) fixes)

(* ---- Saboteur fixes (fault injection) -------------------------------- *)

type sabotage =
  | Spin_immunity
  | Misplaced_guard
  | Misplaced_suppression

let sabotage_of_variant = function
  | 0 -> Spin_immunity
  | 1 -> Misplaced_guard
  | _ -> Misplaced_suppression

let sabotage_kind sab ~(program : Ir.t) =
  match sab with
  | Spin_immunity ->
    (* An over-broad immunity set: every lock but the highest.  A
       thread already inside a non-pattern critical section that then
       requests a pattern lock defers while the pattern's owner blocks
       on the lock the deferring thread holds — benign schedules
       livelock into [Hang]. *)
    let n = program.Ir.n_locks in
    let locks = if n >= 2 then List.init (n - 1) Fun.id else [ 0 ] in
    Deadlock_immunity locks
  | Misplaced_guard ->
    (* A guard whose input condition flags (practically) every run, at
       a site that never crashes: pure misfire telemetry. *)
    Input_guard
      {
        bucket = "sabotage:guard";
        condition = [ Path_cond.atom (Ir.Binop (Ir.Ge, Ir.Input 0, Ir.Const 0)) true ];
        site = { Ir.thread = 0; pc = 0 };
        crash_kind = Outcome.Assertion_failure;
      }
  | Misplaced_suppression ->
    (* A suppression parked at a site no failure ever reaches: inert
       rather than harmful — the health test should hold or promote
       it, not retract it. *)
    Crash_suppression
      {
        bucket = "sabotage:suppression";
        site = { Ir.thread = 0; pc = 0 };
        crash_kind = Outcome.Division_by_zero;
      }

(* Corpus-derived wrong-fix variants: the same sabotage shapes, but
   grounded in a certified benchmark instance instead of invented —
   a guard at a decoy site (on the failing path, not a ground-truth
   fix location) and an over-broad immunity set that serializes
   benign schedules. *)
let corpus_wrong_fixes (inst : Corpus_bench.instance) =
  let guards =
    match Corpus_bench.decoy_sites inst with
    | [] -> []
    | site :: _ ->
      [
        ( "decoy-guard",
          Input_guard
            {
              bucket = "wrong:decoy-guard";
              (* Flags every run: the decoy site correlates with the
                 failure but the condition repairs nothing, so benign
                 paths pay pure misfire telemetry. *)
              condition = [ Path_cond.atom (Ir.Binop (Ir.Ge, Ir.Input 0, Ir.Const 0)) true ];
              site;
              crash_kind = Outcome.Assertion_failure;
            } );
      ]
  in
  let immunities =
    match Corpus_bench.overbroad_lock_set inst with
    | None -> []
    | Some locks -> [ ("benign-serializer", Deadlock_immunity locks) ]
  in
  guards @ immunities

(* ---- Wire format ---------------------------------------------------- *)

let crash_kind_tag = function
  | Outcome.Assertion_failure -> 0
  | Outcome.Division_by_zero -> 1

let crash_kind_of_tag = function
  | 0 -> Outcome.Assertion_failure
  | 1 -> Outcome.Division_by_zero
  | n -> raise (Codec.Malformed (Printf.sprintf "crash kind tag %d" n))

let write_crash_kind w kind = Codec.Writer.byte w (crash_kind_tag kind)
let read_crash_kind r = crash_kind_of_tag (Codec.Reader.byte r)

let write_site w (site : Ir.site) =
  Codec.Writer.varint w site.Ir.thread;
  Codec.Writer.varint w site.Ir.pc

let read_site r =
  let thread = Codec.Reader.varint r in
  let pc = Codec.Reader.varint r in
  { Ir.thread; pc }

let write_condition w condition =
  Codec.Writer.list w
    (fun (atom : Path_cond.atom) ->
      Ir_codec.write_expr w atom.Path_cond.cond;
      Codec.Writer.bool w atom.Path_cond.expected)
    condition

let read_condition r =
  Codec.Reader.list r (fun r ->
      let cond = Ir_codec.read_expr r in
      let expected = Codec.Reader.bool r in
      Path_cond.atom cond expected)

let write_fix w fix =
  Codec.Writer.varint w fix.id;
  Codec.Writer.varint w fix.epoch;
  match fix.kind with
  | Deadlock_immunity locks ->
    Codec.Writer.byte w 0;
    Codec.Writer.list w (Codec.Writer.varint w) locks
  | Input_guard { bucket; condition; site; crash_kind } ->
    Codec.Writer.byte w 1;
    Codec.Writer.bytes w bucket;
    write_condition w condition;
    write_site w site;
    Codec.Writer.byte w (crash_kind_tag crash_kind)
  | Crash_suppression { bucket; site; crash_kind } ->
    Codec.Writer.byte w 2;
    Codec.Writer.bytes w bucket;
    write_site w site;
    Codec.Writer.byte w (crash_kind_tag crash_kind)
  | Patch_candidate { bucket; site; description } ->
    Codec.Writer.byte w 3;
    Codec.Writer.bytes w bucket;
    write_site w site;
    Codec.Writer.bytes w description

let read_fix r =
  let id = Codec.Reader.varint r in
  (* Id uniqueness after a restore is automatic: [propose] numbers
     from the highest id among the fixes it extends. *)
  let epoch = Codec.Reader.varint r in
  let kind =
    match Codec.Reader.byte r with
    | 0 -> Deadlock_immunity (Codec.Reader.list r Codec.Reader.varint)
    | 1 ->
      let bucket = Codec.Reader.bytes r in
      let condition = read_condition r in
      let site = read_site r in
      let crash_kind = crash_kind_of_tag (Codec.Reader.byte r) in
      Input_guard { bucket; condition; site; crash_kind }
    | 2 ->
      let bucket = Codec.Reader.bytes r in
      let site = read_site r in
      let crash_kind = crash_kind_of_tag (Codec.Reader.byte r) in
      Crash_suppression { bucket; site; crash_kind }
    | 3 ->
      let bucket = Codec.Reader.bytes r in
      let site = read_site r in
      let description = Codec.Reader.bytes r in
      Patch_candidate { bucket; site; description }
    | n -> raise (Codec.Malformed (Printf.sprintf "fix kind tag %d" n))
  in
  { id; epoch; kind }
