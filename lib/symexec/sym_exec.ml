module Ir = Softborg_prog.Ir
module Outcome = Softborg_exec.Outcome
module Path_cond = Softborg_solver.Path_cond
module Interval = Softborg_solver.Interval
module Pc_solve = Softborg_solver.Pc_solve
module Verdict_cache = Softborg_solver.Verdict_cache
module V = Sym_state
module Smap = Map.Make (String)

type sym_origin =
  | From_input of int
  | From_syscall of { occurrence : int; kind : Ir.syscall_kind }
  | From_global of string

type path_outcome =
  | Completed
  | Crashed of { site : Ir.site; kind : Outcome.crash_kind; message : string }
  | Path_deadlock
  | Step_limit

type path = {
  decisions : (Ir.site * bool) list;
  condition : Path_cond.t;
  outcome : path_outcome;
  origins : sym_origin array;
  model : int array option;
  solver_verdict : [ `Sat | `Unsat | `Timeout | `Unsolved ];
}

type config = {
  max_paths : int;
  max_steps_per_path : int;
  solver_budget : int;
  domain : int * int;
  solve_models : bool;
}

let default_config =
  {
    max_paths = 512;
    max_steps_per_path = 4000;
    solver_budget = 200_000;
    domain = (-64, 255);
    solve_models = true;
  }

type report = {
  paths : path list;
  pruned_infeasible : int;
  truncated : bool;
  total_steps : int;
  solver_steps : int;
}

type thread_status = Runnable | Blocked_on of int | Finished

(* One in-flight symbolic path.  Arrays are copied on fork; the
   persistent maps are shared. *)
type machine = {
  mutable pcs : int array;
  mutable status : thread_status array;
  mutable locals : V.value Smap.t array;
  mutable globals : V.value Smap.t;
  mutable lock_owner : int option array;
  mutable last : int;  (* round-robin cursor *)
  mutable cond : Path_cond.atom list;  (* reversed *)
  mutable decisions : (Ir.site * bool) list;  (* reversed *)
  mutable origins : sym_origin list;  (* reversed *)
  mutable next_sym : int;
  mutable steps : int;
  mutable discharged : Ir.expr list;  (* divisors already constrained non-zero *)
}

let clone m =
  {
    m with
    pcs = Array.copy m.pcs;
    status = Array.copy m.status;
    locals = Array.copy m.locals;
    lock_owner = Array.copy m.lock_owner;
  }

exception Trap_exn of V.crash
exception Guard_exn of Ir.expr

type explorer = {
  program : Ir.t;
  level : Consistency.level;
  config : config;
  mutable stack : machine list;
  mutable emitted : path list;  (* reversed *)
  mutable pruned : int;
  mutable total_steps : int;
  mutable solver_steps : int;
  mutable target_timeout : bool;
  mutable truncated : bool;
  target : (Ir.site * bool) option;
  mutable found : (int array * sym_origin array) option;
  cache : Verdict_cache.t option;
}

let fresh_symbol m origin =
  let sym = m.next_sym in
  m.next_sym <- sym + 1;
  m.origins <- origin :: m.origins;
  V.symbol sym

let initial_machine ex =
  let program = ex.program in
  let n_threads = Array.length program.Ir.threads in
  let active thread =
    match ex.level with
    | Consistency.Strict -> true
    | Consistency.Local { thread = t } -> thread = t
  in
  let m =
    {
      pcs = Array.make n_threads 0;
      status = Array.init n_threads (fun t -> if active t then Runnable else Finished);
      locals = Array.init n_threads (fun _ -> Smap.empty);
      globals = Smap.empty;
      lock_owner = Array.make program.Ir.n_locks None;
      last = -1;
      cond = [];
      decisions = [];
      origins = [];
      next_sym = 0;
      steps = 0;
      discharged = [];
    }
  in
  (* Real inputs occupy the first symbol slots, in order. *)
  for i = 0 to program.Ir.n_inputs - 1 do
    ignore (fresh_symbol m (From_input i))
  done;
  m

let read_global ex m name =
  match Smap.find_opt name m.globals with
  | Some v -> v
  | None -> (
    match ex.level with
    | Consistency.Strict -> V.const 0
    | Consistency.Local _ ->
      (* Havoc: another thread could have written anything. *)
      let v = fresh_symbol m (From_global name) in
      m.globals <- Smap.add name v m.globals;
      v)

let read_var ex m thread = function
  | Ir.Global name -> read_global ex m name
  | Ir.Local name -> (
    match Smap.find_opt name m.locals.(thread) with Some v -> v | None -> V.const 0)

let write_var m thread var value =
  match var with
  | Ir.Global name -> m.globals <- Smap.add name value m.globals
  | Ir.Local name -> m.locals.(thread) <- Smap.add name value m.locals.(thread)

let rec eval ex m thread = function
  | Ir.Const c -> V.const c
  | Ir.Input i -> V.symbol i  (* input slots are the first symbols *)
  | Ir.Var var -> read_var ex m thread var
  | Ir.Unop (op, e) -> V.eval_unop op (eval ex m thread e)
  | Ir.Binop (op, ea, eb) -> (
    let a = eval ex m thread ea in
    let b = eval ex m thread eb in
    match V.eval_binop op a b with
    | V.Value v -> v
    | V.Trap crash -> raise (Trap_exn crash)
    | V.Guarded { guard; value; _ } ->
      if List.mem guard m.discharged then value else raise (Guard_exn guard))

(* Interval-based feasibility filter for a (reversed) atom list. *)
let feasible ex m =
  match
    Pc_solve.check ?cache:ex.cache ~domain:ex.config.domain ~n_inputs:m.next_sym
      (List.rev m.cond)
  with
  | `Infeasible -> false
  | `Feasible | `Unknown -> true

let push_child ex child =
  if feasible ex child then ex.stack <- child :: ex.stack else ex.pruned <- ex.pruned + 1

(* The end-of-path solve, with the solver steps it took.  [path.origins]
   holds one entry per symbol, so its length is the condition's arity. *)
let solve_counted ~config ?cache (path : path) =
  if not config.solve_models then (path, 0)
  else begin
    let outcome =
      Pc_solve.solve ?cache ~budget:config.solver_budget ~domain:config.domain
        ~n_inputs:(Array.length path.origins) path.condition
    in
    let path =
      match outcome.Interval.verdict with
      | Interval.Sat model -> { path with model = Some model; solver_verdict = `Sat }
      | Interval.Unsat -> { path with model = None; solver_verdict = `Unsat }
      | Interval.Timeout -> { path with model = None; solver_verdict = `Timeout }
    in
    (path, outcome.Interval.steps)
  end

let solve_path ?(config = default_config) ?cache path = fst (solve_counted ~config ?cache path)

let solve_emitted ex path =
  let path, steps = solve_counted ~config:ex.config ?cache:ex.cache path in
  ex.solver_steps <- ex.solver_steps + steps;
  path

let finalize ex m outcome =
  (* Unsat paths are over-approximation artifacts; keep them in the
     report (they carry information for E8) unless they crashed —
     an infeasible crash is a false alarm we still want to count. *)
  let path =
    {
      decisions = List.rev m.decisions;
      condition = List.rev m.cond;
      outcome;
      origins = Array.of_list (List.rev m.origins);
      model = None;
      solver_verdict = `Unsolved;
    }
  in
  let path =
    match ex.target with
    (* A directed query records its paths unsolved: only
       [direction_feasible]'s Infeasible-or-Unknown decision reads
       their solves, and it runs them itself once it gets there. *)
    | Some _ -> path
    | None -> solve_emitted ex path
  in
  ex.emitted <- path :: ex.emitted

let check_target ex m =
  match ex.target with
  | None -> ()
  | Some (site, direction) -> (
    match m.decisions with
    | (s, d) :: _ when Ir.site_equal s site && d = direction -> (
      (* Solve the prefix condition now; a model drives a concrete
         execution to this very decision. *)
      let outcome =
        Pc_solve.solve ?cache:ex.cache ~budget:ex.config.solver_budget ~domain:ex.config.domain
          ~n_inputs:m.next_sym (List.rev m.cond)
      in
      ex.solver_steps <- ex.solver_steps + outcome.Interval.steps;
      match outcome.Interval.verdict with
      | Interval.Sat model ->
        ex.found <- Some (model, Array.of_list (List.rev m.origins))
      | Interval.Unsat -> ()
      | Interval.Timeout -> ex.target_timeout <- true)
    | _ -> ())

let record_decision ex m site taken =
  m.decisions <- (site, taken) :: m.decisions;
  check_target ex m

let runnable_threads m =
  let ids = ref [] in
  for thread = Array.length m.status - 1 downto 0 do
    match m.status.(thread) with
    | Runnable -> ids := thread :: !ids
    | Blocked_on lock ->
      if m.lock_owner.(lock) = None then begin
        m.status.(thread) <- Runnable;
        ids := thread :: !ids
      end
    | Finished -> ()
  done;
  !ids

let round_robin m runnable =
  match List.find_opt (fun id -> id > m.last) runnable with
  | Some id -> id
  | None -> List.hd runnable

let all_finished m = Array.for_all (function Finished -> true | _ -> false) m.status

(* Execute instructions of [m] until the path ends or forks; children
   are pushed on the explorer stack, finished paths emitted. *)
let run_machine ex m =
  let program = ex.program in
  let rec loop () =
    if ex.found <> None then ()
    else if all_finished m then finalize ex m Completed
    else if m.steps >= ex.config.max_steps_per_path then finalize ex m Step_limit
    else
      match runnable_threads m with
      | [] -> finalize ex m Path_deadlock
      | runnable -> (
        let thread = round_robin m runnable in
        m.last <- thread;
        m.steps <- m.steps + 1;
        ex.total_steps <- ex.total_steps + 1;
        let body = program.Ir.threads.(thread) in
        let pc = m.pcs.(thread) in
        if pc >= Array.length body then begin
          m.status.(thread) <- Finished;
          loop ()
        end
        else
          let site = { Ir.thread; pc } in
          let crash_here kind message = finalize ex m (Crashed { site; kind; message }) in
          let with_guard_handling f =
            match f () with
            | () -> loop ()
            | exception Trap_exn V.Sym_div_by_zero ->
              crash_here Outcome.Division_by_zero "division by zero"
            | exception Trap_exn (V.Sym_assert_failure msg) ->
              crash_here Outcome.Assertion_failure msg
            | exception Guard_exn guard ->
              (* Fork on the divisor: zero -> crash path, else retry
                 this instruction with the divisor discharged. *)
              let crash_child = clone m in
              crash_child.cond <-
                Path_cond.atom (Ir.Binop (Ir.Eq, guard, Ir.Const 0)) true :: crash_child.cond;
              if feasible ex crash_child then
                finalize ex crash_child
                  (Crashed { site; kind = Outcome.Division_by_zero; message = "division by zero" })
              else ex.pruned <- ex.pruned + 1;
              m.cond <- Path_cond.atom (Ir.Binop (Ir.Eq, guard, Ir.Const 0)) false :: m.cond;
              m.discharged <- guard :: m.discharged;
              if feasible ex m then loop () else ex.pruned <- ex.pruned + 1
          in
          match body.(pc) with
          | Ir.Assign (var, e) ->
            with_guard_handling (fun () ->
                let v = eval ex m thread e in
                write_var m thread var v;
                m.pcs.(thread) <- pc + 1)
          | Ir.Jump target ->
            m.pcs.(thread) <- target;
            loop ()
          | Ir.Yield ->
            m.pcs.(thread) <- pc + 1;
            loop ()
          | Ir.Halt ->
            m.status.(thread) <- Finished;
            loop ()
          | Ir.Syscall { kind; dst } ->
            let occurrence =
              List.length
                (List.filter (function From_syscall _ -> true | _ -> false) m.origins)
            in
            let v = fresh_symbol m (From_syscall { occurrence; kind }) in
            (* Environment contract: a syscall returns -1 (fault) or a
               non-negative value. *)
            m.cond <-
              Path_cond.atom (Ir.Binop (Ir.Ge, V.to_expr v, Ir.Const (-1))) true :: m.cond;
            write_var m thread dst v;
            m.pcs.(thread) <- pc + 1;
            loop ()
          | Ir.Lock lock -> (
            match m.lock_owner.(lock) with
            | Some other when other <> thread ->
              m.status.(thread) <- Blocked_on lock;
              loop ()
            | Some _ ->
              m.status.(thread) <- Blocked_on lock;
              loop ()
            | None ->
              m.lock_owner.(lock) <- Some thread;
              m.pcs.(thread) <- pc + 1;
              loop ())
          | Ir.Unlock lock ->
            if m.lock_owner.(lock) = Some thread then m.lock_owner.(lock) <- None;
            m.pcs.(thread) <- pc + 1;
            loop ()
          | Ir.Assert { cond; message } ->
            with_guard_handling (fun () ->
                let v = eval ex m thread cond in
                match V.truth v with
                | Some true -> m.pcs.(thread) <- pc + 1
                | Some false -> raise (Trap_exn (V.Sym_assert_failure message))
                | None ->
                  let expr = V.to_expr v in
                  let crash_child = clone m in
                  crash_child.cond <- Path_cond.atom expr false :: crash_child.cond;
                  if feasible ex crash_child then
                    finalize ex crash_child
                      (Crashed { site; kind = Outcome.Assertion_failure; message })
                  else ex.pruned <- ex.pruned + 1;
                  m.cond <- Path_cond.atom expr true :: m.cond;
                  if not (feasible ex m) then begin
                    ex.pruned <- ex.pruned + 1;
                    raise Exit
                  end;
                  m.pcs.(thread) <- pc + 1)
          | Ir.Branch { cond; if_true; if_false } ->
            with_guard_handling (fun () ->
                let v = eval ex m thread cond in
                match V.truth v with
                | Some taken ->
                  record_decision ex m site taken;
                  m.pcs.(thread) <- (if taken then if_true else if_false)
                | None ->
                  let expr = V.to_expr v in
                  (* False child forks off; true child continues in place. *)
                  let child = clone m in
                  child.cond <- Path_cond.atom expr false :: child.cond;
                  child.decisions <- (site, false) :: child.decisions;
                  child.pcs.(thread) <- if_false;
                  push_child ex child;
                  (* Check the forked child against the directed-search
                     target before it waits on the stack. *)
                  check_target ex child;
                  m.cond <- Path_cond.atom expr true :: m.cond;
                  record_decision ex m site true;
                  if not (feasible ex m) then begin
                    ex.pruned <- ex.pruned + 1;
                    raise Exit
                  end;
                  m.pcs.(thread) <- if_true))
  in
  match loop () with () -> () | exception Exit -> ()

let explore_gen ?(config = default_config) ?cache ?target program level =
  let ex =
    {
      program;
      level;
      config;
      stack = [];
      emitted = [];
      pruned = 0;
      total_steps = 0;
      solver_steps = 0;
      target_timeout = false;
      truncated = false;
      target;
      found = None;
      cache;
    }
  in
  ex.stack <- [ initial_machine ex ];
  let rec drain () =
    match ex.stack with
    | [] -> ()
    | m :: rest ->
      if ex.found <> None then ()
      else if List.length ex.emitted >= config.max_paths then ex.truncated <- true
      else begin
        ex.stack <- rest;
        run_machine ex m;
        drain ()
      end
  in
  drain ();
  ex

let explore ?config ?cache program level =
  let ex = explore_gen ?config ?cache program level in
  {
    paths = List.rev ex.emitted;
    pruned_infeasible = ex.pruned;
    truncated = ex.truncated;
    total_steps = ex.total_steps;
    solver_steps = ex.solver_steps;
  }

type direction_verdict =
  | Feasible of { model : int array; origins : sym_origin array }
  | Infeasible
  | Unknown

let direction_feasible ?config ?cache ?(level = Consistency.Strict) program ~site ~direction =
  let ex = explore_gen ?config ?cache ?target:(Some (site, direction)) program level in
  match ex.found with
  | Some (model, origins) -> Feasible { model; origins }
  | None ->
    (* A havoced global stands for any value, so a local "no path"
       proves nothing about real executions. *)
    let relaxed = match level with Consistency.Strict -> false | Consistency.Local _ -> true in
    let multi_threaded = Array.length program.Ir.threads > 1 in
    (* The deferred end-of-path solves, in emission order: a timeout
       among them is all that can still turn Infeasible into Unknown. *)
    let path_timeout () =
      List.exists
        (fun path -> (solve_emitted ex path).solver_verdict = `Timeout)
        (List.rev ex.emitted)
    in
    if ex.truncated || ex.target_timeout || relaxed || multi_threaded || path_timeout () then
      Unknown
    else Infeasible
