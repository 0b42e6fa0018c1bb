module Bitvec = Softborg_util.Bitvec
module Ir = Softborg_prog.Ir

type lock_event =
  | Acquired of { thread : int; lock : int; step : int }
  | Released of { thread : int; lock : int; step : int }

type hooks = {
  on_lock_request :
    thread:int -> lock:int -> holding:int list -> owner:(int -> int option) ->
    [ `Proceed | `Defer ];
  on_crash : site:Ir.site -> kind:Outcome.crash_kind -> [ `Suppress | `Propagate ];
}

let no_hooks =
  {
    on_lock_request = (fun ~thread:_ ~lock:_ ~holding:_ ~owner:_ -> `Proceed);
    on_crash = (fun ~site:_ ~kind:_ -> `Propagate);
  }

type result = {
  outcome : Outcome.t;
  bits : Bitvec.t;
  full_path : (Ir.site * bool) list;
  schedule : int list;
  syscalls : (Ir.syscall_kind * int) list;
  lock_events : lock_event list;
  steps : int;
  deferred_acquisitions : int;
  suppressed_crashes : int;
}

(* A value is a possibly-unknown integer plus an input-dependence
   taint.  Record mode always has [Some _]; replay mode maintains the
   invariant tainted <=> None because external sources yield None and
   propagation is strictly structural (no absorbing-element shortcuts,
   which would break the bit-consumption alignment between modes). *)
type value = { v : int option; tainted : bool }

exception Crash_now of Outcome.crash_kind * string
exception Replay_error of string

type mode =
  | Record of Env.t
  | Replay of { bits : Bitvec.t; mutable bit_pos : int; total_decisions : int }

type thread_status =
  | Runnable
  | Blocked_on of int
  | Finished

(* Growable-array accumulators for trace by-products: no per-event cons
   on the hot loop and no final [List.rev].  The first push allocates
   [vec_capacity] slots and growth doubles, so a run pays for what it
   records.  The first capacity must stay below Max_young_wosize (256
   words): [Array.make] of a larger array whose initial element is
   young forces a minor collection, which would be one per run. *)
type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_capacity = 16

let vec_make () = { data = [||]; len = 0 }

let vec_push v x =
  let cap = Array.length v.data in
  if v.len = cap then begin
    let grown = Array.make (if cap = 0 then vec_capacity else 2 * cap) x in
    Array.blit v.data 0 grown 0 v.len;
    v.data <- grown
  end;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let vec_to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (Array.unsafe_get v.data i :: acc) in
  go (v.len - 1) []

type machine = {
  program : Ir.t;
  mode : mode;
  hooks : hooks;
  pcs : int array;
  status : thread_status array;
  locals : (string, value) Hashtbl.t array;
  globals : (string, value) Hashtbl.t;
  lock_owner : int option array;
  mutable steps : int;
  mutable deferred : int;
  mutable suppressed : int;
  mutable out_bits : Bitvec.t;
  decisions : (Ir.site * bool) vec;
  syscalls : (Ir.syscall_kind * int) vec;
  lock_events : lock_event vec;
}

let make_machine ~program ~mode ~hooks =
  {
    program;
    mode;
    hooks;
    pcs = Array.make (Array.length program.Ir.threads) 0;
    status = Array.make (Array.length program.Ir.threads) Runnable;
    locals = Array.init (Array.length program.Ir.threads) (fun _ -> Hashtbl.create 8);
    globals = Hashtbl.create 8;
    lock_owner = Array.make program.Ir.n_locks None;
    steps = 0;
    deferred = 0;
    suppressed = 0;
    out_bits = Bitvec.create ();
    decisions = vec_make ();
    syscalls = vec_make ();
    lock_events = vec_make ();
  }

let known n = { v = Some n; tainted = false }

(* Shared default for unbound variable reads: immutable, so one value
   serves every miss instead of consing a fresh [known 0] each time. *)
let default_value = known 0

let external_value m concrete =
  match m.mode with
  | Record _ -> { v = Some concrete; tainted = true }
  | Replay _ -> { v = None; tainted = true }

let read_var m thread var =
  let table = match var with Ir.Global _ -> m.globals | Ir.Local _ -> m.locals.(thread) in
  let name = match var with Ir.Global n | Ir.Local n -> n in
  match Hashtbl.find_opt table name with Some v -> v | None -> default_value

let write_var m thread var value =
  let table = match var with Ir.Global _ -> m.globals | Ir.Local _ -> m.locals.(thread) in
  let name = match var with Ir.Global n | Ir.Local n -> n in
  Hashtbl.replace table name value

let truth n = n <> 0
let of_bool b = if b then 1 else 0

let apply_binop op x y =
  match op with
  | Ir.Add -> x + y
  | Ir.Sub -> x - y
  | Ir.Mul -> x * y
  | Ir.Div ->
    if y = 0 then raise (Crash_now (Outcome.Division_by_zero, "division by zero"));
    x / y
  | Ir.Mod ->
    if y = 0 then raise (Crash_now (Outcome.Division_by_zero, "modulo by zero"));
    x mod y
  | Ir.Eq -> of_bool (x = y)
  | Ir.Ne -> of_bool (x <> y)
  | Ir.Lt -> of_bool (x < y)
  | Ir.Le -> of_bool (x <= y)
  | Ir.Gt -> of_bool (x > y)
  | Ir.Ge -> of_bool (x >= y)
  | Ir.And -> of_bool (truth x && truth y)
  | Ir.Or -> of_bool (truth x || truth y)

let rec eval m thread expr =
  match expr with
  | Ir.Const c -> known c
  | Ir.Var var -> read_var m thread var
  | Ir.Input i ->
    let concrete = match m.mode with Record env -> Env.input env i | Replay _ -> 0 in
    external_value m concrete
  | Ir.Unop (op, e) ->
    let a = eval m thread e in
    let v =
      match a.v with
      | None -> None
      | Some x -> Some (match op with Ir.Neg -> -x | Ir.Not -> of_bool (not (truth x)))
    in
    { v; tainted = a.tainted }
  | Ir.Binop (op, ea, eb) ->
    let a = eval m thread ea in
    let b = eval m thread eb in
    let v =
      match (a.v, b.v) with
      | Some x, Some y -> Some (apply_binop op x y)
      | (None, _ | _, None) ->
        (* Division by an unknown-but-actually-zero value cannot be
           seen in replay; the decision-count stop makes this safe. *)
        None
    in
    { v; tainted = a.tainted || b.tainted }

let record_decision m site taken = vec_push m.decisions (site, taken)

let branch_decision m site cond_value =
  match cond_value with
  | { tainted = false; v = Some n } ->
    let taken = truth n in
    record_decision m site taken;
    taken
  | { tainted = true; v } -> (
    match m.mode with
    | Record _ ->
      let taken = match v with Some n -> truth n | None -> assert false in
      Bitvec.push m.out_bits taken;
      record_decision m site taken;
      taken
    | Replay r ->
      if r.bit_pos >= Bitvec.length r.bits then
        raise (Replay_error "trace bits exhausted at input-dependent branch");
      let taken = Bitvec.get r.bits r.bit_pos in
      r.bit_pos <- r.bit_pos + 1;
      record_decision m site taken;
      taken)
  | { tainted = false; v = None } ->
    raise (Replay_error "untainted value is unknown (machine invariant broken)")

(* Execute one instruction of [thread].  Returns [true] if the thread
   made progress (anything but a blocked lock attempt). *)
let step m thread =
  let body = m.program.Ir.threads.(thread) in
  let pc = m.pcs.(thread) in
  if pc >= Array.length body then begin
    m.status.(thread) <- Finished;
    true
  end
  else begin
    let site = { Ir.thread; pc } in
    (* A crash at a suppressible instruction may be patched over by the
       crash hook: skip the instruction, zero an assignment target. *)
    let suppress_or_reraise kind message fallback =
      match m.hooks.on_crash ~site ~kind with
      | `Suppress ->
        m.suppressed <- m.suppressed + 1;
        fallback ();
        m.pcs.(thread) <- pc + 1;
        true
      | `Propagate -> raise (Crash_now (kind, message))
    in
    match body.(pc) with
    | Ir.Assign (var, e) -> (
      match eval m thread e with
      | value ->
        write_var m thread var value;
        m.pcs.(thread) <- pc + 1;
        true
      | exception Crash_now (kind, message) ->
        suppress_or_reraise kind message (fun () -> write_var m thread var (known 0)))
    | Ir.Branch { cond; if_true; if_false } ->
      let value = eval m thread cond in
      let taken = branch_decision m site value in
      m.pcs.(thread) <- (if taken then if_true else if_false);
      true
    | Ir.Jump target ->
      m.pcs.(thread) <- target;
      true
    | Ir.Syscall { kind; dst } ->
      let concrete = match m.mode with Record env -> Env.syscall env kind | Replay _ -> 0 in
      (match m.mode with
      | Record _ -> vec_push m.syscalls (kind, concrete)
      | Replay _ -> ());
      write_var m thread dst (external_value m concrete);
      m.pcs.(thread) <- pc + 1;
      true
    | Ir.Lock lock -> (
      match m.lock_owner.(lock) with
      | Some other when other <> thread ->
        m.status.(thread) <- Blocked_on lock;
        false
      | Some _ ->
        (* Re-acquiring a lock we hold: self-deadlock. *)
        m.status.(thread) <- Blocked_on lock;
        false
      | None -> (
        let holding =
          Array.to_list m.lock_owner
          |> List.mapi (fun l owner -> (l, owner))
          |> List.filter_map (fun (l, owner) -> if owner = Some thread then Some l else None)
        in
        let owner l = m.lock_owner.(l) in
        match m.hooks.on_lock_request ~thread ~lock ~holding ~owner with
        | `Defer ->
          m.deferred <- m.deferred + 1;
          (* Spin: stay runnable at the same pc and retry later. *)
          true
        | `Proceed ->
          m.lock_owner.(lock) <- Some thread;
          vec_push m.lock_events (Acquired { thread; lock; step = m.steps });
          m.status.(thread) <- Runnable;
          m.pcs.(thread) <- pc + 1;
          true))
    | Ir.Unlock lock ->
      if m.lock_owner.(lock) = Some thread then begin
        m.lock_owner.(lock) <- None;
        vec_push m.lock_events (Released { thread; lock; step = m.steps })
      end;
      m.pcs.(thread) <- pc + 1;
      true
    | Ir.Assert { cond; message } -> (
      match eval m thread cond with
      | value ->
        (match value.v with
        | Some n when not (truth n) ->
          ignore (suppress_or_reraise Outcome.Assertion_failure message (fun () -> ()))
        | Some _ | None -> m.pcs.(thread) <- pc + 1);
        true
      | exception Crash_now (kind, message) ->
        suppress_or_reraise kind message (fun () -> ()))
    | Ir.Yield ->
      m.pcs.(thread) <- pc + 1;
      true
    | Ir.Halt ->
      m.status.(thread) <- Finished;
      true
  end

let runnable_threads m =
  let ids = ref [] in
  for thread = Array.length m.status - 1 downto 0 do
    match m.status.(thread) with
    | Runnable -> ids := thread :: !ids
    | Blocked_on lock ->
      (* A blocked thread wakes when the lock frees up; it then re-runs
         its Lock instruction. *)
      if m.lock_owner.(lock) = None then begin
        m.status.(thread) <- Runnable;
        ids := thread :: !ids
      end
    | Finished -> ()
  done;
  !ids

let all_finished m =
  Array.for_all (function Finished -> true | Runnable | Blocked_on _ -> false) m.status

let waiting_pairs m =
  let pairs = ref [] in
  Array.iteri
    (fun thread status ->
      match status with Blocked_on lock -> pairs := (thread, lock) :: !pairs | Runnable | Finished -> ())
    m.status;
  List.rev !pairs

(* The shared driver loop.  Returns the outcome; by-products accumulate
   in the machine. *)
let drive m ~max_steps ~sched =
  let scheduler = Sched.create sched in
  let rec loop () =
    if all_finished m then Outcome.Success
    else if m.steps >= max_steps then Outcome.Hang
    else
      match runnable_threads m with
      | [] -> Outcome.Deadlock { waiting = waiting_pairs m }
      | runnable -> (
        let thread = Sched.choose scheduler ~runnable in
        m.steps <- m.steps + 1;
        match step m thread with
        | _made_progress -> loop ()
        | exception Crash_now (kind, message) ->
          Outcome.Crash { site = { Ir.thread; pc = m.pcs.(thread) }; kind; message })
  in
  let outcome = loop () in
  (outcome, Sched.record scheduler)

let run ?(max_steps = 20_000) ?(hooks = no_hooks) ~program ~env ~sched () =
  let m = make_machine ~program ~mode:(Record env) ~hooks in
  let outcome, schedule = drive m ~max_steps ~sched in
  {
    outcome;
    bits = m.out_bits;
    full_path = vec_to_list m.decisions;
    schedule;
    syscalls = vec_to_list m.syscalls;
    lock_events = vec_to_list m.lock_events;
    steps = m.steps;
    deferred_acquisitions = m.deferred;
    suppressed_crashes = m.suppressed;
  }

type reconstruction = {
  decisions : (Ir.site * bool) list;
  locks : lock_event list;
}

let reconstruct ?(hooks = no_hooks) ~program ~bits ~schedule ~total_decisions ~total_steps ()
    =
  let mode = Replay { bits; bit_pos = 0; total_decisions } in
  let m = make_machine ~program ~mode ~hooks in
  let scheduler = Sched.create (Sched.Replay schedule) in
  let rec loop () =
    if m.steps >= total_steps then Ok ()
    else if all_finished m then Ok ()
    else
      match runnable_threads m with
      | [] -> Ok ()  (* deadlocked execution: path ends here *)
      | runnable -> (
        let thread = Sched.choose scheduler ~runnable in
        m.steps <- m.steps + 1;
        match step m thread with
        | _ -> loop ()
        | exception Crash_now _ -> Ok ()  (* concrete crash on a deterministic path *)
        | exception Replay_error msg ->
          (* Bits running dry on the recorded crash step is the normal
             end of a trace cut short while evaluating a branch. *)
          if m.decisions.len = total_decisions && m.steps >= total_steps then Ok ()
          else Error msg)
  in
  match loop () with
  | Ok () ->
    if m.decisions.len <> total_decisions then
      Error
        (Printf.sprintf "reconstructed %d decisions, trace recorded %d" m.decisions.len
           total_decisions)
    else Ok { decisions = vec_to_list m.decisions; locks = vec_to_list m.lock_events }
  | Error msg -> Error msg
