module Rng = Softborg_util.Rng

type heuristic =
  | Max_occurrence
  | Jeroslow_wang
  | Random_branch of Rng.t

type verdict =
  | Sat of Cnf.assignment
  | Unsat
  | Timeout

type outcome = {
  verdict : verdict;
  steps : int;
}

type assign_state =
  | Unset
  | True_at of int  (* decision level *)
  | False_at of int

(* The search is an explicit machine rather than a recursion so a race
   scheduler can run it a bounded number of steps and resume it later.
   A frame is one open decision: [flipped] records whether the second
   phase has been tried yet. *)
type frame = {
  var : int;
  mutable phase : bool;
  mutable flipped : bool;
  level : int;
}

type control =
  | Propagate  (* unit-propagate at the current level *)
  | Check  (* propagation stable: test satisfaction, then branch *)
  | Backtrack

type state = {
  clauses : int array array;
  n : int;
  assign : assign_state array;
  heuristic : heuristic;
  mutable trail : frame list;
  mutable control : control;
  mutable steps : int;
  mutable result : verdict option;
}

let start ?(heuristic = Max_occurrence) formula =
  {
    clauses = Array.of_list (List.map Array.of_list formula.Cnf.clauses);
    n = formula.Cnf.n_vars;
    assign = Array.make (formula.Cnf.n_vars + 1) Unset;
    heuristic;
    trail = [];
    control = Propagate;
    steps = 0;
    result = None;
  }

let steps st = st.steps

(* Literal value as an unboxed int (1 true, -1 false, 0 unset).  An
   [option] here would allocate once per literal examined, the
   innermost operation of every search. *)
let ivalue st lit =
  match st.assign.(abs lit) with
  | Unset -> 0
  | True_at _ -> if lit > 0 then 1 else -1
  | False_at _ -> if lit > 0 then -1 else 1

let assign st lit level =
  st.assign.(abs lit) <- (if lit > 0 then True_at level else False_at level)

let unassign_level st level =
  for v = 1 to st.n do
    match st.assign.(v) with
    | True_at l | False_at l -> if l >= level then st.assign.(v) <- Unset
    | Unset -> ()
  done

let current_level st = match st.trail with [] -> 0 | f :: _ -> f.level

(* Scan all clauses once: detect conflicts and collect unit literals.
   Returns `Conflict, `Units of literals, or `Stable. *)
let scan st =
  let units = ref [] in
  let conflict = ref false in
  let clauses = st.clauses in
  let n_clauses = Array.length clauses in
  let c = ref 0 in
  while (not !conflict) && !c < n_clauses do
    let clause = clauses.(!c) in
    st.steps <- st.steps + 1;
    (* Count unassigned literals instead of collecting them: the scan
       only needs to distinguish 0 / 1 / many.  Plain loops, no
       closures — a closure per clause here costs a dozen words per
       step (see [ivalue]). *)
    let satisfied = ref false in
    let n_unassigned = ref 0 in
    let unit_lit = ref 0 in
    let len = Array.length clause in
    for j = 0 to len - 1 do
      let lit = clause.(j) in
      match ivalue st lit with
      | 1 -> satisfied := true
      | 0 ->
        incr n_unassigned;
        unit_lit := lit
      | _ -> ()
    done;
    if not !satisfied then
      if !n_unassigned = 0 then conflict := true
      else if !n_unassigned = 1 then units := !unit_lit :: !units;
    incr c
  done;
  if !conflict then `Conflict else match !units with [] -> `Stable | lits -> `Units lits

let pick_branch_variable st =
  match st.heuristic with
  | Random_branch rng ->
    let candidates = ref [] in
    for v = 1 to st.n do
      if st.assign.(v) = Unset then candidates := v :: !candidates
    done;
    (match !candidates with
    | [] -> None
    | vs -> Some (Rng.choice rng (Array.of_list vs)))
  | Max_occurrence | Jeroslow_wang ->
    let score = Array.make (st.n + 1) 0.0 in
    let clauses = st.clauses in
    for c = 0 to Array.length clauses - 1 do
      let clause = clauses.(c) in
      st.steps <- st.steps + 1;
      let len = Array.length clause in
      let satisfied = ref false in
      let j = ref 0 in
      while (not !satisfied) && !j < len do
        if ivalue st clause.(!j) = 1 then satisfied := true;
        incr j
      done;
      if not !satisfied then begin
        let weight =
          match st.heuristic with
          | Jeroslow_wang -> Float.pow 2.0 (-.float_of_int len)
          | Max_occurrence | Random_branch _ -> 1.0
        in
        for k = 0 to len - 1 do
          let lit = clause.(k) in
          if ivalue st lit = 0 then score.(abs lit) <- score.(abs lit) +. weight
        done
      end
    done;
    let best = ref 0 and best_score = ref (-1.0) in
    for v = 1 to st.n do
      if st.assign.(v) = Unset && score.(v) > !best_score then begin
        best := v;
        best_score := score.(v)
      end
    done;
    if !best = 0 then None else Some !best

(* Closure-free: same minor-GC-pressure concern as [scan]. *)
let clause_satisfied st clause =
  let len = Array.length clause in
  let sat = ref false in
  let j = ref 0 in
  while (not !sat) && !j < len do
    if ivalue st clause.(!j) = 1 then sat := true;
    incr j
  done;
  !sat

let all_satisfied st =
  let clauses = st.clauses in
  let n_clauses = Array.length clauses in
  let ok = ref true in
  let c = ref 0 in
  while !ok && !c < n_clauses do
    st.steps <- st.steps + 1;
    if not (clause_satisfied st clauses.(!c)) then ok := false;
    incr c
  done;
  !ok

let extract_sat st =
  let assignment = Array.make (st.n + 1) false in
  for v = 1 to st.n do
    assignment.(v) <- (match st.assign.(v) with True_at _ -> true | False_at _ | Unset -> false)
  done;
  Sat assignment

let finish st verdict =
  st.result <- Some verdict;
  `Done verdict

(* Run one control transition; each costs at most one pass over the
   clauses, which is the fuel-check granularity of [step]. *)
let advance st =
  match st.control with
  | Propagate -> (
    let level = current_level st in
    match scan st with
    | `Conflict ->
      st.control <- Backtrack;
      `Running
    | `Stable ->
      st.control <- Check;
      `Running
    | `Units lits ->
      let progressed = ref false in
      let contradiction = ref false in
      List.iter
        (fun lit ->
          match ivalue st lit with
          | 0 ->
            assign st lit level;
            progressed := true
          | 1 -> ()
          | _ -> contradiction := true)
        lits;
      if !contradiction then st.control <- Backtrack
      else if not !progressed then st.control <- Check;
      `Running)
  | Check ->
    if all_satisfied st then `Decided (extract_sat st)
    else (
      match pick_branch_variable st with
      | None ->
        (* Every variable assigned yet some clause unsatisfied. *)
        st.control <- Backtrack;
        `Running
      | Some v ->
        let level = current_level st + 1 in
        st.trail <- { var = v; phase = true; flipped = false; level } :: st.trail;
        assign st v level;
        st.control <- Propagate;
        `Running)
  | Backtrack -> (
    match st.trail with
    | [] -> `Decided Unsat
    | frame :: rest ->
      unassign_level st frame.level;
      if frame.flipped then begin
        st.trail <- rest;
        `Running  (* stay in Backtrack *)
      end
      else begin
        frame.phase <- not frame.phase;
        frame.flipped <- true;
        assign st (if frame.phase then frame.var else -frame.var) frame.level;
        st.control <- Propagate;
        `Running
      end)

let step st ~fuel =
  match st.result with
  | Some verdict -> `Done verdict
  | None ->
    let floor = st.steps in
    let rec go () =
      match advance st with
      | `Decided verdict -> finish st verdict
      | `Running -> if st.steps - floor >= fuel then `More else go ()
    in
    go ()

let solve ?heuristic ?(budget = 10_000_000) formula =
  let st = start ?heuristic formula in
  match step st ~fuel:budget with
  | `Done verdict -> { verdict; steps = st.steps }
  | `More -> { verdict = Timeout; steps = st.steps }
