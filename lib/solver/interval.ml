module Ir = Softborg_prog.Ir

type verdict =
  | Sat of int array
  | Unsat
  | Timeout

type outcome = {
  verdict : verdict;
  steps : int;
}

(* Intervals are inclusive [lo, hi]; [top] is wide enough to dominate
   any arithmetic on domain-bounded values without overflowing. *)
let top_lo = -(1 lsl 40)
let top_hi = 1 lsl 40

type interval = { lo : int; hi : int }

let top = { lo = top_lo; hi = top_hi }
let point n = { lo = n; hi = n }
let clamp i = { lo = max i.lo top_lo; hi = min i.hi top_hi }
let contains_zero i = i.lo <= 0 && i.hi >= 0

(* Truthiness interval of a boolean-producing expression: [0;1],
   [0;0], or [1;1]. *)
let bool_iv ~can_false ~can_true =
  { lo = (if can_false then 0 else 1); hi = (if can_true then 1 else 0) }

let of_bool b = if b then 1 else 0
let truthy n = n <> 0

let concrete_binop op x y =
  match op with
  | Ir.Add -> Some (x + y)
  | Ir.Sub -> Some (x - y)
  | Ir.Mul -> Some (x * y)
  | Ir.Div -> if y = 0 then None else Some (x / y)
  | Ir.Mod -> if y = 0 then None else Some (x mod y)
  | Ir.Eq -> Some (of_bool (x = y))
  | Ir.Ne -> Some (of_bool (x <> y))
  | Ir.Lt -> Some (of_bool (x < y))
  | Ir.Le -> Some (of_bool (x <= y))
  | Ir.Gt -> Some (of_bool (x > y))
  | Ir.Ge -> Some (of_bool (x >= y))
  | Ir.And -> Some (of_bool (truthy x && truthy y))
  | Ir.Or -> Some (of_bool (truthy x || truthy y))

let rec eval_iv env = function
  | Ir.Const c -> point c
  | Ir.Var _ -> top
  | Ir.Input i -> if i >= 0 && i < Array.length env then env.(i) else top
  | Ir.Unop (op, e) -> (
    let a = eval_iv env e in
    match op with
    | Ir.Neg -> clamp { lo = -a.hi; hi = -a.lo }
    | Ir.Not ->
      let can_true = contains_zero a (* operand can be 0 -> not = 1 *) in
      let can_false = a.lo <> 0 || a.hi <> 0 in
      bool_iv ~can_false ~can_true)
  | Ir.Binop (op, ea, eb) -> (
    let a = eval_iv env ea in
    let b = eval_iv env eb in
    (* Point intervals evaluate exactly (division by a zero point is
       conservatively top: the trap is the concrete checker's job). *)
    if a.lo = a.hi && b.lo = b.hi then
      match concrete_binop op a.lo b.lo with Some v -> point v | None -> top
    else
    match op with
    | Ir.Add -> clamp { lo = a.lo + b.lo; hi = a.hi + b.hi }
    | Ir.Sub -> clamp { lo = a.lo - b.hi; hi = a.hi - b.lo }
    | Ir.Mul ->
      (* Wide operands would overflow the corner products; give up. *)
      let wide i = i.lo <= -(1 lsl 20) || i.hi >= 1 lsl 20 in
      if wide a || wide b then top
      else
        let corners = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
        clamp { lo = List.fold_left min max_int corners; hi = List.fold_left max min_int corners }
    | Ir.Div ->
      if contains_zero b then top
      else
        let corners = [ a.lo / b.lo; a.lo / b.hi; a.hi / b.lo; a.hi / b.hi ] in
        (* Truncated division is monotone enough for corner bounds,
           widened by one to stay conservative near sign changes. *)
        clamp
          {
            lo = List.fold_left min max_int corners - 1;
            hi = List.fold_left max min_int corners + 1;
          }
    | Ir.Mod ->
      if b.lo = b.hi && b.lo > 0 then
        let m = b.lo in
        if a.lo >= 0 then { lo = 0; hi = m - 1 } else { lo = -(m - 1); hi = m - 1 }
      else top
    | Ir.Eq ->
      let overlap = not (a.hi < b.lo || b.hi < a.lo) in
      let forced = a.lo = a.hi && b.lo = b.hi && a.lo = b.lo in
      bool_iv ~can_false:(not forced) ~can_true:overlap
    | Ir.Ne ->
      let overlap = not (a.hi < b.lo || b.hi < a.lo) in
      let forced_eq = a.lo = a.hi && b.lo = b.hi && a.lo = b.lo in
      bool_iv ~can_false:overlap ~can_true:(not forced_eq)
    | Ir.Lt -> bool_iv ~can_false:(a.hi >= b.lo) ~can_true:(a.lo < b.hi)
    | Ir.Le -> bool_iv ~can_false:(a.hi > b.lo) ~can_true:(a.lo <= b.hi)
    | Ir.Gt -> bool_iv ~can_false:(a.lo <= b.hi) ~can_true:(a.hi > b.lo)
    | Ir.Ge -> bool_iv ~can_false:(a.lo < b.hi) ~can_true:(a.hi >= b.lo)
    | Ir.And ->
      let a_false = contains_zero a and b_false = contains_zero b in
      let a_true = a.lo <> 0 || a.hi <> 0 in
      let b_true = b.lo <> 0 || b.hi <> 0 in
      bool_iv ~can_false:(a_false || b_false) ~can_true:(a_true && b_true)
    | Ir.Or ->
      let a_false = contains_zero a and b_false = contains_zero b in
      let a_true = a.lo <> 0 || a.hi <> 0 in
      let b_true = b.lo <> 0 || b.hi <> 0 in
      bool_iv ~can_false:(a_false && b_false) ~can_true:(a_true || b_true))

(* Check one atom against an interval environment. *)
type atom_status = Definitely_holds | Definitely_fails | Undecided

let atom_status env (a : Path_cond.atom) =
  let iv = eval_iv env a.Path_cond.cond in
  (* Truthiness over the interval: any nonzero value is true. *)
  let can_be_true = not (iv.lo = 0 && iv.hi = 0) in
  let can_be_false = contains_zero iv in
  match (a.Path_cond.expected, can_be_true, can_be_false) with
  | true, false, _ -> Definitely_fails
  | true, true, false -> Definitely_holds
  | false, _, false -> Definitely_fails
  | false, false, true -> Definitely_holds
  | _, true, true -> Undecided

let check_env steps env atoms =
  let rec loop = function
    | [] -> `Possible
    | a :: rest -> (
      incr steps;
      match atom_status env a with
      | Definitely_fails -> `Refuted
      | Definitely_holds | Undecided -> loop rest)
  in
  loop atoms

(* Narrow per-input bounds using atoms of the direct shape
   [Input i  <cmp>  Const c].  Returns false when a domain empties
   (definite infeasibility). *)
let narrow env atoms =
  let ok = ref true in
  let update i lo hi =
    if i >= 0 && i < Array.length env then begin
      let iv = env.(i) in
      let lo = max iv.lo lo and hi = min iv.hi hi in
      env.(i) <- { lo; hi };
      if lo > hi then ok := false
    end
  in
  List.iter
    (fun (a : Path_cond.atom) ->
      match (a.Path_cond.cond, a.Path_cond.expected) with
      | Ir.Binop (cmp, Ir.Input i, Ir.Const c), expected -> (
        match (cmp, expected) with
        | Ir.Lt, true -> update i top_lo (c - 1)
        | Ir.Lt, false -> update i c top_hi
        | Ir.Le, true -> update i top_lo c
        | Ir.Le, false -> update i (c + 1) top_hi
        | Ir.Gt, true -> update i (c + 1) top_hi
        | Ir.Gt, false -> update i top_lo c
        | Ir.Ge, true -> update i c top_hi
        | Ir.Ge, false -> update i top_lo (c - 1)
        | Ir.Eq, true -> update i c c
        | (Ir.Eq | Ir.Ne | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.And | Ir.Or), _ -> ())
      | _ -> ())
    atoms;
  !ok

(* Constraint-derived value-ordering hints: constants (±1) and residue
   ladders r + k*m for every (modulus m, comparison constant r). *)
let hints ~domain:(dom_lo, dom_hi) atoms =
  let consts = Path_cond.constants atoms in
  let mods = List.filter (fun m -> m > 1) (Path_cond.moduli atoms) in
  let near = List.concat_map (fun c -> [ c - 1; c; c + 1 ]) consts in
  let ladders =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun r ->
            if r >= 0 && r < m then
              let rec ladder v acc = if v > dom_hi then acc else ladder (v + m) (v :: acc) in
              ladder (((dom_lo / m) * m) + r) []
            else [])
          consts)
      mods
  in
  List.filter (fun v -> v >= dom_lo && v <= dom_hi) (near @ ladders)
  |> List.sort_uniq Int.compare

(* Resumable backtracking enumeration.  One frame per used input; a
   frame remembers the interval it clobbered and the candidate values
   not yet tried.  [advance] performs one "try" (or one backtrack pop),
   the fuel-check granularity of [step]. *)
type frame = {
  input : int;
  saved : interval;
  below : int list;  (* used inputs still to fix beneath this frame *)
  mutable pending : int list;
}

type enum = {
  atoms : Path_cond.t;
  env : interval array;
  candidates : int list;
  dom_lo : int;
  mutable stack : frame list;
  mutable steps : int;
  mutable result : verdict option;
}

let verify_leaf st =
  (* All used inputs fixed: verify concretely. *)
  let model = Array.map (fun iv -> if iv.lo = iv.hi then iv.lo else st.dom_lo) st.env in
  st.steps <- st.steps + 1;
  if Path_cond.satisfied_by st.atoms model then st.result <- Some (Sat model)

let push_frame st input below =
  st.stack <- { input; saved = st.env.(input); below; pending = st.candidates } :: st.stack

let start ~domain:(dom_lo, dom_hi) ~n_inputs atoms =
  if dom_lo > dom_hi then invalid_arg "Interval.start: empty domain";
  if n_inputs < 0 then invalid_arg "Interval.start: negative n_inputs";
  if not (Path_cond.well_formed atoms) then
    invalid_arg "Interval.start: path condition mentions program variables";
  let env = Array.make n_inputs { lo = dom_lo; hi = dom_hi } in
  let used = Path_cond.inputs_used atoms in
  let used = List.filter (fun i -> i < n_inputs) used in
  let hinted = hints ~domain:(dom_lo, dom_hi) atoms in
  let candidates =
    (* Hinted values first, then the rest of the domain ascending, in
       one pass: a mask over the domain marks the (in-domain) hints. *)
    let hinted_mask = Bytes.make (dom_hi - dom_lo + 1) '\000' in
    List.iter (fun v -> Bytes.set hinted_mask (v - dom_lo) '\001') hinted;
    let rec rest v acc =
      if v < dom_lo then acc
      else rest (v - 1) (if Bytes.get hinted_mask (v - dom_lo) = '\000' then v :: acc else acc)
    in
    hinted @ rest dom_hi []
  in
  let st = { atoms; env; candidates; dom_lo; stack = []; steps = 0; result = None } in
  let steps = ref 0 in
  (if not (narrow env atoms) then st.result <- Some Unsat
   else
     match check_env steps env atoms with
     | `Refuted -> st.result <- Some Unsat
     | `Possible -> (
       match used with
       | [] ->
         verify_leaf st;
         if st.result = None then st.result <- Some Unsat
       | input :: below -> push_frame st input below));
  st.steps <- st.steps + !steps;
  st

(* One enumeration move: try the next pending value of the top frame,
   descending on success, or pop an exhausted frame. *)
let advance st =
  match st.stack with
  | [] -> st.result <- Some Unsat
  | frame :: rest -> (
    match frame.pending with
    | [] ->
      st.env.(frame.input) <- frame.saved;
      st.stack <- rest
    | v :: pending -> (
      frame.pending <- pending;
      st.env.(frame.input) <- point v;
      let steps = ref 0 in
      let status = check_env steps st.env st.atoms in
      st.steps <- st.steps + !steps;
      match status with
      | `Refuted -> ()
      | `Possible -> (
        match frame.below with
        | [] -> verify_leaf st
        | input :: below -> push_frame st input below)))

let step st ~fuel =
  match st.result with
  | Some verdict -> `Done verdict
  | None ->
    let floor = st.steps in
    let rec go () =
      advance st;
      match st.result with
      | Some verdict -> `Done verdict
      | None -> if st.steps - floor >= fuel then `More else go ()
    in
    go ()

let enum_steps st = st.steps

let solve ?(budget = 2_000_000) ~domain ~n_inputs atoms =
  let st = start ~domain ~n_inputs atoms in
  match step st ~fuel:budget with
  | `Done verdict -> { verdict; steps = st.steps }
  | `More -> { verdict = Timeout; steps = st.steps }

let check_interval_only ~domain:(dom_lo, dom_hi) ~n_inputs atoms =
  if not (Path_cond.well_formed atoms) then `Unknown
  else
    let env = Array.make (max n_inputs 0) { lo = dom_lo; hi = dom_hi } in
    if not (narrow env atoms) then `Infeasible
    else
      let steps = ref 0 in
      match check_env steps env atoms with
      | `Refuted -> `Infeasible
      | `Possible -> `Feasible
