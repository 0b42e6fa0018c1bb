module Rng = Softborg_util.Rng

type verdict =
  | Sat of Cnf.assignment
  | Timeout

type outcome = {
  verdict : verdict;
  steps : int;
}

(* Incremental WalkSAT: per-clause true-literal counts maintained via
   occurrence lists, O(1) unsatisfied-clause sampling, and break counts
   computed from the counts — each clause touch costs one step, the
   same unit as DPLL's clause examinations.  The mutable state doubles
   as the resumable-search state: one flip iteration is the
   fuel-check granularity of [step]. *)

type state = {
  clauses : int array array;
  occurrences : (int * int) list array;  (* var -> (clause idx, literal) *)
  assignment : bool array;
  n_true : int array;  (* clause -> currently-true literal count *)
  unsat : int array;  (* dense set of unsatisfied clause indices *)
  mutable unsat_size : int;
  position : int array;  (* clause -> index in [unsat], or -1 *)
  mutable steps : int;
  n : int;
  rng : Rng.t;
  noise : float;
  restart_period : int;
  mutable flips : int;
  mutable result : Cnf.assignment option;
}

let lit_true st lit = if lit > 0 then st.assignment.(lit) else not st.assignment.(-lit)

let unsat_add st c =
  if st.position.(c) < 0 then begin
    st.unsat.(st.unsat_size) <- c;
    st.position.(c) <- st.unsat_size;
    st.unsat_size <- st.unsat_size + 1
  end

let unsat_remove st c =
  let pos = st.position.(c) in
  if pos >= 0 then begin
    let last = st.unsat.(st.unsat_size - 1) in
    st.unsat.(pos) <- last;
    st.position.(last) <- pos;
    st.unsat_size <- st.unsat_size - 1;
    st.position.(c) <- -1
  end

let recount st =
  st.unsat_size <- 0;
  Array.fill st.position 0 (Array.length st.position) (-1);
  Array.iteri
    (fun c clause ->
      st.steps <- st.steps + 1;
      let trues = Array.fold_left (fun acc lit -> if lit_true st lit then acc + 1 else acc) 0 clause in
      st.n_true.(c) <- trues;
      if trues = 0 then unsat_add st c)
    st.clauses

(* The flip loop and break counts run once per flip; like
   [Dpll.ivalue] they must not allocate, so both walk their occurrence
   lists with plain while loops instead of closures. *)
let flip st v =
  st.assignment.(v) <- not st.assignment.(v);
  let rest = ref st.occurrences.(v) in
  let continue_ = ref true in
  while !continue_ do
    match !rest with
    | [] -> continue_ := false
    | (c, lit) :: tl ->
      rest := tl;
      st.steps <- st.steps + 1;
      if lit_true st lit then begin
        st.n_true.(c) <- st.n_true.(c) + 1;
        if st.n_true.(c) = 1 then unsat_remove st c
      end
      else begin
        st.n_true.(c) <- st.n_true.(c) - 1;
        if st.n_true.(c) = 0 then unsat_add st c
      end
  done

(* Clauses this variable would break: those where its literal is the
   only true one. *)
let break_count st v =
  let acc = ref 0 in
  let rest = ref st.occurrences.(v) in
  let continue_ = ref true in
  while !continue_ do
    match !rest with
    | [] -> continue_ := false
    | (c, lit) :: tl ->
      rest := tl;
      st.steps <- st.steps + 1;
      if lit_true st lit && st.n_true.(c) = 1 then incr acc
  done;
  !acc

let randomize st =
  for v = 1 to st.n do
    st.assignment.(v) <- Rng.bool st.rng
  done;
  recount st

let start ?(noise = 0.5) ~rng formula =
  let clauses = Array.of_list (List.map Array.of_list formula.Cnf.clauses) in
  let n = formula.Cnf.n_vars in
  let m = Array.length clauses in
  let occurrences = Array.make (n + 1) [] in
  Array.iteri
    (fun c clause ->
      Array.iter
        (fun lit ->
          let v = abs lit in
          occurrences.(v) <- (c, lit) :: occurrences.(v))
        clause)
    clauses;
  let st =
    {
      clauses;
      occurrences;
      assignment = Array.make (n + 1) false;
      n_true = Array.make m 0;
      unsat = Array.make m 0;
      unsat_size = 0;
      position = Array.make m (-1);
      steps = 0;
      n;
      rng;
      noise;
      restart_period = max 10_000 (100 * n);
      flips = 0;
      result = None;
    }
  in
  if m > 0 then randomize st;
  st

let steps st = st.steps

let step st ~fuel =
  match st.result with
  | Some assignment -> `Done (Sat assignment)
  | None ->
    let floor = st.steps in
    let rec loop () =
      if st.unsat_size = 0 then begin
        let assignment = Array.copy st.assignment in
        st.result <- Some assignment;
        `Done (Sat assignment)
      end
      else if st.steps - floor >= fuel then `More
      else begin
        if st.flips > 0 && st.flips mod st.restart_period = 0 then randomize st;
        if st.unsat_size > 0 then begin
          let clause = st.clauses.(st.unsat.(Rng.int st.rng st.unsat_size)) in
          let v =
            if Rng.bernoulli st.rng st.noise then abs clause.(Rng.int st.rng (Array.length clause))
            else begin
              (* Greedy: flip the variable breaking the fewest clauses. *)
              let best = ref (abs clause.(0)) and best_break = ref max_int in
              for k = 0 to Array.length clause - 1 do
                let lit = clause.(k) in
                let b = break_count st (abs lit) in
                if b < !best_break then begin
                  best := abs lit;
                  best_break := b
                end
              done;
              !best
            end
          in
          flip st v
        end;
        st.flips <- st.flips + 1;
        loop ()
      end
    in
    loop ()

let solve ?noise ?(budget = 10_000_000) ~rng formula =
  let st = start ?noise ~rng formula in
  match step st ~fuel:budget with
  | `Done verdict -> { verdict; steps = st.steps }
  | `More -> { verdict = Timeout; steps = st.steps }
