module Rng = Softborg_util.Rng

type verdict =
  | V_sat
  | V_unsat
  | V_unknown

type run = {
  solver : string;
  verdict : verdict;
  steps : int;
}

type member = {
  step : fuel:int -> [ `Done of verdict | `More ];
  steps : unit -> int;
}

type solver = {
  name : string;
  budget : int;
  start : Cnf.formula -> member;
}

let dpll_solver ?heuristic ~budget name =
  {
    name;
    budget;
    start =
      (fun formula ->
        (* Each instance branches from its own split stream: how far a
           run advances before being cancelled can then never leak into
           the next race. *)
        let heuristic =
          match heuristic with
          | Some (Dpll.Random_branch rng) -> Some (Dpll.Random_branch (Rng.split rng))
          | other -> other
        in
        let st = Dpll.start ?heuristic formula in
        {
          step =
            (fun ~fuel ->
              match Dpll.step st ~fuel with
              | `Done (Dpll.Sat _) -> `Done V_sat
              | `Done Dpll.Unsat -> `Done V_unsat
              | `Done Dpll.Timeout -> `Done V_unknown  (* not produced by Dpll.step *)
              | `More -> `More);
          steps = (fun () -> Dpll.steps st);
        });
  }

let walksat_solver ~budget ~seed name =
  let base = Rng.create seed in
  {
    name;
    budget;
    start =
      (fun formula ->
        (* One split per call: every instance draws from an independent
           stream, yet the sequence of races replays from [seed]. *)
        let st = Walksat.start ~rng:(Rng.split base) formula in
        {
          step =
            (fun ~fuel ->
              match Walksat.step st ~fuel with
              | `Done (Walksat.Sat _) -> `Done V_sat
              | `Done Walksat.Timeout -> `Done V_unknown  (* not produced by Walksat.step *)
              | `More -> `More);
          steps = (fun () -> Walksat.steps st);
        });
  }

let standard_three ~budget ~seed =
  [
    dpll_solver ~heuristic:Dpll.Max_occurrence ~budget "dpll-maxocc";
    (* Random branching is a genuinely different systematic profile:
       on uniform 3-SAT, Jeroslow–Wang degenerates to max-occurrence. *)
    dpll_solver ~heuristic:(Dpll.Random_branch (Rng.create (seed + 1))) ~budget "dpll-rand";
    walksat_solver ~budget ~seed "walksat";
  ]

type race_result = {
  verdict : verdict;
  winner : string option;
  wall_steps : int;
  resource_steps : int;
  runs : run list;
}

let default_slice = 4096

(* ---- Preemptive sliced race ------------------------------------------- *)

let race ?(slice = default_slice) members formula =
  if members = [] then invalid_arg "Portfolio.race: empty portfolio";
  if slice <= 0 then invalid_arg "Portfolio.race: slice must be positive";
  let members = Array.of_list members in
  let n = Array.length members in
  let states = Array.map (fun solver -> solver.start formula) members in
  (* What each member is charged: its steps when the schedule last
     visited it.  A member the race never reached is charged 0, even if
     its [start] already did work. *)
  let charged = Array.make n 0 in
  let stopped = Array.make n false in
  (* Visit member [i] of the current round; past the last member, start
     the next round while anyone can still run.  A member is stopped at
     the first visit that finds its budget spent.  Returns the first
     decision in schedule order. *)
  let rec visit i =
    if i = n then if Array.exists not stopped then visit 0 else None
    else if stopped.(i) then visit (i + 1)
    else begin
      let state = states.(i) and budget = members.(i).budget in
      let spent = state.steps () in
      charged.(i) <- spent;
      if spent >= budget then begin
        stopped.(i) <- true;
        visit (i + 1)
      end
      else
        let outcome = state.step ~fuel:(min slice (budget - spent)) in
        charged.(i) <- state.steps ();
        match outcome with `Done verdict -> Some (i, verdict) | `More -> visit (i + 1)
    end
  in
  let decision = visit 0 in
  let verdict_of i = match decision with Some (j, verdict) when j = i -> verdict | _ -> V_unknown in
  let runs =
    List.init n (fun i ->
        { solver = members.(i).name; verdict = verdict_of i; steps = charged.(i) })
  in
  let resource_steps = Array.fold_left ( + ) 0 charged in
  match decision with
  | None ->
    (* Nobody decided: the race ran until every member gave up. *)
    let wall_steps = Array.fold_left max 0 charged in
    { verdict = V_unknown; winner = None; wall_steps; resource_steps; runs }
  | Some (i, verdict) ->
    { verdict; winner = Some members.(i).name; wall_steps = charged.(i); resource_steps; runs }

(* ---- Whole-budget baseline -------------------------------------------- *)

let race_whole_budget members formula =
  if members = [] then invalid_arg "Portfolio.race_whole_budget: empty portfolio";
  let runs =
    List.map
      (fun solver ->
        let st = solver.start formula in
        match st.step ~fuel:solver.budget with
        | `Done verdict -> { solver = solver.name; verdict; steps = st.steps () }
        | `More -> { solver = solver.name; verdict = V_unknown; steps = st.steps () })
      members
  in
  let resources = List.fold_left (fun acc (r : run) -> acc + r.steps) 0 runs in
  let deciders = List.filter (fun (r : run) -> r.verdict <> V_unknown) runs in
  match List.sort (fun (a : run) (b : run) -> Int.compare a.steps b.steps) deciders with
  | [] ->
    let wall = List.fold_left (fun acc (r : run) -> max acc r.steps) 0 runs in
    { verdict = V_unknown; winner = None; wall_steps = wall; resource_steps = resources; runs }
  | best :: _ ->
    {
      verdict = best.verdict;
      winner = Some best.solver;
      wall_steps = best.steps;
      resource_steps = resources;
      runs;
    }

let speedup ~single_steps ~portfolio_steps =
  if portfolio_steps <= 0.0 then Float.nan else single_steps /. portfolio_steps
