module Rng = Softborg_util.Rng

let check ?cache ~domain ~n_inputs cond =
  match cache with
  | None -> Interval.check_interval_only ~domain ~n_inputs cond
  | Some cache -> (
    let key = Verdict_cache.check_key ~domain ~n_inputs cond in
    match Verdict_cache.find cache key with
    | Some (Verdict_cache.Check status) -> status
    | Some (Verdict_cache.Solved _) | None ->
      let status = Interval.check_interval_only ~domain ~n_inputs cond in
      Verdict_cache.add cache key (Verdict_cache.Check status);
      status)

(* Random probing: draw input vectors uniformly from the domain and
   verify them with {!Path_cond.satisfied_by}, so any model it reports
   is sound by construction.  Seeded from the condition's digest: the
   stream depends only on the query, never on call order.  Each draw
   fills one scratch vector, slot 0 first, and only a satisfying draw
   is copied out as the model, so a failed draw allocates nothing
   beyond the generator's own state. *)
type probe = {
  p_rng : Rng.t;
  p_lo : int;
  p_width : int;
  p_draw : int array;  (* scratch: the vector being tried *)
  p_cond : Path_cond.t;
  mutable p_steps : int;
  mutable p_found : int array option;
}

let probe_start ~domain:(lo, hi) ~n_inputs cond =
  let width = hi - lo + 1 in
  let width = if width <= 0 then max_int else width (* overflow guard *) in
  let seed = Hashtbl.hash (Path_cond.digest cond, lo, hi, n_inputs) in
  {
    p_rng = Rng.create seed;
    p_lo = lo;
    p_width = width;
    p_draw = Array.make n_inputs 0;
    p_cond = cond;
    p_steps = 0;
    p_found = None;
  }

let probe_step p ~fuel =
  let floor = p.p_steps in
  let rec loop () =
    match p.p_found with
    | Some model -> `Done model
    | None ->
      if p.p_steps - floor >= fuel then `More
      else begin
        let v = p.p_draw in
        for slot = 0 to Array.length v - 1 do
          v.(slot) <- p.p_lo + Rng.int p.p_rng p.p_width
        done;
        p.p_steps <- p.p_steps + 1;
        if Path_cond.satisfied_by p.p_cond v then p.p_found <- Some (Array.copy v);
        loop ()
      end
  in
  loop ()

let solve_uncached ~slice ~budget ~domain ~n_inputs cond =
  let enum = Interval.start ~domain ~n_inputs cond in
  let probe = probe_start ~domain ~n_inputs cond in
  let spent () = Interval.enum_steps enum + probe.p_steps in
  (* Round-robin over the two members, enumeration first, against one
     shared budget of executed steps.  Unsat can only come from the
     enumeration (the probe never refutes); Timeout only once the
     budget is gone. *)
  let rec round () =
    if spent () >= budget then { Interval.verdict = Interval.Timeout; steps = spent () }
    else
      let fuel = min slice (budget - spent ()) in
      match Interval.step enum ~fuel with
      | `Done verdict -> { Interval.verdict; steps = spent () }
      | `More ->
        if spent () >= budget then { Interval.verdict = Interval.Timeout; steps = spent () }
        else (
          let fuel = min slice (budget - spent ()) in
          match probe_step probe ~fuel with
          | `Done model -> { Interval.verdict = Interval.Sat model; steps = spent () }
          | `More -> round ())
  in
  round ()

let default_budget = 2_000_000

let solve ?(slice = Portfolio.default_slice) ?(budget = default_budget) ?cache ~domain ~n_inputs
    cond =
  if slice <= 0 then invalid_arg "Pc_solve.solve: slice must be positive";
  match cache with
  | None -> solve_uncached ~slice ~budget ~domain ~n_inputs cond
  | Some cache -> (
    let key = Verdict_cache.solve_key ~domain ~n_inputs ~budget cond in
    match Verdict_cache.find cache key with
    | Some (Verdict_cache.Solved verdict) -> { Interval.verdict; steps = 0 }
    | Some (Verdict_cache.Check _) | None ->
      let outcome = solve_uncached ~slice ~budget ~domain ~n_inputs cond in
      Verdict_cache.add cache key (Verdict_cache.Solved outcome.Interval.verdict);
      outcome)
