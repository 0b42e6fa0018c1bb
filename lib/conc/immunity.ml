module Interp = Softborg_exec.Interp

type t = { mutable sets : int list list }

let normalize locks = List.sort_uniq Int.compare locks

let create ~patterns = { sets = List.map normalize patterns }

let patterns t = t.sets

let add_pattern t locks =
  let key = normalize locks in
  if not (List.mem key t.sets) then t.sets <- key :: t.sets

let hooks t =
  {
    Interp.on_lock_request =
      (fun ~thread ~lock ~holding ~owner ->
        let dangerous pattern =
          List.mem lock pattern
          (* Entering the pattern (holding none of its locks)... *)
          && (not (List.exists (fun l -> List.mem l pattern) holding))
          (* ...while another thread is inside it. *)
          && List.exists
               (fun l ->
                 match owner l with Some other -> other <> thread | None -> false)
               pattern
        in
        if List.exists dangerous t.sets then `Defer else `Proceed);
    Interp.on_crash = (fun ~site:_ ~kind:_ -> `Propagate);
  }
