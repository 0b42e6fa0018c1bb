let map ~domains f xs =
  let n = List.length xs in
  if min domains n <= 1 then List.map f xs
  else begin
    let items = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* The caller and every helper claim indices from one counter, so
       no element runs twice and a slow element never idles the rest.
       [f]'s exceptions are caught per element: [work] never raises. *)
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (try Ok (f items.(i)) with e -> Error e);
        work ()
      end
    in
    let helpers = ref [] in
    (* [Domain.join] orders every helper's writes to [results] before
       the read below; joining in [finally] keeps a failed spawn from
       leaving the helpers already started running past the call. *)
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !helpers)
      (fun () ->
        for _ = 2 to min domains n do
          helpers := Domain.spawn work :: !helpers
        done;
        work ());
    List.map
      (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
      (Array.to_list results)
  end
