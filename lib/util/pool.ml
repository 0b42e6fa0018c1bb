type t = {
  n : int;
  mutex : Mutex.t;
  work : Condition.t;  (* a task was queued, or [stop] flipped *)
  settled : Condition.t;  (* a map call's last task finished *)
  mutable queue : (unit -> unit) list;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    match t.queue with
    | task :: rest ->
      t.queue <- rest;
      Some task
    | [] ->
      if t.stop then None
      else begin
        Condition.wait t.work t.mutex;
        next ()
      end
  in
  match next () with
  | None -> Mutex.unlock t.mutex
  | Some task ->
    Mutex.unlock t.mutex;
    task ();
    worker_loop t

let create ~size =
  let n = max 1 size in
  let t =
    {
      n;
      mutex = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      queue = [];
      stop = false;
      workers = [];
    }
  in
  if n > 1 then t.workers <- List.init n (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.n

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.workers = [] -> List.map f xs
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let remaining = ref n in
    (* Each task writes its own slot, then updates the shared countdown
       under the pool mutex; the caller's final read of [results] is
       ordered after every write by the same mutex. *)
    let task i () =
      let r = try Ok (f items.(i)) with e -> Error e in
      Mutex.lock t.mutex;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.settled;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = n - 1 downto 0 do
      t.queue <- task i :: t.queue
    done;
    Condition.broadcast t.work;
    while !remaining > 0 do
      Condition.wait t.settled t.mutex
    done;
    Mutex.unlock t.mutex;
    Array.to_list
      (Array.map
         (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
         results)

let shutdown t =
  if t.workers <> [] then begin
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end
