type ('k, 'v) entry = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) entry option;  (* toward most recent *)
  mutable next : ('k, 'v) entry option;  (* toward least recent *)
}

type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable first : ('k, 'v) entry option;  (* most recently used *)
  mutable last : ('k, 'v) entry option;  (* least recently used *)
  mutable hit_count : int;
  mutable miss_count : int;
}

let create cap =
  if cap < 1 then invalid_arg "Lru.create: capacity must be at least 1";
  {
    cap;
    table = Hashtbl.create (2 * cap);
    first = None;
    last = None;
    hit_count = 0;
    miss_count = 0;
  }

let length t = Hashtbl.length t.table
let hits t = t.hit_count
let misses t = t.miss_count
let mem t key = Hashtbl.mem t.table key

let unlink t entry =
  (match entry.prev with
  | Some p -> p.next <- entry.next
  | None -> t.first <- entry.next);
  (match entry.next with
  | Some n -> n.prev <- entry.prev
  | None -> t.last <- entry.prev);
  entry.prev <- None;
  entry.next <- None

let push_front t entry =
  entry.next <- t.first;
  entry.prev <- None;
  (match t.first with
  | Some f -> f.prev <- Some entry
  | None -> t.last <- Some entry);
  t.first <- Some entry

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some entry ->
    t.hit_count <- t.hit_count + 1;
    unlink t entry;
    push_front t entry;
    Some entry.value
  | None ->
    t.miss_count <- t.miss_count + 1;
    None

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some entry ->
    entry.value <- value;
    unlink t entry;
    push_front t entry
  | None ->
    if Hashtbl.length t.table >= t.cap then
      Option.iter
        (fun oldest ->
          unlink t oldest;
          Hashtbl.remove t.table oldest.key)
        t.last;
    let entry = { key; value; prev = None; next = None } in
    Hashtbl.replace t.table key entry;
    push_front t entry

let remove t key =
  match Hashtbl.find_opt t.table key with
  | Some entry ->
    unlink t entry;
    Hashtbl.remove t.table key
  | None -> ()

let clear t =
  Hashtbl.reset t.table;
  t.first <- None;
  t.last <- None
