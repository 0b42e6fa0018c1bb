module Interp = Softborg_exec.Interp

module Pair = struct
  type t = int * int

  let compare = compare
end

module Pair_map = Map.Make (Pair)
module Int_set = Set.Make (Int)

type t = { mutable edge_counts : int Pair_map.t }

let create () = { edge_counts = Pair_map.empty }

let add_edge t held acquired =
  t.edge_counts <-
    Pair_map.update (held, acquired)
      (function None -> Some 1 | Some n -> Some (n + 1))
      t.edge_counts

let add_events t = function
  | [] -> ()  (* most traces take no lock: allocate nothing for them *)
  | events ->
    (* Track the held set per thread through the event sequence. *)
    let held : (int, Int_set.t) Hashtbl.t = Hashtbl.create 4 in
    let held_of thread = Option.value ~default:Int_set.empty (Hashtbl.find_opt held thread) in
    List.iter
      (fun event ->
        match event with
        | Interp.Acquired { thread; lock; _ } ->
          let h = held_of thread in
          Int_set.iter (fun other -> add_edge t other lock) h;
          Hashtbl.replace held thread (Int_set.add lock h)
        | Interp.Released { thread; lock; _ } ->
          Hashtbl.replace held thread (Int_set.remove lock (held_of thread)))
      events

let merge dst src =
  Pair_map.iter
    (fun (a, b) count ->
      dst.edge_counts <-
        Pair_map.update (a, b)
          (function None -> Some count | Some n -> Some (n + count))
          dst.edge_counts)
    src.edge_counts

let edge_count t a b = Option.value ~default:0 (Pair_map.find_opt (a, b) t.edge_counts)

let edges t = Pair_map.fold (fun (a, b) count acc -> (a, b, count) :: acc) t.edge_counts []

let locks t =
  Pair_map.fold (fun (a, b) _ acc -> Int_set.add a (Int_set.add b acc)) t.edge_counts Int_set.empty
  |> Int_set.elements

let successors t a =
  Pair_map.fold
    (fun (x, y) _ acc -> if x = a then Int_set.add y acc else acc)
    t.edge_counts Int_set.empty

(* Enumerate simple cycles by DFS from each lock; report each cycle's
   lock set once.  Lock counts are tiny (programs have a handful of
   mutexes), so the simple algorithm is fine. *)
let cycles t =
  let all = locks t in
  let found = ref [] in
  let add_cycle path =
    let key = List.sort_uniq Int.compare path in
    if not (List.mem key !found) then found := key :: !found
  in
  let rec dfs start path node =
    Int_set.iter
      (fun next ->
        if next = start then add_cycle path
        else if (not (List.mem next path)) && next > start then
          (* Only visit locks above [start] so each cycle is found from
             its smallest member exactly once. *)
          dfs start (next :: path) next)
      (successors t node)
  in
  List.iter (fun start -> dfs start [ start ] start) all;
  List.rev !found

let pp fmt t =
  List.iter (fun (a, b, count) -> Format.fprintf fmt "l%d->l%d x%d@." a b count) (edges t)

module Codec = Softborg_util.Codec

let write w t =
  Codec.Writer.list w
    (fun ((a, b), count) ->
      Codec.Writer.varint w a;
      Codec.Writer.varint w b;
      Codec.Writer.varint w count)
    (Pair_map.bindings t.edge_counts)

let read r =
  let edge_counts =
    List.fold_left
      (fun acc (key, count) -> Pair_map.add key count acc)
      Pair_map.empty
      (Codec.Reader.list r (fun r ->
           let a = Codec.Reader.varint r in
           let b = Codec.Reader.varint r in
           let count = Codec.Reader.varint r in
           ((a, b), count)))
  in
  { edge_counts }
