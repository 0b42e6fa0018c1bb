module Ir = Softborg_prog.Ir
module Codec = Softborg_util.Codec
module Ir_codec = Softborg_prog.Ir_codec
module Testgen = Softborg_symexec.Testgen

type verdict =
  [ `Test of Testgen.test_case
  | `Infeasible
  | `Unknown
  ]

type binding = (Ir.site * bool) * verdict

type t = {
  table : (Ir.site * bool, verdict) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { table = Hashtbl.create 64; hits = 0; misses = 0 }

let find t ~site ~direction =
  match Hashtbl.find_opt t.table (site, direction) with
  | Some _ as found ->
    t.hits <- t.hits + 1;
    found
  | None ->
    t.misses <- t.misses + 1;
    None

let add t ~site ~direction verdict = Hashtbl.replace t.table (site, direction) verdict
let iter t f = Hashtbl.iter (fun key verdict -> f (key, verdict)) t.table

let union ~into t =
  Hashtbl.iter
    (fun key verdict -> if not (Hashtbl.mem into.table key) then Hashtbl.add into.table key verdict)
    t.table

let derive ?memo ?config ?cache program ~site ~direction =
  let solve () = Testgen.for_direction ?config ?cache program ~site ~direction in
  match memo with
  | None -> solve ()
  | Some t -> (
    match find t ~site ~direction with
    | Some verdict -> verdict
    | None ->
      let verdict = solve () in
      add t ~site ~direction verdict;
      verdict)

let length t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses

let write_binding w (dir, verdict) =
  Ir_codec.write_dir w dir;
  match verdict with
  | `Test test ->
    Codec.Writer.byte w 0;
    Testgen.write_test_case w test
  | `Infeasible -> Codec.Writer.byte w 1
  | `Unknown -> Codec.Writer.byte w 2

let read_binding r =
  let dir = Ir_codec.read_dir r in
  let verdict =
    match Codec.Reader.byte r with
    | 0 -> `Test (Testgen.read_test_case r)
    | 1 -> `Infeasible
    | 2 -> `Unknown
    | n -> raise (Codec.Malformed (Printf.sprintf "gap verdict tag %d" n))
  in
  (dir, verdict)

let write w t =
  Codec.Writer.list w (write_binding w)
    (Hashtbl.fold (fun key verdict acc -> (key, verdict) :: acc) t.table []
    |> List.sort (fun ((s1, d1), _) ((s2, d2), _) ->
           match Ir.site_compare s1 s2 with 0 -> Bool.compare d1 d2 | c -> c))

let read r t =
  ignore
    (Codec.Reader.list r (fun r ->
         let (site, direction), verdict = read_binding r in
         add t ~site ~direction verdict))
