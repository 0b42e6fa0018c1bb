module Ir = Softborg_prog.Ir
module Testgen = Softborg_symexec.Testgen

type verdict =
  [ `Test of Testgen.test_case
  | `Infeasible
  | `Unknown
  ]

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

let mem t ~site ~direction = Hashtbl.mem t.table (site, direction)

let add t ~site ~direction verdict = Hashtbl.replace t.table (site, direction) verdict

let length t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
