module Lru = Softborg_util.Lru

type entry =
  | Check of [ `Feasible | `Infeasible | `Unknown ]
  | Solved of Interval.verdict

type t = (string, entry) Lru.t

let create () = Lru.create 4096

(* The key must pin down everything the answer depends on: the query
   kind (a [Check] and a [Solved] for the same condition are different
   facts), the input domain and arity, the budget for budget-bounded
   queries, and the condition itself via its canonical digest. *)
let key ~kind ~domain:(lo, hi) ~n_inputs ~budget cond =
  Printf.sprintf "%c|%d|%d|%d|%d|%s" kind lo hi n_inputs budget (Path_cond.digest cond)

let check_key ~domain ~n_inputs cond = key ~kind:'c' ~domain ~n_inputs ~budget:0 cond
let solve_key ~domain ~n_inputs ~budget cond = key ~kind:'s' ~domain ~n_inputs ~budget cond

let find = Lru.find
let add = Lru.add
let length = Lru.length
let hits = Lru.hits
let misses = Lru.misses
