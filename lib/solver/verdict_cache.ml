module Lru = Softborg_util.Lru

type entry =
  | Check of [ `Feasible | `Infeasible | `Unknown ]
  | Solved of Interval.verdict

type t = {
  lru : (string, entry) Lru.t;
  lock : Mutex.t;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  { lru = Lru.create capacity; lock = Mutex.create () }

(* The key must pin down everything the answer depends on: the query
   kind (a [Check] and a [Solved] for the same condition are different
   facts), the input domain and arity, the budget for budget-bounded
   queries, and the condition itself via its canonical digest. *)
let key ~kind ~domain:(lo, hi) ~n_inputs ~budget cond =
  Printf.sprintf "%c|%d|%d|%d|%d|%s" kind lo hi n_inputs budget (Path_cond.digest cond)

let check_key ~domain ~n_inputs cond = key ~kind:'c' ~domain ~n_inputs ~budget:0 cond
let solve_key ~domain ~n_inputs ~budget cond = key ~kind:'s' ~domain ~n_inputs ~budget cond

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t k = locked t (fun () -> Lru.find t.lru k)
let add t k v = locked t (fun () -> Lru.add t.lru k v)
let length t = locked t (fun () -> Lru.length t.lru)
let hits t = locked t (fun () -> Lru.hits t.lru)
let misses t = locked t (fun () -> Lru.misses t.lru)
