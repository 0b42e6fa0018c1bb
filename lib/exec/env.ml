module Rng = Softborg_util.Rng
module Ir = Softborg_prog.Ir

type fault_plan =
  | No_faults
  | Random_faults of float
  | Targeted of int list

type t = {
  input_values : int array;
  plan : fault_plan;
  rng : Rng.t;
  mutable calls : int;
  mutable clock : int;
}

let make ?(fault_plan = No_faults) ~seed ~inputs () =
  { input_values = inputs; plan = fault_plan; rng = Rng.create seed; calls = 0; clock = 0 }

let inputs t = t.input_values
let fault_plan t = t.plan

let input t i =
  if i < 0 || i >= Array.length t.input_values then
    invalid_arg (Printf.sprintf "Env.input: slot %d out of range" i);
  t.input_values.(i)

let faulted t index =
  match t.plan with
  | No_faults -> false
  | Random_faults p -> Rng.bernoulli t.rng p
  | Targeted indices -> List.mem index indices

let syscall t kind =
  let index = t.calls in
  t.calls <- t.calls + 1;
  if faulted t index then -1
  else
    match kind with
    | Ir.Sys_read -> Rng.int t.rng 256
    | Ir.Sys_open -> 3 + Rng.int t.rng 8
    | Ir.Sys_write -> Rng.int t.rng 4096
    | Ir.Sys_net -> Rng.int t.rng 1400
    | Ir.Sys_time ->
      t.clock <- t.clock + 1 + Rng.int t.rng 10;
      t.clock
