type verdict =
  | Sat of Cnf.assignment
  | Unsat

let check_size formula =
  if formula.Cnf.n_vars > 22 then
    invalid_arg (Printf.sprintf "Brute: %d variables is too many" formula.Cnf.n_vars)

let assignment_of_mask n mask =
  let a = Array.make (n + 1) false in
  for v = 1 to n do
    a.(v) <- mask land (1 lsl (v - 1)) <> 0
  done;
  a

let solve formula =
  check_size formula;
  let n = formula.Cnf.n_vars in
  let rec loop mask =
    if mask >= 1 lsl n then Unsat
    else
      let a = assignment_of_mask n mask in
      if Cnf.eval a formula then Sat a else loop (mask + 1)
  in
  loop 0
