module Ir = Softborg_prog.Ir

type atom = {
  cond : Ir.expr;
  expected : bool;
}

type t = atom list

let atom cond expected = { cond; expected }

let rec expr_input_only = function
  | Ir.Const _ -> true
  | Ir.Input _ -> true
  | Ir.Var _ -> false
  | Ir.Unop (_, e) -> expr_input_only e
  | Ir.Binop (_, a, b) -> expr_input_only a && expr_input_only b

let well_formed t = List.for_all (fun a -> expr_input_only a.cond) t

let rec expr_inputs acc = function
  | Ir.Const _ | Ir.Var _ -> acc
  | Ir.Input i -> i :: acc
  | Ir.Unop (_, e) -> expr_inputs acc e
  | Ir.Binop (_, a, b) -> expr_inputs (expr_inputs acc a) b

let inputs_used t =
  List.fold_left (fun acc a -> expr_inputs acc a.cond) [] t |> List.sort_uniq Int.compare

let of_bool b = if b then 1 else 0
let truth n = n <> 0

(* Concrete evaluation for [satisfied_by], which runs once per probe
   draw and enumeration leaf, so it allocates nothing: an undefined
   value (a stray [Var], an out-of-range input, division or modulo by
   zero) raises [Undefined] rather than boxing every result in an
   [option].  Both operands are evaluated before the operator, so
   [And]/[Or] do not short-circuit past an undefined operand. *)
exception Undefined

let rec eval inputs = function
  | Ir.Const c -> c
  | Ir.Var _ -> raise_notrace Undefined
  | Ir.Input i ->
    if i >= 0 && i < Array.length inputs then inputs.(i) else raise_notrace Undefined
  | Ir.Unop (Ir.Neg, e) -> -eval inputs e
  | Ir.Unop (Ir.Not, e) -> of_bool (not (truth (eval inputs e)))
  | Ir.Binop (op, a, b) -> (
    let x = eval inputs a in
    let y = eval inputs b in
    match op with
    | Ir.Add -> x + y
    | Ir.Sub -> x - y
    | Ir.Mul -> x * y
    | Ir.Div -> if y = 0 then raise_notrace Undefined else x / y
    | Ir.Mod -> if y = 0 then raise_notrace Undefined else x mod y
    | Ir.Eq -> of_bool (x = y)
    | Ir.Ne -> of_bool (x <> y)
    | Ir.Lt -> of_bool (x < y)
    | Ir.Le -> of_bool (x <= y)
    | Ir.Gt -> of_bool (x > y)
    | Ir.Ge -> of_bool (x >= y)
    | Ir.And -> of_bool (truth x && truth y)
    | Ir.Or -> of_bool (truth x || truth y))

let rec all_hold inputs = function
  | [] -> true
  | a :: rest -> truth (eval inputs a.cond) = a.expected && all_hold inputs rest

let satisfied_by t inputs = try all_hold inputs t with Undefined -> false

let rec expr_constants acc = function
  | Ir.Const c -> c :: acc
  | Ir.Input _ | Ir.Var _ -> acc
  | Ir.Unop (_, e) -> expr_constants acc e
  | Ir.Binop (_, a, b) -> expr_constants (expr_constants acc a) b

let constants t =
  List.fold_left (fun acc a -> expr_constants acc a.cond) [] t |> List.sort_uniq Int.compare

let rec expr_moduli acc = function
  | Ir.Const _ | Ir.Input _ | Ir.Var _ -> acc
  | Ir.Unop (_, e) -> expr_moduli acc e
  | Ir.Binop (Ir.Mod, a, Ir.Const m) -> expr_moduli (m :: acc) a
  | Ir.Binop (_, a, b) -> expr_moduli (expr_moduli acc a) b

let moduli t =
  List.fold_left (fun acc a -> expr_moduli acc a.cond) [] t |> List.sort_uniq Int.compare

let digest t =
  let module Codec = Softborg_util.Codec in
  let w = Codec.Writer.create () in
  Codec.Writer.list w
    (fun a ->
      Codec.Writer.bool w a.expected;
      Softborg_prog.Ir_codec.write_expr w a.cond)
    t;
  Digest.string (Codec.Writer.contents w)

let pp fmt t =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " /\\ ")
    (fun fmt a ->
      if a.expected then Ir.pp_expr fmt a.cond
      else Format.fprintf fmt "!(%a)" Ir.pp_expr a.cond)
    fmt t
