module Codec = Softborg_util.Codec

let unop_tag = function Ir.Neg -> 0 | Ir.Not -> 1

let unop_of_tag = function
  | 0 -> Ir.Neg
  | 1 -> Ir.Not
  | n -> raise (Codec.Malformed (Printf.sprintf "unop tag %d" n))

let binop_tag = function
  | Ir.Add -> 0
  | Ir.Sub -> 1
  | Ir.Mul -> 2
  | Ir.Div -> 3
  | Ir.Mod -> 4
  | Ir.Eq -> 5
  | Ir.Ne -> 6
  | Ir.Lt -> 7
  | Ir.Le -> 8
  | Ir.Gt -> 9
  | Ir.Ge -> 10
  | Ir.And -> 11
  | Ir.Or -> 12

let binop_of_tag = function
  | 0 -> Ir.Add
  | 1 -> Ir.Sub
  | 2 -> Ir.Mul
  | 3 -> Ir.Div
  | 4 -> Ir.Mod
  | 5 -> Ir.Eq
  | 6 -> Ir.Ne
  | 7 -> Ir.Lt
  | 8 -> Ir.Le
  | 9 -> Ir.Gt
  | 10 -> Ir.Ge
  | 11 -> Ir.And
  | 12 -> Ir.Or
  | n -> raise (Codec.Malformed (Printf.sprintf "binop tag %d" n))

let rec write_expr w = function
  | Ir.Const c ->
    Codec.Writer.byte w 0;
    Codec.Writer.zigzag w c
  | Ir.Input i ->
    Codec.Writer.byte w 1;
    Codec.Writer.varint w i
  | Ir.Var (Ir.Global name) ->
    Codec.Writer.byte w 2;
    Codec.Writer.bytes w name
  | Ir.Var (Ir.Local name) ->
    Codec.Writer.byte w 3;
    Codec.Writer.bytes w name
  | Ir.Unop (op, e) ->
    Codec.Writer.byte w 4;
    Codec.Writer.byte w (unop_tag op);
    write_expr w e
  | Ir.Binop (op, a, b) ->
    Codec.Writer.byte w 5;
    Codec.Writer.byte w (binop_tag op);
    write_expr w a;
    write_expr w b

let rec read_expr r =
  match Codec.Reader.byte r with
  | 0 -> Ir.Const (Codec.Reader.zigzag r)
  | 1 -> Ir.Input (Codec.Reader.varint r)
  | 2 -> Ir.Var (Ir.Global (Codec.Reader.bytes r))
  | 3 -> Ir.Var (Ir.Local (Codec.Reader.bytes r))
  | 4 ->
    let op = unop_of_tag (Codec.Reader.byte r) in
    Ir.Unop (op, read_expr r)
  | 5 ->
    let op = binop_of_tag (Codec.Reader.byte r) in
    let a = read_expr r in
    let b = read_expr r in
    Ir.Binop (op, a, b)
  | n -> raise (Codec.Malformed (Printf.sprintf "expr tag %d" n))

(* ---- Whole programs --------------------------------------------------- *)

let write_var w = function
  | Ir.Global name ->
    Codec.Writer.byte w 0;
    Codec.Writer.bytes w name
  | Ir.Local name ->
    Codec.Writer.byte w 1;
    Codec.Writer.bytes w name

let read_var r =
  match Codec.Reader.byte r with
  | 0 -> Ir.Global (Codec.Reader.bytes r)
  | 1 -> Ir.Local (Codec.Reader.bytes r)
  | n -> raise (Codec.Malformed (Printf.sprintf "var tag %d" n))

let write_syscall w kind =
  Codec.Writer.byte w
    (match kind with
    | Ir.Sys_read -> 0
    | Ir.Sys_open -> 1
    | Ir.Sys_write -> 2
    | Ir.Sys_net -> 3
    | Ir.Sys_time -> 4)

let read_syscall r =
  match Codec.Reader.byte r with
  | 0 -> Ir.Sys_read
  | 1 -> Ir.Sys_open
  | 2 -> Ir.Sys_write
  | 3 -> Ir.Sys_net
  | 4 -> Ir.Sys_time
  | n -> raise (Codec.Malformed (Printf.sprintf "syscall tag %d" n))

let write_site w (site : Ir.site) =
  Codec.Writer.varint w site.Ir.thread;
  Codec.Writer.varint w site.Ir.pc

let read_site r =
  let thread = Codec.Reader.varint r in
  let pc = Codec.Reader.varint r in
  { Ir.thread; pc }

let write_dir w ((site, direction) : Ir.site * bool) =
  write_site w site;
  Codec.Writer.bool w direction

let read_dir r =
  let site = read_site r in
  let direction = Codec.Reader.bool r in
  (site, direction)

let write_instr w = function
  | Ir.Assign (v, e) ->
    Codec.Writer.byte w 0;
    write_var w v;
    write_expr w e
  | Ir.Branch { cond; if_true; if_false } ->
    Codec.Writer.byte w 1;
    write_expr w cond;
    Codec.Writer.varint w if_true;
    Codec.Writer.varint w if_false
  | Ir.Jump pc ->
    Codec.Writer.byte w 2;
    Codec.Writer.varint w pc
  | Ir.Syscall { kind; dst } ->
    Codec.Writer.byte w 3;
    write_syscall w kind;
    write_var w dst
  | Ir.Lock l ->
    Codec.Writer.byte w 4;
    Codec.Writer.varint w l
  | Ir.Unlock l ->
    Codec.Writer.byte w 5;
    Codec.Writer.varint w l
  | Ir.Assert { cond; message } ->
    Codec.Writer.byte w 6;
    write_expr w cond;
    Codec.Writer.bytes w message
  | Ir.Yield -> Codec.Writer.byte w 7
  | Ir.Halt -> Codec.Writer.byte w 8

let read_instr r =
  match Codec.Reader.byte r with
  | 0 ->
    let v = read_var r in
    Ir.Assign (v, read_expr r)
  | 1 ->
    let cond = read_expr r in
    let if_true = Codec.Reader.varint r in
    let if_false = Codec.Reader.varint r in
    Ir.Branch { cond; if_true; if_false }
  | 2 -> Ir.Jump (Codec.Reader.varint r)
  | 3 ->
    let kind = read_syscall r in
    Ir.Syscall { kind; dst = read_var r }
  | 4 -> Ir.Lock (Codec.Reader.varint r)
  | 5 -> Ir.Unlock (Codec.Reader.varint r)
  | 6 ->
    let cond = read_expr r in
    Ir.Assert { cond; message = Codec.Reader.bytes r }
  | 7 -> Ir.Yield
  | 8 -> Ir.Halt
  | n -> raise (Codec.Malformed (Printf.sprintf "instr tag %d" n))

let write_program w (p : Ir.t) =
  Codec.Writer.bytes w p.Ir.name;
  Codec.Writer.list w (Codec.Writer.bytes w) p.Ir.globals;
  Codec.Writer.varint w p.Ir.n_inputs;
  Codec.Writer.varint w p.Ir.n_locks;
  Codec.Writer.list w
    (fun body -> Codec.Writer.list w (write_instr w) (Array.to_list body))
    (Array.to_list p.Ir.threads)

let read_program r =
  let name = Codec.Reader.bytes r in
  let globals = Codec.Reader.list r Codec.Reader.bytes in
  let n_inputs = Codec.Reader.varint r in
  let n_locks = Codec.Reader.varint r in
  let threads =
    Codec.Reader.list r (fun r -> Array.of_list (Codec.Reader.list r read_instr))
    |> Array.of_list
  in
  { Ir.name; globals; n_inputs; n_locks; threads }
