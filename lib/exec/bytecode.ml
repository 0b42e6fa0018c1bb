module Ir = Softborg_prog.Ir

type thread_code = {
  code : int array;
  entry : int array;
  n_locals : int;
}

type t = {
  source_digest : string;
  threads : thread_code array;
  messages : string array;
  n_globals : int;
  n_locks : int;
  n_inputs : int;
  max_stack : int;
  n_instrs : int;
  n_ops : int;
}

(* ---- Opcode table -------------------------------------------------- *)

let op_push_const = 0
let op_push_local = 1
let op_push_global = 2
let op_push_input = 3
let op_neg = 4
let op_not = 5
let op_add = 6
let op_sub = 7
let op_mul = 8
let op_div = 9
let op_mod = 10
let op_eq = 11
let op_ne = 12
let op_lt = 13
let op_le = 14
let op_gt = 15
let op_ge = 16
let op_and = 17
let op_or = 18
let op_addc = 19
let op_subc = 20
let op_mulc = 21
let op_divc = 22
let op_modc = 23
let op_eqc = 24
let op_nec = 25
let op_ltc = 26
let op_lec = 27
let op_gtc = 28
let op_gec = 29
let op_andc = 30
let op_orc = 31
let op_store_local = 32
let op_store_global = 33
let op_store_local_const = 34
let op_store_global_const = 35
let op_br = 36
let op_br_const = 37
let op_jmp = 38
let op_sys = 39
let op_lock = 40
let op_unlock = 41
let op_assert = 42
let op_assert_fail = 43
let op_nop_end = 44
let op_halt = 45
let op_eob = 46

let ctx_branch = 0
let ctx_assert = 1
let ctx_assign = 2

let syscall_kind_code = function
  | Ir.Sys_read -> 0
  | Ir.Sys_open -> 1
  | Ir.Sys_write -> 2
  | Ir.Sys_net -> 3
  | Ir.Sys_time -> 4

let syscall_kind_of_code = function
  | 0 -> Ir.Sys_read
  | 1 -> Ir.Sys_open
  | 2 -> Ir.Sys_write
  | 3 -> Ir.Sys_net
  | 4 -> Ir.Sys_time
  | c -> invalid_arg (Printf.sprintf "Bytecode.syscall_kind_of_code: %d" c)

(* ---- Constant folding ---------------------------------------------- *)

let truth n = n <> 0
let of_bool b = if b then 1 else 0

(* Fold pure-constant subtrees.  Division/modulo by a constant zero is
   deliberately left unfolded: the runtime crash (and its hook
   consultation) must be byte-identical to the tree walk. *)
let rec fold_expr e =
  match e with
  | Ir.Const _ | Ir.Var _ | Ir.Input _ -> e
  | Ir.Unop (op, a) -> (
    match fold_expr a with
    | Ir.Const x -> Ir.Const (match op with Ir.Neg -> -x | Ir.Not -> of_bool (not (truth x)))
    | a' -> Ir.Unop (op, a'))
  | Ir.Binop (op, a, b) -> (
    let a' = fold_expr a and b' = fold_expr b in
    match (a', b') with
    | Ir.Const x, Ir.Const y -> (
      match op with
      | Ir.Add -> Ir.Const (x + y)
      | Ir.Sub -> Ir.Const (x - y)
      | Ir.Mul -> Ir.Const (x * y)
      | Ir.Div -> if y = 0 then Ir.Binop (op, a', b') else Ir.Const (x / y)
      | Ir.Mod -> if y = 0 then Ir.Binop (op, a', b') else Ir.Const (x mod y)
      | Ir.Eq -> Ir.Const (of_bool (x = y))
      | Ir.Ne -> Ir.Const (of_bool (x <> y))
      | Ir.Lt -> Ir.Const (of_bool (x < y))
      | Ir.Le -> Ir.Const (of_bool (x <= y))
      | Ir.Gt -> Ir.Const (of_bool (x > y))
      | Ir.Ge -> Ir.Const (of_bool (x >= y))
      | Ir.And -> Ir.Const (of_bool (truth x && truth y))
      | Ir.Or -> Ir.Const (of_bool (truth x || truth y)))
    | _ -> Ir.Binop (op, a', b'))

(* Worst-case operand-stack depth; superinstruction selection only ever
   lowers the real depth, so this bound stays safe. *)
let rec expr_depth = function
  | Ir.Const _ | Ir.Var _ | Ir.Input _ -> 1
  | Ir.Unop (_, e) -> expr_depth e
  | Ir.Binop (_, a, b) -> max (expr_depth a) (expr_depth b + 1)

(* ---- Compilation --------------------------------------------------- *)

type emitter = { mutable buf : int array; mutable len : int }

let emit e x =
  let cap = Array.length e.buf in
  if e.len = cap then begin
    let grown = Array.make (if cap = 0 then 64 else 2 * cap) 0 in
    Array.blit e.buf 0 grown 0 e.len;
    e.buf <- grown
  end;
  e.buf.(e.len) <- x;
  e.len <- e.len + 1

(* Superinstruction opcode for [op] with a constant right operand, or
   [-1] when the generic form must be used (non-commutative const-left,
   or a constant-zero divisor whose crash must stay dynamic). *)
let const_rhs_op op c =
  match op with
  | Ir.Add -> op_addc
  | Ir.Sub -> op_subc
  | Ir.Mul -> op_mulc
  | Ir.Div -> if c = 0 then -1 else op_divc
  | Ir.Mod -> if c = 0 then -1 else op_modc
  | Ir.Eq -> op_eqc
  | Ir.Ne -> op_nec
  | Ir.Lt -> op_ltc
  | Ir.Le -> op_lec
  | Ir.Gt -> op_gtc
  | Ir.Ge -> op_gec
  | Ir.And -> op_andc
  | Ir.Or -> op_orc

(* For [Const c OP x]: either an equivalent right-constant form (swap
   commutative ops, mirror comparisons) or [-1]. *)
let const_lhs_op op =
  match op with
  | Ir.Add -> op_addc
  | Ir.Mul -> op_mulc
  | Ir.Eq -> op_eqc
  | Ir.Ne -> op_nec
  | Ir.Lt -> op_gtc (* c < x  <=>  x > c *)
  | Ir.Le -> op_gec
  | Ir.Gt -> op_ltc
  | Ir.Ge -> op_lec
  | Ir.And -> op_andc
  | Ir.Or -> op_orc
  | Ir.Sub | Ir.Div | Ir.Mod -> -1

let compile (p : Ir.t) : t =
  let message_count = ref 0 in
  let message_strings = ref [] in
  let add_message msg =
    let idx = !message_count in
    incr message_count;
    message_strings := msg :: !message_strings;
    idx
  in
  let global_slots = Hashtbl.create 16 in
  List.iteri (fun i g -> Hashtbl.replace global_slots g i) p.Ir.globals;
  let n_globals = ref (List.length p.Ir.globals) in
  let global_slot g =
    match Hashtbl.find_opt global_slots g with
    | Some s -> s
    | None ->
      (* Defensive: [Ir.validate] rejects undeclared globals, but an
         unvalidated program must still compile to {e something}. *)
      let s = !n_globals in
      incr n_globals;
      Hashtbl.replace global_slots g s;
      s
  in
  let max_stack = ref 1 in
  let n_instrs = ref 0 in
  let n_ops = ref 0 in
  let compile_thread body =
    let local_slots = Hashtbl.create 16 in
    let n_locals = ref 0 in
    let local_slot l =
      match Hashtbl.find_opt local_slots l with
      | Some s -> s
      | None ->
        let s = !n_locals in
        incr n_locals;
        Hashtbl.replace local_slots l s;
        s
    in
    let slot_of_var = function
      | Ir.Local l -> `Local (local_slot l)
      | Ir.Global g -> `Global (global_slot g)
    in
    (* Signed slot encoding for operands that may address either space:
       local s is s, global g is lnot g. *)
    let signed_slot = function `Local s -> s | `Global g -> lnot g in
    let code = { buf = [||]; len = 0 } in
    let fixups = ref [] in
    (* Emit a branch-target operand; the source pc is patched to a code
       offset once the whole body is laid out. *)
    let emit_target pc =
      fixups := code.len :: !fixups;
      emit code pc
    in
    (* Compile [e] to code leaving one value on the operand stack.
       [ctx]/[ctx_slot] describe what a division crash inside [e] means
       to the crash hook (branch condition, assert condition, or an
       assignment with a fallback target). *)
    let rec emit_expr ~src_pc ~ctx ~ctx_slot e =
      match e with
      | Ir.Const c ->
        emit code op_push_const;
        emit code c
      | Ir.Var v -> (
        match slot_of_var v with
        | `Local s ->
          emit code op_push_local;
          emit code s
        | `Global s ->
          emit code op_push_global;
          emit code s)
      | Ir.Input i ->
        emit code op_push_input;
        emit code i
      | Ir.Unop (op, a) ->
        emit_expr ~src_pc ~ctx ~ctx_slot a;
        emit code (match op with Ir.Neg -> op_neg | Ir.Not -> op_not)
      | Ir.Binop (op, a, Ir.Const c) when const_rhs_op op c >= 0 ->
        emit_expr ~src_pc ~ctx ~ctx_slot a;
        emit code (const_rhs_op op c);
        emit code c
      | Ir.Binop (op, Ir.Const c, b) when const_lhs_op op >= 0 ->
        emit_expr ~src_pc ~ctx ~ctx_slot b;
        emit code (const_lhs_op op);
        emit code c
      | Ir.Binop (op, a, b) -> (
        emit_expr ~src_pc ~ctx ~ctx_slot a;
        emit_expr ~src_pc ~ctx ~ctx_slot b;
        match op with
        | Ir.Div | Ir.Mod ->
          emit code (if op = Ir.Div then op_div else op_mod);
          emit code src_pc;
          emit code ctx;
          emit code ctx_slot
        | Ir.Add -> emit code op_add
        | Ir.Sub -> emit code op_sub
        | Ir.Mul -> emit code op_mul
        | Ir.Eq -> emit code op_eq
        | Ir.Ne -> emit code op_ne
        | Ir.Lt -> emit code op_lt
        | Ir.Le -> emit code op_le
        | Ir.Gt -> emit code op_gt
        | Ir.Ge -> emit code op_ge
        | Ir.And -> emit code op_and
        | Ir.Or -> emit code op_or)
    in
    let entry = Array.make (Array.length body + 1) 0 in
    Array.iteri
      (fun pc instr ->
        entry.(pc) <- code.len;
        incr n_instrs;
        match instr with
        | Ir.Assign (v, e) -> (
          let e = fold_expr e in
          let slot = slot_of_var v in
          match (e, slot) with
          | Ir.Const c, `Local s ->
            emit code op_store_local_const;
            emit code s;
            emit code c
          | Ir.Const c, `Global s ->
            emit code op_store_global_const;
            emit code s;
            emit code c
          | _ ->
            max_stack := max !max_stack (expr_depth e);
            emit_expr ~src_pc:pc ~ctx:ctx_assign ~ctx_slot:(signed_slot slot) e;
            (match slot with
            | `Local s ->
              emit code op_store_local;
              emit code s
            | `Global s ->
              emit code op_store_global;
              emit code s))
        | Ir.Branch { cond; if_true; if_false } -> (
          match fold_expr cond with
          | Ir.Const c ->
            (* The decision is still part of the recorded path (the
               tree walk records every branch), so a folded branch
               keeps a decision-emitting op. *)
            let taken = truth c in
            emit code op_br_const;
            emit code pc;
            emit code (of_bool taken);
            emit_target (if taken then if_true else if_false)
          | cond ->
            max_stack := max !max_stack (expr_depth cond);
            emit_expr ~src_pc:pc ~ctx:ctx_branch ~ctx_slot:0 cond;
            emit code op_br;
            emit code pc;
            emit_target if_true;
            emit_target if_false)
        | Ir.Jump target ->
          emit code op_jmp;
          emit_target target
        | Ir.Syscall { kind; dst } ->
          emit code op_sys;
          emit code (syscall_kind_code kind);
          emit code (signed_slot (slot_of_var dst))
        | Ir.Lock l ->
          emit code op_lock;
          emit code l
        | Ir.Unlock l ->
          emit code op_unlock;
          emit code l
        | Ir.Assert { cond; message } -> (
          match fold_expr cond with
          | Ir.Const c when truth c -> emit code op_nop_end
          | Ir.Const _ ->
            emit code op_assert_fail;
            emit code pc;
            emit code (add_message message)
          | cond ->
            max_stack := max !max_stack (expr_depth cond);
            emit_expr ~src_pc:pc ~ctx:ctx_assert ~ctx_slot:0 cond;
            emit code op_assert;
            emit code pc;
            emit code (add_message message))
        | Ir.Yield -> emit code op_nop_end
        | Ir.Halt -> emit code op_halt)
      body;
    entry.(Array.length body) <- code.len;
    emit code op_eob;
    List.iter (fun pos -> code.buf.(pos) <- entry.(code.buf.(pos))) !fixups;
    n_ops := !n_ops + code.len;
    { code = Array.sub code.buf 0 code.len; entry; n_locals = !n_locals }
  in
  let threads = Array.map compile_thread p.Ir.threads in
  {
    source_digest = Ir.digest p;
    threads;
    messages = Array.of_list (List.rev !message_strings);
    n_globals = !n_globals;
    n_locks = p.Ir.n_locks;
    n_inputs = p.Ir.n_inputs;
    max_stack = !max_stack;
    n_instrs = !n_instrs;
    n_ops = !n_ops;
  }

(* ---- Compile cache ------------------------------------------------- *)

type cache = {
  by_digest : (string, t) Hashtbl.t;
  fast : (Ir.t * t) option array;  (* recent (program, compiled) pairs *)
  mutable fast_next : int;
  mutable hits : int;
  mutable fast_hits : int;
  mutable misses : int;
}

type cache_stats = {
  hits : int;
  fast_hits : int;
  misses : int;
  entries : int;
}

let create_cache ?(fast_slots = 64) () =
  {
    by_digest = Hashtbl.create 64;
    fast = Array.make (max 1 fast_slots) None;
    fast_next = 0;
    hits = 0;
    fast_hits = 0;
    misses = 0;
  }

let shared_cache = create_cache ()

let find_or_compile cache program =
  (* Physical-equality fast path: pods hold one program value and
     execute it millions of times, so the common lookup should not
     even hash the digest. *)
  let n = Array.length cache.fast in
  let rec scan i =
    if i >= n then None
    else
      match cache.fast.(i) with
      | Some (p, compiled) when p == program -> Some compiled
      | _ -> scan (i + 1)
  in
  match scan 0 with
  | Some compiled ->
    cache.fast_hits <- cache.fast_hits + 1;
    compiled
  | None ->
    let remember compiled =
      cache.fast.(cache.fast_next) <- Some (program, compiled);
      cache.fast_next <- (cache.fast_next + 1) mod n;
      compiled
    in
    let digest = Ir.digest program in
    (match Hashtbl.find_opt cache.by_digest digest with
    | Some compiled ->
      cache.hits <- cache.hits + 1;
      remember compiled
    | None ->
      let compiled = compile program in
      cache.misses <- cache.misses + 1;
      Hashtbl.replace cache.by_digest digest compiled;
      remember compiled)

let cache_stats (cache : cache) =
  {
    hits = cache.hits;
    fast_hits = cache.fast_hits;
    misses = cache.misses;
    entries = Hashtbl.length cache.by_digest;
  }
