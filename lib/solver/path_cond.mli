(** Path conditions: the constraints a symbolic execution accumulates
    along one path of the execution tree (paper §3.2).

    A path condition is a conjunction of branch conditions — IR
    expressions over [Input] slots only — each required to evaluate
    true or false.  Feasibility of an unexplored tree direction is
    exactly satisfiability of its path condition. *)

module Ir := Softborg_prog.Ir

type atom = {
  cond : Ir.expr;  (** Over [Const]/[Input]/operators; no [Var]s. *)
  expected : bool;
}

type t = atom list

val atom : Ir.expr -> bool -> atom

val well_formed : t -> bool
(** True iff no atom mentions a program variable (only inputs). *)

val inputs_used : t -> int list
(** Input slots mentioned, ascending, deduplicated. *)

val satisfied_by : t -> int array -> bool
(** All atoms hold and no atom traps: an atom whose value is undefined
    (division or modulo by zero, an input slot outside the vector, a
    stray [Var]) fails.  Allocation-free. *)

val constants : t -> int list
(** All integer constants appearing in the atoms (deduplicated);
    solver value-ordering hints. *)

val moduli : t -> int list
(** Constant right-hand sides of [Mod] operations (deduplicated);
    solver hints for residue-style rare predicates. *)

val digest : t -> string
(** 16-byte MD5 of the condition's canonical wire serialization
    (atom order preserved — conjunctions are kept in accumulation
    order, so equal paths digest equally).  Cache key material for
    {!Verdict_cache}. *)

val pp : Format.formatter -> t -> unit
