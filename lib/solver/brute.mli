(** Brute-force SAT by truth-table enumeration.

    Reference oracle for the test suite only: DPLL and WalkSAT verdicts
    are checked against it on small formulas. *)

type verdict =
  | Sat of Cnf.assignment
  | Unsat

val solve : Cnf.formula -> verdict
(** @raise Invalid_argument if the formula has more than 22 variables
    (enumeration would be unreasonable). *)
