(** Hand-written corpus programs.

    Each mirrors a workload the paper uses to motivate SoftBorg:
    {!fig2_write} is the literal `write(int p)` example of Figure 2;
    the others exercise the bug classes the platform must learn to fix
    (environment-failure crashes, lock-order deadlocks, atomicity
    races, deep rare-path assertions). *)

val fig2_write : Ir.t
(** The paper's Figure 2 program: nested branches on [p < MAX],
    [p > 0], [p > 3], with a [close(p)] syscall on one path.  Input 0
    plays the role of [p]; MAX is 100.  Bug-free; used for execution-
    tree construction and proof experiments (E2, E11). *)

val file_copy : Ir.t
(** A file-copy utility: open source and destination, loop
    read→write.  The destination-open result is used unchecked, so an
    injected open fault crashes it — the paper's "short read /
    syscall fault" guidance target (E4). *)

val worker_pool : Ir.t
(** Two worker threads acquiring locks 0 and 1 in opposite orders
    under a shared guard — the deadlock-immunity workload (E6). *)

val racy_counter : Ir.t
(** Two increment threads doing unlocked read-modify-write on a shared
    counter plus a checker thread; fails under unlucky schedules. *)

val parser : Ir.t
(** Input-dependent token dispatch with a deeply-nested rare assertion
    failure (input 0 = 7 and input 1 = 13 and input 2 mod 32 = 5):
    the "rare corner case" guidance is meant to reach quickly. *)

val checksum : Ir.t
(** A 32-round mixing loop with a constant schedule: dozens of
    deterministic branches per run but only two input-dependent ones —
    the control-flow shape that makes recording only input-dependent
    branches cheap (paper §3.1; E2's ablation). *)

val bank_transfer : Ir.t
(** Three teller threads moving funds around a ring of three accounts,
    each locking source-then-destination: a three-lock deadlock cycle
    (0→1→2→0).  Exercises cycle mining and immunity beyond the
    two-lock inversion of {!worker_pool}. *)

val all : (string * Ir.t) list
(** Every corpus program above, keyed by name. *)

val audit_ledger : Ir.t
(** Two threads appending under acyclic lock orders (2 then 0, 1 then
    2): bug-free, so every schedule completes and failures measured on
    it come only from a deployed fix.  The staged-rollout saboteur's
    subject: an over-broad immunity set [\[0; 1\]] livelocks most of
    its schedules.  Not in {!all}. *)

val parser_trigger : int array
(** An input vector that triggers {!parser}'s planted assertion
    (ground truth for guidance experiments). *)
