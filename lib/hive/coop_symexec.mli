(** Cooperative symbolic execution (paper §4).

    "We parallelize symbolic execution and distribute the analysis of
    the execution tree to the hive's nodes (which could include as many
    as all machines running SoftBorg)."  The tree's shape is unknown
    until explored, so a static partition is undecidable; instead the
    coordinator partitions {e dynamically}: frontier gaps are jobs,
    worker nodes (reached over the unreliable network) run directed
    symbolic exploration on the gaps they are assigned, and the
    coordinator reallocates nodes between rounds using the
    portfolio-theoretic policy of {!Allocate} — subtrees are equities,
    workers are capital.

    Workers are assumed to hold the program binary (they are machines
    running SoftBorg pods); only gap coordinates, budgets, and results
    travel over the wire. *)

module Ir := Softborg_prog.Ir
module Sim := Softborg_net.Sim
module Transport := Softborg_net.Transport
module Exec_tree := Softborg_tree.Exec_tree
module Sym_exec := Softborg_symexec.Sym_exec
module Testgen := Softborg_symexec.Testgen

(** Wire messages between coordinator and workers. *)
type job = {
  job_id : int;
  gaps : (Ir.site * bool) list;  (** Directions to decide. *)
  budget_per_gap : int;  (** Solver-step budget per direction. *)
}

type job_result = {
  job_id : int;
  verdicts : ((Ir.site * bool) * Gap_memo.verdict) list;
      (** Written with {!Gap_memo.write_binding}, the hive's own
          verdict codec. *)
  steps_spent : int;
}

val encode_job : job -> string
val decode_job : string -> (job, string) result
val encode_result : job_result -> string
val decode_result : string -> (job_result, string) result

(** A worker node: answers exploration jobs for one program. *)
module Worker : sig
  type t

  val create : program:Ir.t -> endpoint:Transport.endpoint -> unit -> t
  (** Installs the receive handler; every incoming job is answered
      with a result message.  Each worker keeps a private
      {!Softborg_solver.Verdict_cache} across the jobs it serves —
      successive rounds re-query overlapping path conditions. *)

  val jobs_served : t -> int
  val steps_spent : t -> int
end

(** The coordinator: drives a tree's frontier to closure using a pool
    of workers. *)
module Coordinator : sig
  type config = {
    round_interval : float;  (** Seconds between allocation rounds. *)
    gaps_per_job : int;  (** Frontier gaps batched into one job. *)
    budget_per_gap : int;
    policy : Allocate.policy;
  }

  val default_config : config

  type t

  val create :
    ?config:config ->
    sim:Sim.t ->
    program:Ir.t ->
    tree:Exec_tree.t ->
    workers:Transport.endpoint list ->
    unit ->
    t
  (** [workers] are the coordinator-side endpoints of the worker
      connections.  The coordinator assigns jobs round-robin within
      the node counts chosen by the allocation policy. *)

  val start : t -> unit
  (** Begin periodic allocation rounds on the simulator. *)

  type progress = {
    rounds : int;
    jobs_sent : int;
    results_received : int;
    gaps_resolved : int;  (** Feasible or infeasible verdicts applied. *)
    tests_found : Testgen.test_case list;  (** Inputs covering feasible gaps. *)
    worker_steps : int;  (** Total solver/interpreter steps across workers. *)
  }

  val progress : t -> progress

  val done_ : t -> bool
  (** True when no open work remains: every frontier gap's direction
      has been covered, proven infeasible, or retired as unknown.
      (Node-level gaps whose direction was settled elsewhere in the
      tree are considered closed — the coordinator decides {e branch
      directions}, not individual prefix nodes.) *)
end
