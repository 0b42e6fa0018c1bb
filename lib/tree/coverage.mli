(** Coverage growth tracking.

    Experiments E2 and E4 plot how the collective execution tree grows
    as executions accumulate — naturally versus under hive guidance.
    This recorder takes periodic snapshots of tree statistics against
    the execution count. *)

type snapshot = {
  executions : int;
  distinct_paths : int;
  nodes : int;
  frontier_size : int;
  completeness : float;
}

type t

val create : unit -> t

val observe : t -> Exec_tree.t -> unit
(** Take a snapshot of the tree now. *)

val snapshots : t -> snapshot list
(** All snapshots, oldest first. *)

val executions_to_reach : t -> paths:int -> int option
(** First execution count at which [distinct_paths >= paths], if
    reached. *)
