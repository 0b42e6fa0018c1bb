type snapshot = {
  executions : int;
  distinct_paths : int;
  nodes : int;
  frontier_size : int;
  completeness : float;
}

type t = { mutable snaps : snapshot list (* reversed *) }

let create () = { snaps = [] }

let observe t tree =
  let snap =
    {
      executions = Exec_tree.n_executions tree;
      distinct_paths = Exec_tree.n_distinct_paths tree;
      nodes = Exec_tree.n_nodes tree;
      frontier_size = Exec_tree.frontier_size tree;
      completeness = Exec_tree.completeness tree;
    }
  in
  t.snaps <- snap :: t.snaps

let snapshots t = List.rev t.snaps

let executions_to_reach t ~paths =
  List.find_opt (fun s -> s.distinct_paths >= paths) (snapshots t)
  |> Option.map (fun s -> s.executions)
