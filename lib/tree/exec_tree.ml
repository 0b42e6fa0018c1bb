module Ir = Softborg_prog.Ir
module Outcome = Softborg_exec.Outcome

(* Edge keys: (site, direction). *)
module Edge_key = struct
  type t = Ir.site * bool

  let compare (s1, d1) (s2, d2) =
    match Ir.site_compare s1 s2 with 0 -> Bool.compare d1 d2 | c -> c
end

module Edge_map = Map.Make (Edge_key)
module Edge_set = Set.Make (Edge_key)

module Site_key = struct
  type t = Ir.site

  let compare = Ir.site_compare
end

module Site_set = Set.Make (Site_key)
module Bucket_map = Map.Make (String)

type node = {
  depth : int;
  parent : node;  (* the root is its own parent *)
  decision : Edge_map.key;  (* the edge from [parent]; a placeholder at the root *)
  mutable edges : (node * int ref) Edge_map.t;  (* child, traversal count *)
  mutable infeasible : Edge_set.t;  (* directions proven infeasible *)
  mutable hits : int;
  mutable keyed_hits : int;  (* the hit count this node's index entries are keyed under *)
  mutable terminal : int Bucket_map.t;  (* outcome bucket -> count *)
  mutable open_dirs : Edge_set.t;  (* this node's entries in the open-gap index *)
}

(* Priority index over open gaps, ordered exactly like [gap_order]
   below: hottest node first, ties broken by the gap record's
   structural order (prefix, then site, then direction).  A key
   carries a copy of a hit count — [node.hits] is mutable and a map
   key must never change under the map — namely the node's
   [keyed_hits], which all of one node's entries share.  A hit-count
   bump only queues the node as stale (see [bump_hits]); the next
   frontier read re-keys each queued node once (see [rekey_stale]). *)
module Gap_index_key = struct
  type t = {
    k_hits : int;
    k_node : node;
    k_site : Ir.site;
    k_missing : bool;
  }

  (* [Stdlib.compare] on one (site, direction) decision. *)
  let compare_decision ((s1 : Ir.site), (d1 : bool)) (s2, d2) =
    match Ir.site_compare s1 s2 with 0 -> Bool.compare d1 d2 | c -> c

  let rec ancestor_at node depth = if node.depth > depth then ancestor_at node.parent depth else node

  (* Two distinct nodes of one tree at equal depth: climb both until
     their parents coincide, which is their lowest common ancestor, and
     order them by the two decisions just below it (distinct children
     of one node hold distinct decisions).  Every decision above the
     ancestor is shared, so this is the lexicographic order of the two
     root-to-node sequences.  A loop over plain fields: nothing is
     allocated and no frame is pushed per level. *)
  let rec compare_below_lca a b =
    if a.parent == b.parent then compare_decision a.decision b.decision
    else compare_below_lca a.parent b.parent

  (* [Stdlib.compare (prefix_of a) (prefix_of b)] without materializing
     either list: the deeper node is first lifted to the other's depth;
     if that lands on the other node, the shallower prefix is a proper
     prefix of the deeper one and sorts first (as [] sorts before any
     cons). *)
  let compare_prefix a b =
    if a == b then 0
    else if a.depth = b.depth then compare_below_lca a b
    else if a.depth < b.depth then
      let b' = ancestor_at b a.depth in
      if a == b' then -1 else compare_below_lca a b'
    else
      let a' = ancestor_at a b.depth in
      if a' == b then 1 else compare_below_lca a' b

  let compare ka kb =
    match Int.compare kb.k_hits ka.k_hits with
    | 0 -> (
      match compare_prefix ka.k_node kb.k_node with
      | 0 -> (
        match Ir.site_compare ka.k_site kb.k_site with
        | 0 -> Bool.compare ka.k_missing kb.k_missing
        | c -> c)
      | c -> c)
    | c -> c
end

module Gap_map = Map.Make (Gap_index_key)

type t = {
  root : node;
  mutable nodes : int;
  mutable executions : int;
  mutable distinct_paths : int;
  (* Incremental aggregates, maintained by add_path/mark_infeasible so
     the per-tick queries never walk the tree.  Invariants (checked
     against the *_recompute oracles by the property tests):
       edges       = sum over nodes of out-degree
       max_depth   = depth of the deepest node
       total_dirs  = 2 x number of (node, observed site) pairs
       closed_dirs = directions among those that are explored or
                     proven infeasible
       open_count  = number of entries in [gap_index]
       bucket_totals = terminal counts summed over all nodes *)
  mutable edge_count : int;
  mutable max_depth : int;
  mutable closed_dirs : int;
  mutable total_dirs : int;
  bucket_totals : (string, int) Hashtbl.t;
  mutable open_count : int;
  (* The open gaps as an ordered map, so the frontier's top-k is a
     prefix read instead of a full sort.  Invariant: contains exactly
     one key per (node, site, direction) triple with the site observed
     at the node but that direction neither explored nor infeasible,
     with [k_hits] equal to the owning node's [keyed_hits] (each node's
     own entries are listed in its [open_dirs]).  A node with open
     entries whose [keyed_hits] lags its [hits] is in [stale]; once
     [rekey_stale] empties [stale], every [k_hits] equals its node's
     current hit count, which is what the frontier reads rely on. *)
  mutable gap_index : unit Gap_map.t;
  (* Nodes queued for re-keying since the last frontier read.  A node
     is queued by the bump that first moves [hits] past [keyed_hits]
     while it has open entries, so the queue is bounded by the nodes
     touched and the edges added since the last read (a node re-enters
     only after [gap_open] re-synced it, which takes a new edge). *)
  mutable stale : node list;
  mutable version : int;  (* bumped on every knowledge-changing mutation *)
  (* Analysis-cost counters (not part of the knowledge, never
     serialized): how many gap records were sorted via the recompute
     path and how many were materialized as records.  Regression tests
     pin per-tick planning to O(k) materializations and zero sorts. *)
  mutable gaps_sorted : int;
  mutable gaps_materialized : int;
}

let new_node parent decision =
  {
    depth = parent.depth + 1;
    parent;
    decision;
    edges = Edge_map.empty;
    infeasible = Edge_set.empty;
    hits = 0;
    keyed_hits = 0;
    terminal = Bucket_map.empty;
    open_dirs = Edge_set.empty;
  }

(* The root's decision is never read: no node lies above it. *)
let root_decision = ({ Ir.thread = 0; pc = 0 }, false)

let make_root ~hits ~infeasible ~terminal =
  let rec root =
    {
      depth = 0;
      parent = root;
      decision = root_decision;
      edges = Edge_map.empty;
      infeasible;
      hits;
      keyed_hits = hits;
      terminal;
      open_dirs = Edge_set.empty;
    }
  in
  root

let create () =
  {
    root = make_root ~hits:0 ~infeasible:Edge_set.empty ~terminal:Bucket_map.empty;
    nodes = 1;
    executions = 0;
    distinct_paths = 0;
    edge_count = 0;
    max_depth = 0;
    closed_dirs = 0;
    total_dirs = 0;
    bucket_totals = Hashtbl.create 16;
    open_count = 0;
    gap_index = Gap_map.empty;
    stale = [];
    version = 0;
    gaps_sorted = 0;
    gaps_materialized = 0;
  }

type merge_stats = {
  shared_depth : int;
  new_nodes : int;
  new_path : bool;
}

let index_key hits node site missing =
  { Gap_index_key.k_hits = hits; k_node = node; k_site = site; k_missing = missing }

(* Open/close one gap in the priority index, keyed by the node's
   recorded [keyed_hits].  A node without open entries has nothing
   keyed under a stale count, so its first insert re-syncs the record
   to the current count.  Callers open only a closed gap and close
   only an open one. *)
let gap_open t node site missing =
  t.open_count <- t.open_count + 1;
  if Edge_set.is_empty node.open_dirs then node.keyed_hits <- node.hits;
  node.open_dirs <- Edge_set.add (site, missing) node.open_dirs;
  t.gap_index <- Gap_map.add (index_key node.keyed_hits node site missing) () t.gap_index

let gap_close t node site missing =
  t.open_count <- t.open_count - 1;
  node.open_dirs <- Edge_set.remove (site, missing) node.open_dirs;
  t.gap_index <- Gap_map.remove (index_key node.keyed_hits node site missing) t.gap_index

(* A hit-count bump changes the priority of every open gap at the
   node.  Ingestion bumps far more often than anything reads the
   index, so the bump only queues the node, on the bump that first
   leaves its entries behind; [rekey_stale] catches the entries up. *)
let bump_hits t node =
  if node.hits = node.keyed_hits && not (Edge_set.is_empty node.open_dirs) then
    t.stale <- node :: t.stale;
  node.hits <- node.hits + 1

(* Re-key every queued node's open entries from [keyed_hits] to the
   current count, once per node however many bumps it took.  Every
   frontier read runs this first. *)
let rekey_stale t =
  List.iter
    (fun node ->
      if node.keyed_hits <> node.hits then begin
        Edge_set.iter
          (fun (site, missing) ->
            t.gap_index <-
              Gap_map.add (index_key node.hits node site missing) ()
                (Gap_map.remove (index_key node.keyed_hits node site missing) t.gap_index))
          node.open_dirs;
        node.keyed_hits <- node.hits
      end)
    t.stale;
  t.stale <- []

(* Aggregate bookkeeping for a brand-new edge [(site, dir)] out of
   [node], called before the edge is inserted.  Every new edge closes
   its own direction; the first edge of a site additionally opens the
   opposite direction as a gap — unless that direction was already
   proven infeasible, in which case it starts closed. *)
let account_new_edge t node ((site, dir) : Edge_map.key) =
  t.edge_count <- t.edge_count + 1;
  if Edge_map.mem (site, not dir) node.edges then begin
    (* Site already observed here: this direction was the open half
       (or was infeasible, in which case it is already closed). *)
    if not (Edge_set.mem (site, dir) node.infeasible) then begin
      t.closed_dirs <- t.closed_dirs + 1;
      gap_close t node site dir
    end
  end
  else begin
    (* First observation of this site at this node. *)
    t.total_dirs <- t.total_dirs + 2;
    t.closed_dirs <- t.closed_dirs + 1;
    if Edge_set.mem (site, not dir) node.infeasible then
      t.closed_dirs <- t.closed_dirs + 1
    else gap_open t node site (not dir)
  end

let add_path t path outcome =
  t.executions <- t.executions + 1;
  let rec walk node remaining shared created =
    bump_hits t node;
    match remaining with
    | [] ->
      let bucket = Outcome.bucket_key outcome in
      let fresh_terminal = not (Bucket_map.mem bucket node.terminal) in
      node.terminal <-
        Bucket_map.update bucket
          (fun c -> Some (1 + Option.value ~default:0 c))
          node.terminal;
      Hashtbl.replace t.bucket_totals bucket
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.bucket_totals bucket));
      if node.depth > t.max_depth then t.max_depth <- node.depth;
      let new_path = created > 0 || fresh_terminal in
      if new_path then begin
        t.distinct_paths <- t.distinct_paths + 1;
        t.version <- t.version + 1
      end;
      { shared_depth = shared; new_nodes = created; new_path }
    | decision :: rest -> (
      match Edge_map.find_opt decision node.edges with
      | Some (child, count) ->
        incr count;
        walk child rest (if created = 0 then shared + 1 else shared) created
      | None ->
        account_new_edge t node decision;
        let child = new_node node decision in
        t.nodes <- t.nodes + 1;
        node.edges <- Edge_map.add decision (child, ref 1) node.edges;
        walk child rest shared (created + 1))
  in
  walk t.root path 0 0

let n_nodes t = t.nodes
let n_executions t = t.executions
let n_distinct_paths t = t.distinct_paths
let n_edges t = t.edge_count
let depth t = t.max_depth
let version t = t.version

(* Depth-first fold over all nodes via an explicit worklist, so deep
   trees cannot blow the stack.  Visit order is unspecified. *)
let fold_nodes f acc root =
  let rec go acc = function
    | [] -> acc
    | node :: stack ->
      let stack =
        Edge_map.fold (fun _ (child, _) stack -> child :: stack) node.edges stack
      in
      go (f acc node) stack
  in
  go acc [ root ]

let n_edges_recompute t =
  fold_nodes (fun acc node -> acc + Edge_map.cardinal node.edges) 0 t.root

let depth_recompute t =
  let rec go acc = function
    | [] -> acc
    | (node, d) :: stack ->
      let stack =
        Edge_map.fold (fun _ (child, _) stack -> (child, d + 1) :: stack) node.edges stack
      in
      go (max acc d) stack
  in
  go 0 [ (t.root, 0) ]

(* Buckets sorted by count (descending), ties by key, so the
   incremental and recompute versions agree exactly. *)
let bucket_order (k1, n1) (k2, n2) =
  match Int.compare n2 n1 with 0 -> String.compare k1 k2 | c -> c

let outcome_buckets t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.bucket_totals []
  |> List.sort bucket_order

let outcome_buckets_recompute t =
  let table = Hashtbl.create 16 in
  fold_nodes
    (fun () node ->
      Bucket_map.iter
        (fun bucket count ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt table bucket) in
          Hashtbl.replace table bucket (prev + count))
        node.terminal)
    () t.root;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] |> List.sort bucket_order

type gap = {
  prefix : (Ir.site * bool) list;
  site : Ir.site;
  missing : bool;
  hits : int;
}

(* The branch sites observed at a node, from its outgoing edges. *)
let sites_at node =
  Edge_map.fold (fun (site, _) _ acc -> Site_set.add site acc) node.edges Site_set.empty

let has_edge node site direction = Edge_map.mem (site, direction) node.edges

let marked_infeasible node site direction = Edge_set.mem (site, direction) node.infeasible

(* Root-to-node decision sequence, reconstructed from parent links. *)
let prefix_of node =
  let rec up node acc = if node.depth = 0 then acc else up node.parent (node.decision :: acc) in
  up node []

(* Hottest nodes first; ties broken structurally so the order is a
   deterministic total order (and oracle comparison is exact).
   [Gap_index_key.compare] implements exactly this order on index
   keys, which is what lets the index replace the sort: distinct gaps
   always differ structurally, so the order has no ties and a prefix
   of the index is a prefix of the sorted list. *)
let gap_order (a : gap) (b : gap) =
  match Int.compare b.hits a.hits with 0 -> Stdlib.compare a b | c -> c

let gap_of_index_key t (key : Gap_index_key.t) =
  t.gaps_materialized <- t.gaps_materialized + 1;
  {
    prefix = prefix_of key.Gap_index_key.k_node;
    site = key.Gap_index_key.k_site;
    missing = key.Gap_index_key.k_missing;
    hits = key.Gap_index_key.k_hits;
  }

let frontier t =
  rekey_stale t;
  List.rev (Gap_map.fold (fun key () acc -> gap_of_index_key t key :: acc) t.gap_index [])

let frontier_seq ?keep t =
  rekey_stale t;
  (* [to_seq] on the persistent map snapshots it: mutating the tree
     while consuming the sequence (as gap closing during planning
     does) walks the frontier as of this call, exactly like iterating
     a materialized list. *)
  let snapshot = Gap_map.to_seq t.gap_index in
  let snapshot =
    match keep with
    | None -> snapshot
    | Some keep ->
      (* The filter reads the index key, so a dropped gap never has its
         prefix rebuilt. *)
      Seq.filter
        (fun ((key : Gap_index_key.t), ()) -> keep key.Gap_index_key.k_site key.Gap_index_key.k_missing)
        snapshot
  in
  Seq.map (fun (key, ()) -> gap_of_index_key t key) snapshot

let frontier_top t k =
  if k <= 0 then [] else List.of_seq (Seq.take k (frontier_seq t))

let frontier_size t = t.open_count

let gaps_sorted t = t.gaps_sorted
let gaps_materialized t = t.gaps_materialized

let iter_open_dirs t f =
  Gap_map.iter (fun (key : Gap_index_key.t) () -> f key.k_site key.k_missing) t.gap_index

(* Gaps at one node, consed onto [acc] (accumulator-first: no list
   append anywhere on this path). *)
let gaps_into node acc =
  let sites = sites_at node in
  if Site_set.is_empty sites then acc
  else
    let prefix = prefix_of node in
    Site_set.fold
      (fun site acc ->
        let missing direction =
          (not (has_edge node site direction)) && not (marked_infeasible node site direction)
        in
        let acc =
          if missing true then { prefix; site; missing = true; hits = node.hits } :: acc
          else acc
        in
        if missing false then { prefix; site; missing = false; hits = node.hits } :: acc
        else acc)
      sites acc

let frontier_recompute t =
  let gaps = fold_nodes (fun acc node -> gaps_into node acc) [] t.root in
  t.gaps_sorted <- t.gaps_sorted + List.length gaps;
  List.sort gap_order gaps

let find_node t prefix =
  let rec walk node = function
    | [] -> Some node
    | decision :: rest -> (
      match Edge_map.find_opt decision node.edges with
      | Some (child, _) -> walk child rest
      | None -> None)
  in
  walk t.root prefix

let mark_infeasible t ~prefix ~site ~direction =
  match find_node t prefix with
  | None -> false
  | Some node ->
    if not (Edge_set.mem (site, direction) node.infeasible) then begin
      node.infeasible <- Edge_set.add (site, direction) node.infeasible;
      (* The mark only closes a direction pair if the site is already
         observed at this node and the direction unexplored; marks on
         unobserved sites take effect when the site gains an edge. *)
      let site_observed =
        Edge_map.mem (site, true) node.edges || Edge_map.mem (site, false) node.edges
      in
      if site_observed && not (Edge_map.mem (site, direction) node.edges) then begin
        t.closed_dirs <- t.closed_dirs + 1;
        gap_close t node site direction;
        t.version <- t.version + 1
      end
    end;
    true

let completeness t =
  if t.total_dirs = 0 then 1.0
  else float_of_int t.closed_dirs /. float_of_int t.total_dirs

let is_complete t = t.closed_dirs = t.total_dirs

(* Direction-pair accounting by full walk: for every (node, observed
   site), each of the two directions is "closed" if explored or proven
   infeasible. *)
let direction_pairs_recompute t =
  fold_nodes
    (fun (closed, total) node ->
      Site_set.fold
        (fun site (closed, total) ->
          let closed_dir direction =
            has_edge node site direction || marked_infeasible node site direction
          in
          let closed =
            closed + (if closed_dir true then 1 else 0) + if closed_dir false then 1 else 0
          in
          (closed, total + 2))
        (sites_at node) (closed, total))
    (0, 0) t.root

let completeness_recompute t =
  let closed, total = direction_pairs_recompute t in
  if total = 0 then 1.0 else float_of_int closed /. float_of_int total

let is_complete_recompute t =
  let closed, total = direction_pairs_recompute t in
  closed = total

let path_outcomes t =
  fold_nodes
    (fun acc node ->
      if Bucket_map.is_empty node.terminal then acc
      else
        let prefix = prefix_of node in
        Bucket_map.fold (fun bucket count acc -> (prefix, bucket, count) :: acc) node.terminal acc)
    [] t.root

(* ---- Checkpoint codec -------------------------------------------------- *)

module Codec = Softborg_util.Codec

let write_site w (site : Ir.site) =
  Codec.Writer.varint w site.Ir.thread;
  Codec.Writer.varint w site.Ir.pc

let read_site r =
  let thread = Codec.Reader.varint r in
  let pc = Codec.Reader.varint r in
  { Ir.thread; pc }

let write_dir w ((site, direction) : Edge_map.key) =
  write_site w site;
  Codec.Writer.bool w direction

let read_dir r =
  let site = read_site r in
  let direction = Codec.Reader.bool r in
  (site, direction)

(* One node record: hits, terminal buckets, infeasibility marks, and
   the labeled out-edges with their traversal counts.  All collections
   are emitted in their map/set order, so equal trees always serialize
   to equal bytes, *regardless of the order their paths arrived in* —
   the byte-level merge-equality of the shard federation rests on
   this.  Child records follow the parent in edge order (preorder). *)
let write_node_record w (node : node) =
  Codec.Writer.varint w node.hits;
  Codec.Writer.list w
    (fun (bucket, count) ->
      Codec.Writer.bytes w bucket;
      Codec.Writer.varint w count)
    (Bucket_map.bindings node.terminal);
  Codec.Writer.list w (write_dir w) (Edge_set.elements node.infeasible);
  Codec.Writer.list w
    (fun (key, count) ->
      write_dir w key;
      Codec.Writer.varint w count)
    (List.rev (Edge_map.fold (fun key (_, count) acc -> (key, !count) :: acc) node.edges []))

let write w t =
  Codec.Writer.varint w t.nodes;
  Codec.Writer.varint w t.executions;
  Codec.Writer.varint w t.distinct_paths;
  Codec.Writer.varint w t.version;
  (* Preorder via an explicit stack; children pushed in ascending edge
     order so they pop (and serialize) in that order. *)
  let rec emit = function
    | [] -> ()
    | node :: stack ->
      write_node_record w node;
      let children = Edge_map.fold (fun _ (child, _) acc -> child :: acc) node.edges [] in
      emit (List.rev_append children stack)
  in
  emit [ t.root ]

type node_record = {
  r_hits : int;
  r_terminal : int Bucket_map.t;
  r_infeasible : Edge_set.t;
  r_edges : (Edge_map.key * int) list;  (* ascending; children follow in this order *)
}

let read_node_record r =
  let r_hits = Codec.Reader.varint r in
  let r_terminal =
    List.fold_left
      (fun acc (bucket, count) -> Bucket_map.add bucket count acc)
      Bucket_map.empty
      (Codec.Reader.list r (fun r ->
           let bucket = Codec.Reader.bytes r in
           let count = Codec.Reader.varint r in
           (bucket, count)))
  in
  let r_infeasible = Edge_set.of_list (Codec.Reader.list r read_dir) in
  let r_edges =
    Codec.Reader.list r (fun r ->
        let key = read_dir r in
        let count = Codec.Reader.varint r in
        (key, count))
  in
  { r_hits; r_terminal; r_infeasible; r_edges }

(* Rebuild the incremental aggregates from the restored structure.  By
   construction this walk computes exactly what the *_recompute oracles
   compute, so a restored tree satisfies the aggregate invariants. *)
let rebuild_aggregates t =
  t.edge_count <- 0;
  t.max_depth <- 0;
  t.closed_dirs <- 0;
  t.total_dirs <- 0;
  Hashtbl.reset t.bucket_totals;
  t.open_count <- 0;
  t.gap_index <- Gap_map.empty;
  t.stale <- [];
  fold_nodes
    (fun () node ->
      node.open_dirs <- Edge_set.empty;
      t.edge_count <- t.edge_count + Edge_map.cardinal node.edges;
      if node.depth > t.max_depth then t.max_depth <- node.depth;
      Bucket_map.iter
        (fun bucket count ->
          Hashtbl.replace t.bucket_totals bucket
            (count + Option.value ~default:0 (Hashtbl.find_opt t.bucket_totals bucket)))
        node.terminal;
      Site_set.iter
        (fun site ->
          t.total_dirs <- t.total_dirs + 2;
          let account direction =
            if has_edge node site direction || marked_infeasible node site direction then
              t.closed_dirs <- t.closed_dirs + 1
            else gap_open t node site direction
          in
          account true;
          account false)
        (sites_at node))
    () t.root

let read r =
  let nodes = Codec.Reader.varint r in
  let executions = Codec.Reader.varint r in
  let distinct_paths = Codec.Reader.varint r in
  let version = Codec.Reader.varint r in
  let root_record = read_node_record r in
  let root =
    make_root ~hits:root_record.r_hits ~infeasible:root_record.r_infeasible
      ~terminal:root_record.r_terminal
  in
  let restored = ref 1 in
  (* Reattach preorder records: the stack holds nodes whose child
     records are still pending, with the edge specs left to fill. *)
  let rec fill = function
    | [] -> ()
    | (_, []) :: stack -> fill stack
    | (node, (key, count) :: specs) :: stack ->
      let child_record = read_node_record r in
      let child =
        {
          depth = node.depth + 1;
          parent = node;
          decision = key;
          edges = Edge_map.empty;
          infeasible = child_record.r_infeasible;
          hits = child_record.r_hits;
          keyed_hits = child_record.r_hits;
          terminal = child_record.r_terminal;
          open_dirs = Edge_set.empty;
        }
      in
      node.edges <- Edge_map.add key (child, ref count) node.edges;
      incr restored;
      fill ((child, child_record.r_edges) :: (node, specs) :: stack)
  in
  fill [ (root, root_record.r_edges) ];
  if !restored <> nodes then
    raise (Codec.Malformed (Printf.sprintf "tree node count: header %d, records %d" nodes !restored));
  let t =
    {
      root;
      nodes;
      executions;
      distinct_paths;
      edge_count = 0;
      max_depth = 0;
      closed_dirs = 0;
      total_dirs = 0;
      bucket_totals = Hashtbl.create 16;
      open_count = 0;
      gap_index = Gap_map.empty;
      stale = [];
      version;
      gaps_sorted = 0;
      gaps_materialized = 0;
    }
  in
  rebuild_aggregates t;
  t
