(** Collective execution trees (paper §3.2, Figures 2 and 3).

    Every program encodes a decision tree; every execution materializes
    one root-to-leaf path.  The hive reconstructs the tree {e
    dynamically} by merging naturally-occurring paths: find the lowest
    common ancestor of the incoming path and the existing tree (the
    shared decision prefix) and paste the divergent suffix.  Because
    each path came from a real execution it is feasible by
    construction, so no constraint solving happens at ingestion.

    Nodes are decision-sequence prefixes; edges are labeled with the
    branch site and direction taken.  Under multi-threaded programs the
    same prefix can be followed by different branch sites (the schedule
    weaves different executions, §3.2), so a node may carry edges for
    more than one site.

    All per-tick analytics ({!n_edges}, {!depth}, {!outcome_buckets},
    {!frontier_size}, {!completeness}, {!is_complete}) are answered
    from aggregates maintained incrementally inside {!add_path} and
    {!mark_infeasible} — they never walk the tree.  Each query has a
    [*_recompute] twin that {e does} walk the tree; the twins are the
    test oracles for the incremental bookkeeping and are O(nodes). *)

module Ir := Softborg_prog.Ir
module Outcome := Softborg_exec.Outcome

type t

val create : unit -> t

type merge_stats = {
  shared_depth : int;  (** Length of the prefix shared with the tree (the LCA depth). *)
  new_nodes : int;  (** Nodes created to paste the suffix. *)
  new_path : bool;  (** True if this exact path had never been seen. *)
}

val add_path : t -> (Ir.site * bool) list -> Outcome.t -> merge_stats
(** Merge one execution path (its full decision sequence, in order)
    ending with the given outcome. *)

val n_nodes : t -> int
val n_executions : t -> int
(** Total paths merged (with multiplicity). *)

val n_distinct_paths : t -> int
val n_edges : t -> int

val version : t -> int
(** Monotonic change counter: bumped whenever the tree's knowledge
    changes — a new distinct path is merged or a gap is closed by
    {!mark_infeasible}.  Duplicate paths do {e not} bump it, so "did
    anything change since the last tick?" is one integer compare. *)

val outcome_buckets : t -> (string * int) list
(** WER-style bucket key → execution count, over all merged paths.
    Sorted by count descending, ties by key. *)

(** A gap in the tree: a node reached [hits] times whose branch [site]
    has only been observed going one way.  [prefix] is the decision
    sequence leading to the node; taking [(site, missing)] next would
    cover the gap.  These are the targets execution guidance steers
    pods toward (paper §3.3). *)
type gap = {
  prefix : (Ir.site * bool) list;
  site : Ir.site;
  missing : bool;
  hits : int;
}

val frontier : t -> gap list
(** All gaps, most-frequently-reached nodes first.  Gaps proven
    infeasible by symbolic analysis are excluded.  O(gaps) with no
    sorting: read off the incrementally-maintained priority index,
    ordered by exactly this order.  {!add_path}'s hit-count bumps only
    queue the nodes whose gaps they reorder; every frontier read
    ({!frontier}, {!frontier_top}, {!frontier_seq}) first re-keys each
    queued node once, so reads pay for ingestion's reordering at most
    once per node between two reads. *)

val frontier_top : t -> int -> gap list
(** [frontier_top t k] is the first [k] gaps of [frontier t] (all of
    them if fewer exist) in O(k log gaps + k·depth) plus the re-keying
    of nodes queued since the last read — the per-tick planning read,
    independent of tree size. *)

val frontier_seq : ?keep:(Ir.site -> bool -> bool) -> t -> gap Seq.t
(** The frontier as a lazy sequence in the same order, materializing
    one gap record per element forced.  [keep site missing] (default:
    keep all) is tested on each index entry {e before} its record is
    built, so the gaps it drops cost no prefix rebuild and do not count
    in {!gaps_materialized}: callers that skip gaps by (site, direction)
    — the planner's exclusion set, a shard's verdict ownership — pass
    the test here instead of filtering built records.  The sequence
    snapshots the index at the call: closing gaps while consuming it
    (as planning does) still walks the frontier as of the call, exactly
    like iterating a pre-built list. *)

val frontier_size : t -> int
(** [List.length (frontier t)] in O(1). *)

val iter_open_dirs : t -> (Ir.site -> bool -> unit) -> unit
(** Iterate the [(site, missing)] labels of all open gaps without
    materializing prefixes; order unspecified, and a label is repeated
    if several nodes share the same open direction.  For callers that
    only need direction membership (e.g. exclusion sets). *)

val gaps_sorted : t -> int
(** Cumulative count of gap records passed through a sort — only the
    {!frontier_recompute} oracle sorts, so a hive tick must leave this
    unchanged (pinned by a regression test). *)

val gaps_materialized : t -> int
(** Cumulative count of gap records materialized (prefix rebuilt) by
    {!frontier}, {!frontier_top} and {!frontier_seq}; entries that
    {!frontier_seq}'s [keep] drops are not counted. *)

val mark_infeasible : t -> prefix:(Ir.site * bool) list -> site:Ir.site -> direction:bool -> bool
(** Record that symbolic analysis proved the given gap infeasible,
    removing it from the frontier and from completeness accounting.
    Returns false if the prefix does not denote a tree node. *)

val is_complete : t -> bool
(** True when every observed branch site in the tree has both
    directions explored or proven infeasible — the "complete tree"
    precondition for a cumulative proof (paper §3.3). *)

val completeness : t -> float
(** Fraction of (node, site) direction pairs that are explored or
    proven infeasible; 1.0 iff {!is_complete} (1.0 on an empty tree). *)

val path_outcomes : t -> ((Ir.site * bool) list * string * int) list
(** Every distinct terminal path with its outcome bucket and count. *)

val depth : t -> int
(** Length of the longest path. *)

(** {2 Recompute oracles}

    Full-walk implementations of the queries above, kept as test
    oracles for the incremental aggregates (and as the honest baseline
    for the [micro-ingest] benchmark).  Each returns exactly what its
    incremental twin returns, including sort order. *)

val frontier_recompute : t -> gap list
val completeness_recompute : t -> float
val is_complete_recompute : t -> bool
val n_edges_recompute : t -> int
val outcome_buckets_recompute : t -> (string * int) list
val depth_recompute : t -> int

(** {2 Checkpoint codec}

    Structural serialization for hive checkpoints.  Nodes are written
    in preorder with children in ascending edge order, and every
    collection in canonical (map/set) order, so equal trees produce
    equal bytes: snapshot → restore → snapshot round-trips
    byte-identically.  The incremental aggregates are {e not} stored;
    {!read} rebuilds them with the same walk the recompute oracles use,
    so a restored tree satisfies the aggregate invariants by
    construction. *)

val write : Softborg_util.Codec.Writer.t -> t -> unit

val read : Softborg_util.Codec.Reader.t -> t
(** @raise Softborg_util.Codec.Malformed on invalid input (including a
      node-count mismatch).
    @raise Softborg_util.Codec.Truncated on premature end. *)
