(** N-shard hive federation with a deterministic superstep merge.

    The execution-tree key space is partitioned across shard hives by
    {!Shard_map} path-prefix ranges.  Pods connect to a router, which
    holds a dedicated lossy link to every shard on each pod's behalf —
    per-slot admission control, fair-share shedding, and poison
    quarantine at the shards keep working exactly as with directly
    attached pods, and chaos fault plans apply to every federation
    link.

    Knowledge exchange follows a bulk-synchronous superstep: during a
    round, each shard ingests its routed uploads and buffers their
    canonical re-encodings (the hive's ingest tap); at the superstep
    boundary the buffers travel to the merge coordinator as
    {!Protocol.Knowledge_delta} frames, each distinct payload once
    with its number of copies, and the coordinator commits complete
    deltas atomically in (shard index, sequence) order — the fixed
    total order of the merge — decoding each distinct payload once and
    ingesting it once per copy.  Because knowledge checkpoint bytes
    are a pure function of the ingested evidence multiset, the merged
    knowledge is byte-identical to a single hive fed the same traces,
    for any shard count and any delivery interleaving the reliable
    transport produces.

    Gap verdicts never cross the wire: a verdict is a pure function of
    (program, site, direction, symexec config), and every hive of a
    federation derives at the coordinator's config.  Before the
    coordinator's tick its tables take every verdict a shard's tables
    hold and they lack; after the tick every shard takes the
    coordinator's verdicts it lacks.  So a verdict is derived once per
    federation, unless two shards first need it between the same two
    supersteps.

    Fix synthesis and whole-program proofs run only on the merged
    knowledge (a shard's partial subtree could prove an unsound
    whole-program property); deployed fixes are adopted by every shard
    and broadcast to the pods.  A shard closes gaps only where a
    standalone hive does, in its guidance tick; the superstep moves
    data and runs no symbolic work outside the coordinator's tick.
    Everything runs on the caller's domain.  The paper's parallelism
    is across hive nodes, which the shards model; domains inside one
    process did not pay on this code (DESIGN.md §15, "One domain"). *)

module Rng := Softborg_util.Rng
module Sim := Softborg_net.Sim
module Link := Softborg_net.Link
module Transport := Softborg_net.Transport
module Ir := Softborg_prog.Ir

type config = {
  shard_map : Shard_map.t;
  superstep_interval : float;  (** Seconds between superstep boundaries. *)
  synthesize : bool;
      (** Run the merged analysis (fix synthesis, proofs) after each
          commit.  [false] gives a pure-ingestion federation — the
          vehicle for merge-equality properties. *)
  shard_hive : Hive.config;
      (** Per-shard hive configuration.  [synthesize] and [prove] are
          forced off, so a shard never mints fixes or proofs, and
          [symexec_config] is forced to [merged_hive]'s, so a shard's
          verdicts answer the coordinator's questions; overload
          protection and caps apply per shard. *)
  merged_hive : Hive.config;
  transport : Transport.config;  (** Applied to every federation link. *)
  pool_size : int;
      (** Ignored: a federation runs on the caller's domain.  Kept so
          that callers written against a federation that spread its
          shards' work over domains still build. *)
}

val default_config : n_shards:int -> unit -> config

type shard_stats = {
  shard : int;
  hive_stats : Hive.stats;
  pending : int;  (** Payloads buffered for the next delta. *)
  gap_memo_hits : int;
  gap_memo_misses : int;
  verdict_cache_hits : int;
  verdict_cache_misses : int;
}

type stats = {
  supersteps : int;
  deltas_sent : int;
  deltas_committed : int;
  payloads_merged : int;  (** Payload copies ingested by the coordinator. *)
  payloads_decoded : int;
      (** Distinct payloads of the committed deltas: the coordinator
          decodes each once, however many copies it carries. *)
  fix_updates_sent : int;  (** Fix broadcasts from the coordinator, retractions included. *)
  per_shard : shard_stats list;
}

type t

val create : config:config -> sim:Sim.t -> rng:Rng.t -> unit -> t

val n_shards : t -> int
val merged : t -> Hive.t
val shard_hive : t -> int -> Hive.t

val register_program : t -> Ir.t -> Knowledge.t
(** Register on every shard and the coordinator; returns the merged
    knowledge. *)

val attach_pod : t -> Transport.endpoint -> unit
(** Wire the router side of one pod's connection: uploads route to
    their owning shard, downstream pushes (fixes, guidance, pressure)
    relay back to the pod. *)

val start : t -> unit
(** Start every shard's analysis tick and the superstep schedule. *)

val superstep : t -> unit
(** Run one superstep immediately: delta flush, ordered commit, then
    (if configured) the union of the shards' gap verdicts into the
    coordinator's tables, the coordinator's tick, and the publication
    of fixes and gap verdicts to every shard.  Also called by the
    schedule. *)

val flush : t -> unit
(** Send each shard's pending payloads, grouped into distinct payloads
    with copy counts, as a {!Protocol.Knowledge_delta}; no-op for
    shards with no payload pending.  Exposed for deterministic test
    driving. *)

val commit : t -> int
(** Drain complete inbox deltas into the merged hive in (shard, seq)
    order; returns the number of payload copies merged. *)

val shutdown : t -> unit
(** Does nothing: a federation runs on its caller's domain and owns no
    other.  Kept so that callers written against a federation that held
    worker domains still build. *)

val stats : t -> stats

val links : t -> Link.t list
(** Every federation link (pod↔router, router↔shard, shard↔coordinator)
    for chaos harnesses to degrade. *)

val checkpoint_shard : t -> int -> string
(** Serialize one shard ("SBFS" v3): its delta sequence counter, its
    unflushed payload buffer, and its full hive checkpoint (gap
    verdicts included). *)

val restore_shard : t -> int -> string -> (int, string) result
(** Restore a shard from {!checkpoint_shard} bytes, as after a crash:
    parse-then-commit, never rewinding the delta sequence counter, then
    catching up with the coordinator: its fixes (epoch-monotonic, so a
    no-op for a current shard) and every gap verdict it holds that the
    restored shard lacks.  Returns the number of programs restored;
    trailing bytes after the hive checkpoint are malformed, and so is
    any version but 3. *)
