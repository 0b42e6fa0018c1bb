module Rng = Softborg_util.Rng
module Codec = Softborg_util.Codec
module Wire = Softborg_trace.Wire
module Trace = Softborg_trace.Trace
module Sim = Softborg_net.Sim
module Transport = Softborg_net.Transport

let src = Logs.Src.create "softborg.federation" ~doc:"SoftBorg hive federation"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  shard_map : Shard_map.t;
  superstep_interval : float;
  synthesize : bool;
  shard_hive : Hive.config;
  merged_hive : Hive.config;
  transport : Transport.config;
  pool_size : int;
}

let default_config ~n_shards () =
  let base = Hive.default_config Hive.Full in
  {
    shard_map = Shard_map.create ~n_shards ();
    superstep_interval = base.Hive.analysis_interval;
    synthesize = true;
    shard_hive = base;
    merged_hive = base;
    transport = Transport.default_config;
    pool_size = 1;
  }

type shard = {
  s_index : int;
  s_hive : Hive.t;
  s_uplink : Transport.endpoint;  (* shard side of the link to the coordinator *)
  mutable s_ends : Transport.endpoint list;  (* hive-side pod attachments *)
  mutable s_pending : string list;  (* admitted canonical payloads, newest first *)
  mutable s_next_seq : int;
}

(* One pod's view of the federation: its connection terminates at the
   router, which holds a dedicated lossy link to every shard on the
   pod's behalf.  Per-pod shard links keep the shards' per-slot
   accounting (fair-share shedding, poison quarantine, mutes) exactly
   as meaningful as with a directly attached pod. *)
type attachment = {
  pod_link : Transport.endpoint;  (* router side of the pod connection *)
  to_shard : Transport.endpoint array;  (* router side toward each shard *)
}

type shard_stats = {
  shard : int;
  hive_stats : Hive.stats;
  pending : int;
  gap_memo_hits : int;
  gap_memo_misses : int;
  verdict_cache_hits : int;
  verdict_cache_misses : int;
}

type stats = {
  supersteps : int;
  deltas_sent : int;
  deltas_committed : int;
  payloads_merged : int;
  payloads_decoded : int;
  fix_updates_sent : int;
  per_shard : shard_stats list;
}

type t = {
  sim : Sim.t;
  config : config;
  map : Shard_map.t;
  rng : Rng.t;
  shards : shard array;
  merged : Hive.t;
  downlinks : Transport.endpoint array;  (* coordinator side of each uplink *)
  (* Superstep inboxes: deltas received but not yet committed, keyed by
     sequence number per shard.  Commit drains them in (shard, seq)
     order — the fixed total order of the merge. *)
  inboxes : (int, (string * int) list) Hashtbl.t array;
  next_expected : int array;
  mutable attachments : attachment list;
  published_epoch : (string, int) Hashtbl.t;
  mutable supersteps : int;
  mutable deltas_sent : int;
  mutable deltas_committed : int;
  mutable payloads_merged : int;
  mutable payloads_decoded : int;
  mutable fix_updates_sent : int;
}

(* ---- Coordinator receive path ----------------------------------------- *)

let stash t payload =
  match Protocol.decode payload with
  | Ok (Protocol.Knowledge_delta { shard; seq; payloads })
    when shard >= 0 && shard < Array.length t.shards ->
    (* The transport already suppresses link-level duplicates; the seq
       guard additionally drops a delta re-sent after a shard restore
       rewound its counter. *)
    if seq >= t.next_expected.(shard) && not (Hashtbl.mem t.inboxes.(shard) seq) then
      Hashtbl.replace t.inboxes.(shard) seq payloads
  | Ok _ | Error _ -> ()

let create ~config ~sim ~rng () =
  let n = Shard_map.n_shards config.shard_map in
  (* Shards never mint fixes or whole-program proofs: a shard's partial
     evidence would mint fix ids and epochs that diverge from the
     coordinator's, and its partial subtree could prove an unsound
     whole-program property.  They derive gap verdicts at the
     coordinator's symexec config: a verdict answers one question at
     one budget, and verdicts cross between the two kinds of table. *)
  let shard_config =
    {
      config.shard_hive with
      Hive.synthesize = false;
      prove = false;
      symexec_config = config.merged_hive.Hive.symexec_config;
    }
  in
  let uplinks =
    Array.init n (fun _ ->
        Transport.endpoint_pair ~config:config.transport ~sim ~rng:(Rng.split rng) ())
  in
  let shards =
    Array.init n (fun i ->
        {
          s_index = i;
          s_hive = Hive.create ~config:shard_config ~sim ();
          s_uplink = fst uplinks.(i);
          s_ends = [];
          s_pending = [];
          s_next_seq = 0;
        })
  in
  Array.iter
    (fun s -> Hive.set_ingest_tap s.s_hive (fun payload -> s.s_pending <- payload :: s.s_pending))
    shards;
  let t =
    {
      sim;
      config;
      map = config.shard_map;
      rng;
      shards;
      merged = Hive.create ~config:config.merged_hive ~sim ();
      downlinks = Array.map snd uplinks;
      inboxes = Array.init n (fun _ -> Hashtbl.create 8);
      next_expected = Array.make n 0;
      attachments = [];
      published_epoch = Hashtbl.create 4;
      supersteps = 0;
      deltas_sent = 0;
      deltas_committed = 0;
      payloads_merged = 0;
      payloads_decoded = 0;
      fix_updates_sent = 0;
    }
  in
  Array.iter (fun endpoint -> Transport.on_receive endpoint (stash t)) t.downlinks;
  t

let n_shards t = Array.length t.shards
let merged t = t.merged
let shard_hive t i = t.shards.(i).s_hive

let register_program t program =
  Array.iter (fun s -> ignore (Hive.register_program s.s_hive program)) t.shards;
  Hive.register_program t.merged program

(* ---- Pod routing -------------------------------------------------------- *)

let route t a payload =
  let owner =
    match Protocol.decode payload with
    | Ok (Protocol.Trace_upload inner) -> (
      match Wire.decode inner with
      | Ok trace -> Shard_map.owner_of_bits t.map trace.Trace.bits
      | Error _ ->
        (* Malformed inner frame: still deliver it (deterministically,
           by frame content) so the owning shard's poison quarantine
           sees it — the router must not silently launder poison. *)
        Shard_map.owner_of_digest t.map payload)
    | Ok (Protocol.Sampled_report { program_digest; _ }) ->
      Shard_map.owner_of_digest t.map program_digest
    | Ok (Protocol.Batch_upload { program_digest; _ }) ->
      (* A batch's records may cover many branch prefixes, and a delta
         record is only decodable next to its anchor — the whole frame
         goes to one shard, keyed by program. *)
      Shard_map.owner_of_digest t.map program_digest
    | Ok _ -> -1  (* downstream echoes stop at the router *)
    | Error _ -> Shard_map.owner_of_digest t.map payload
  in
  if owner >= 0 then Transport.send a.to_shard.(owner) payload

let attach_pod t pod_link =
  let to_shard =
    Array.map
      (fun s ->
        let router_end, shard_end =
          Transport.endpoint_pair ~config:t.config.transport ~sim:t.sim ~rng:(Rng.split t.rng)
            ()
        in
        Hive.attach_pod s.s_hive shard_end;
        s.s_ends <- shard_end :: s.s_ends;
        (* A hive sends pods only downstream kinds, and a pod ignores
           any other: the router relays them undecoded. *)
        Transport.on_receive router_end (Transport.send pod_link);
        router_end)
      t.shards
  in
  let a = { pod_link; to_shard } in
  t.attachments <- t.attachments @ [ a ];
  Transport.on_receive pod_link (route t a)

(* ---- The superstep ------------------------------------------------------ *)

let by_digest a b = String.compare (Knowledge.digest a) (Knowledge.digest b)

(* Byte-identical payloads travel once with their number of copies, in
   order of first admission.  [pending] is newest first. *)
let group_payloads pending =
  let copies = Hashtbl.create 64 in
  let first_seen =
    List.fold_left
      (fun first_seen payload ->
        match Hashtbl.find_opt copies payload with
        | Some n ->
          incr n;
          first_seen
        | None ->
          Hashtbl.add copies payload (ref 1);
          payload :: first_seen)
      [] (List.rev pending)
  in
  List.rev_map (fun payload -> (payload, !(Hashtbl.find copies payload))) first_seen

(* A shard with nothing admitted sends no delta. *)
let flush t =
  Array.iter
    (fun s ->
      if s.s_pending <> [] then begin
        let payloads = group_payloads s.s_pending in
        s.s_pending <- [];
        let seq = s.s_next_seq in
        s.s_next_seq <- seq + 1;
        Transport.send s.s_uplink
          (Protocol.encode (Protocol.Knowledge_delta { shard = s.s_index; seq; payloads }));
        t.deltas_sent <- t.deltas_sent + 1;
        Log.debug (fun m ->
            m "shard %d delta seq=%d payloads=%d" s.s_index seq (List.length payloads))
      end)
    t.shards

(* Give [dst] every gap verdict of [src] that it lacks, program by
   program.  A verdict is a pure function of (program, site,
   direction, symexec config), and every hive of a federation derives
   at one config, so the union of two tables is a table. *)
let hand_over ~src ~dst =
  List.iter
    (fun k ->
      match Hive.knowledge dst ~digest:(Knowledge.digest k) with
      | None -> ()
      | Some k' -> Gap_memo.union ~into:(Knowledge.gap_memo k') (Knowledge.gap_memo k))
    (Hive.knowledge_list src)

let commit t =
  let merged_now = ref 0 in
  Array.iteri
    (fun i inbox ->
      let rec drain () =
        match Hashtbl.find_opt inbox t.next_expected.(i) with
        | None -> ()
        | Some payloads ->
          Hashtbl.remove inbox t.next_expected.(i);
          t.next_expected.(i) <- t.next_expected.(i) + 1;
          t.deltas_committed <- t.deltas_committed + 1;
          List.iter
            (fun (payload, copies) ->
              merged_now := !merged_now + copies;
              t.payloads_decoded <- t.payloads_decoded + 1;
              Hive.ingest_payload ~copies t.merged payload)
            payloads;
          drain ()
      in
      drain ())
    t.inboxes;
  t.payloads_merged <- t.payloads_merged + !merged_now;
  !merged_now

(* Bring one shard up to the coordinator: adopt its fix set and
   retracted ids for every program (so the shard's replay hooks and
   ingest quarantine for any epoch match the coordinator's; adoption
   is epoch-monotonic, so this is a no-op for a current shard), then
   take every gap verdict it lacks.  [publish] runs it for every shard
   and [restore_shard] for the restored one. *)
let catch_up t s =
  List.iter
    (fun k ->
      Hive.adopt_fixes s.s_hive ~digest:(Knowledge.digest k) ~fixes:(Knowledge.fixes k)
        ~epoch:(Knowledge.epoch k) ~retracted:(Knowledge.retracted_ids k))
    (Hive.knowledge_list t.merged);
  hand_over ~src:t.merged ~dst:s.s_hive

(* Publish what the merged analysis decided since the last superstep.
   Pods get the frame a standalone hive would send for each program
   whose fix set moved, retraction included ({!Hive.fix_update}; the
   coordinator serves no pods, so its pressure level stays 0).
   Retraction is decided only here at the coordinator; shards and pods
   learn of it in superstep order, as a higher epoch. *)
let publish t =
  Hive.knowledge_list t.merged
  |> List.sort by_digest
  |> List.iter (fun k ->
         let digest = Knowledge.digest k in
         let epoch = Knowledge.epoch k in
         let prev = Option.value ~default:0 (Hashtbl.find_opt t.published_epoch digest) in
         if epoch > prev then begin
           Hashtbl.replace t.published_epoch digest epoch;
           let payload = Protocol.encode (Hive.fix_update t.merged k) in
           List.iter (fun a -> Transport.send a.pod_link payload) t.attachments;
           t.fix_updates_sent <- t.fix_updates_sent + 1
         end);
  Array.iter (catch_up t) t.shards

(* The coordinator's tick reads its verdict tables, so before it runs
   they take every verdict the shards derived since the last
   superstep; [publish] then hands the union back to every shard. *)
let superstep t =
  t.supersteps <- t.supersteps + 1;
  flush t;
  ignore (commit t);
  if t.config.synthesize then begin
    Array.iter (fun s -> hand_over ~src:s.s_hive ~dst:t.merged) t.shards;
    Hive.tick t.merged;
    publish t
  end

let rec arm t =
  Sim.schedule t.sim ~delay:t.config.superstep_interval (fun () ->
      superstep t;
      arm t)

let start t =
  Array.iter (fun s -> Hive.start s.s_hive) t.shards;
  arm t

let shutdown (_ : t) = ()

(* ---- Observability ------------------------------------------------------ *)

let sum_cache f s =
  List.fold_left (fun acc k -> acc + f k) 0 (Hive.knowledge_list s.s_hive)

let stats t =
  {
    supersteps = t.supersteps;
    deltas_sent = t.deltas_sent;
    deltas_committed = t.deltas_committed;
    payloads_merged = t.payloads_merged;
    payloads_decoded = t.payloads_decoded;
    fix_updates_sent = t.fix_updates_sent;
    per_shard =
      Array.to_list t.shards
      |> List.map (fun s ->
             {
               shard = s.s_index;
               hive_stats = Hive.stats s.s_hive;
               pending = List.length s.s_pending;
               gap_memo_hits = sum_cache (fun k -> Gap_memo.hits (Knowledge.gap_memo k)) s;
               gap_memo_misses = sum_cache (fun k -> Gap_memo.misses (Knowledge.gap_memo k)) s;
               verdict_cache_hits =
                 sum_cache
                   (fun k -> Softborg_solver.Verdict_cache.hits (Knowledge.verdict_cache k))
                   s;
               verdict_cache_misses =
                 sum_cache
                   (fun k -> Softborg_solver.Verdict_cache.misses (Knowledge.verdict_cache k))
                   s;
             });
  }

let links t =
  let endpoints =
    List.concat_map (fun a -> a.pod_link :: Array.to_list a.to_shard) t.attachments
    @ Array.to_list (Array.map (fun s -> s.s_uplink) t.shards)
    @ List.concat_map (fun s -> s.s_ends) (Array.to_list t.shards)
    @ Array.to_list t.downlinks
  in
  List.filter_map Transport.out_link endpoints

(* ---- Shard checkpoint / restore ----------------------------------------- *)

let checkpoint_magic = "SBFS"

(* v3: no verdict section; the wrapped hive checkpoint carries the
   shard's gap verdicts. *)
let checkpoint_version = 3

(* A shard checkpoint wraps the hive checkpoint with the federation's
   shard-local transfer state (unsent pending payloads and the delta
   sequence counter), so a crash-restore cycle resumes exchange without
   losing admitted-but-unflushed work that the checkpoint saw. *)
let checkpoint_shard t i =
  let s = t.shards.(i) in
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.byte w (Char.code c)) checkpoint_magic;
  Codec.Writer.varint w checkpoint_version;
  Codec.Writer.varint w s.s_next_seq;
  Codec.Writer.list w (Codec.Writer.bytes w) (List.rev s.s_pending);
  Codec.Writer.bytes w (Hive.checkpoint s.s_hive);
  Codec.Writer.contents w

let restore_shard t i data =
  let s = t.shards.(i) in
  let r = Codec.Reader.of_string data in
  match
    let seen =
      String.init (String.length checkpoint_magic) (fun _ -> Char.chr (Codec.Reader.byte r))
    in
    if seen <> checkpoint_magic then Error (Printf.sprintf "bad shard checkpoint magic %S" seen)
    else
      let version = Codec.Reader.varint r in
      if version <> checkpoint_version then
        Error (Printf.sprintf "unsupported shard checkpoint version %d" version)
      else
        let next_seq = Codec.Reader.varint r in
        let pending = Codec.Reader.list r Codec.Reader.bytes in
        let hive = Codec.Reader.bytes r in
        Codec.Reader.expect_end r;
        match Hive.restore s.s_hive hive with
        | Error _ as e -> e
        | Ok n ->
          (* Never rewind the sequence counter: the coordinator has
             already committed (or holds) deltas up to the live value,
             and a reused seq would be dropped as a duplicate. *)
          s.s_next_seq <- max s.s_next_seq next_seq;
          s.s_pending <- List.rev pending;
          (* Fixes published (or retracted) and verdicts the
             coordinator took after the checkpoint was taken. *)
          catch_up t s;
          Ok n
  with
  | result -> result
  | exception Codec.Truncated -> Error "truncated shard checkpoint"
  | exception Codec.Malformed msg -> Error (Printf.sprintf "malformed shard checkpoint: %s" msg)
