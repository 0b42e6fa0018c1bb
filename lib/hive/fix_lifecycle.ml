module Codec = Softborg_util.Codec

type stage = Canary | Fleet | Retracted

type config = {
  canary_mils : int;
  min_exposed : int;
  min_control : int;
  harm_ratio_mils : int;
  harm_margin_mils : int;
  novel_bucket_k : int;
  misfire_mils : int;
  promote_after : int;
  max_hold_ticks : int;
}

let default_config =
  {
    canary_mils = 125;
    min_exposed = 8;
    min_control = 8;
    harm_ratio_mils = 1500;
    harm_margin_mils = 100;
    novel_bucket_k = 3;
    misfire_mils = 250;
    promote_after = 24;
    max_hold_ticks = 2;
  }

let instant = { default_config with canary_mils = 0 }

(* FNV-1a over the ids' bytes, masked non-negative: seed-free, so
   cohort membership depends only on (cohort id, fix id) — never on
   shard count or process-global pod-id allocation order. *)
let cohort_hash ~cohort ~fix_id =
  let h = ref 0x3bf29ce484222325 in
  let mix b = h := (!h lxor (b land 0xff)) * 0x100000001b3 land max_int in
  let mix_int v =
    for i = 0 to 7 do
      mix ((v lsr (8 * i)) land 0xff)
    done
  in
  mix_int cohort;
  mix_int fix_id;
  !h

let in_cohort ~cohort ~fix_id ~mils =
  if mils >= 1000 then true
  else if mils <= 0 then false
  else cohort_hash ~cohort ~fix_id mod 1000 < mils

type health = {
  mutable exposed_runs : int;
  mutable exposed_failures : int;
  mutable control_runs : int;
  mutable control_failures : int;
  mutable misfires : int;
  exposed_buckets : (string, int ref) Hashtbl.t;
  control_buckets : (string, int ref) Hashtbl.t;
}

let fresh_health () =
  {
    exposed_runs = 0;
    exposed_failures = 0;
    control_runs = 0;
    control_failures = 0;
    misfires = 0;
    exposed_buckets = Hashtbl.create 7;
    control_buckets = Hashtbl.create 7;
  }

type entry = {
  fix_id : int;
  mutable stage : stage;
  mutable retired_epoch : int;
  mutable ticks_held : int;
  health : health;
}

let create_entry ~fix_id ~stage =
  { fix_id; stage; retired_epoch = 0; ticks_held = 0; health = fresh_health () }

let bump_bucket tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let observe entry ~exposed ~failed ~bucket ~hook_fires =
  let h = entry.health in
  if exposed then begin
    h.exposed_runs <- h.exposed_runs + 1;
    if failed then begin
      h.exposed_failures <- h.exposed_failures + 1;
      bump_bucket h.exposed_buckets bucket
    end
    else if hook_fires > 0 then h.misfires <- h.misfires + 1
  end
  else begin
    h.control_runs <- h.control_runs + 1;
    if failed then begin
      h.control_failures <- h.control_failures + 1;
      bump_bucket h.control_buckets bucket
    end
  end

type decision = Hold | Promote | Retract of string

(* Sorted so the reported reason is deterministic when several novel
   buckets cross the threshold at once. *)
let novel_bucket config h =
  Hashtbl.fold
    (fun key count acc ->
      if !count >= config.novel_bucket_k && not (Hashtbl.mem h.control_buckets key) then
        key :: acc
      else acc)
    h.exposed_buckets []
  |> List.sort String.compare
  |> function
  | [] -> None
  | key :: _ -> Some key

let decide config entry =
  match entry.stage with
  | Fleet | Retracted -> Hold
  | Canary -> (
    let h = entry.health in
    let sampled = h.exposed_runs >= config.min_exposed && h.control_runs >= config.min_control in
    (* Integer form of  ef/er > (cf/cr)·ratio + margin  (rates in
       mils): cross-multiplied so the test is exact and replayable. *)
    let harmful =
      sampled
      && h.exposed_failures * h.control_runs * 1000
         > (h.control_failures * h.exposed_runs * config.harm_ratio_mils)
           + (h.exposed_runs * h.control_runs * config.harm_margin_mils)
    in
    (* Hooks firing on a workload the control cohort shows to be
       benign: a guard at the wrong site, or an immunity set that
       serializes schedules nobody needed serialized. *)
    let misfiring =
      sampled && h.control_failures = 0
      && h.misfires * 1000 > h.exposed_runs * config.misfire_mils
    in
    if harmful then Retract "failure-rate"
    else
      (* Novelty needs the same sample floor: with an empty control
         cohort every bucket is "novel", and the contract is no
         verdict of any kind before the minimums. *)
      match if sampled then novel_bucket config h else None with
      | Some key -> Retract ("novel-bucket:" ^ key)
      | None ->
        if misfiring then Retract "guard-misfire"
        else if h.exposed_runs >= config.promote_after || entry.ticks_held >= config.max_hold_ticks
        then Promote
        else Hold)

(* Codec — sorted, counts via sorted bindings, so serialized bytes are
   a pure function of the observed multiset. *)

(* Tags start at 1 so that checkpoints keep their stage bytes; 0 is
   malformed and must not be reused. *)
let stage_tag = function Canary -> 1 | Fleet -> 2 | Retracted -> 3

let stage_of_tag = function
  | 1 -> Canary
  | 2 -> Fleet
  | 3 -> Retracted
  | n -> raise (Codec.Malformed (Printf.sprintf "fix_lifecycle: bad stage tag %d" n))

let sorted_buckets tbl =
  Hashtbl.fold (fun key count acc -> (key, !count) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let write_health w h =
  Codec.Writer.varint w h.exposed_runs;
  Codec.Writer.varint w h.exposed_failures;
  Codec.Writer.varint w h.control_runs;
  Codec.Writer.varint w h.control_failures;
  Codec.Writer.varint w h.misfires;
  Codec.Writer.list w
    (fun (key, count) ->
      Codec.Writer.bytes w key;
      Codec.Writer.varint w count)
    (sorted_buckets h.exposed_buckets);
  Codec.Writer.list w
    (fun (key, count) ->
      Codec.Writer.bytes w key;
      Codec.Writer.varint w count)
    (sorted_buckets h.control_buckets)

let read_buckets r =
  let tbl = Hashtbl.create 7 in
  let entries =
    Codec.Reader.list r (fun r ->
        let key = Codec.Reader.bytes r in
        let count = Codec.Reader.varint r in
        (key, count))
  in
  List.iter (fun (key, count) -> Hashtbl.replace tbl key (ref count)) entries;
  tbl

let read_health r =
  let exposed_runs = Codec.Reader.varint r in
  let exposed_failures = Codec.Reader.varint r in
  let control_runs = Codec.Reader.varint r in
  let control_failures = Codec.Reader.varint r in
  let misfires = Codec.Reader.varint r in
  let exposed_buckets = read_buckets r in
  let control_buckets = read_buckets r in
  {
    exposed_runs;
    exposed_failures;
    control_runs;
    control_failures;
    misfires;
    exposed_buckets;
    control_buckets;
  }

let write_entry w e =
  Codec.Writer.varint w e.fix_id;
  Codec.Writer.byte w (stage_tag e.stage);
  Codec.Writer.varint w e.retired_epoch;
  Codec.Writer.varint w e.ticks_held;
  write_health w e.health

let read_entry r =
  let fix_id = Codec.Reader.varint r in
  let stage = stage_of_tag (Codec.Reader.byte r) in
  let retired_epoch = Codec.Reader.varint r in
  let ticks_held = Codec.Reader.varint r in
  let health = read_health r in
  { fix_id; stage; retired_epoch; ticks_held; health }

let write_entries w entries =
  Codec.Writer.list w (write_entry w)
    (List.sort (fun a b -> Int.compare a.fix_id b.fix_id) entries)

let read_entries r = Codec.Reader.list r read_entry
