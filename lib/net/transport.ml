module Rng = Softborg_util.Rng
module Codec = Softborg_util.Codec

type config = {
  link : Link.config;
  retry_timeout : float;
  max_retries : int;
  backoff : float;
}

let default_config =
  { link = Link.default_config; retry_timeout = 0.25; max_retries = 20; backoff = 1.5 }

type config_error = { field : string; reason : string }

let pp_config_error fmt { field; reason } =
  Format.fprintf fmt "transport config: %s %s" field reason

let validate_config config =
  match Link.validate_config config.link with
  | Error { Link.field; reason } -> Error { field = "link." ^ field; reason }
  | Ok _ ->
    if not (Float.is_finite config.retry_timeout && config.retry_timeout > 0.0) then
      Error { field = "retry_timeout"; reason = "must be finite and > 0" }
    else if config.max_retries < 0 then
      Error { field = "max_retries"; reason = "must be >= 0" }
    else if not (Float.is_finite config.backoff && config.backoff >= 1.0) then
      Error { field = "backoff"; reason = "must be finite and >= 1" }
    else Ok config

type stats = {
  messages_sent : int;
  retransmissions : int;
  delivered : int;
  duplicates_suppressed : int;
  gave_up : int;
  acks_sent : int;
  bytes_on_wire : int;
}

type packet =
  | Data of { seq : int; payload : string }
  | Ack of { seq : int }

let encode_packet packet =
  let w = Codec.Writer.create () in
  (match packet with
  | Data { seq; payload } ->
    Codec.Writer.byte w 0;
    Codec.Writer.varint w seq;
    Codec.Writer.bytes w payload
  | Ack { seq } ->
    Codec.Writer.byte w 1;
    Codec.Writer.varint w seq);
  Codec.Writer.contents w

let decode_packet s =
  let r = Codec.Reader.of_string s in
  match Codec.Reader.byte r with
  | 0 ->
    let seq = Codec.Reader.varint r in
    let payload = Codec.Reader.bytes r in
    Data { seq; payload }
  | 1 -> Ack { seq = Codec.Reader.varint r }
  | n -> raise (Codec.Malformed (Printf.sprintf "packet tag %d" n))

type endpoint = {
  sim : Sim.t;
  config : config;
  mutable out_link : Link.t option;  (* towards the peer *)
  mutable peer : endpoint option;
  mutable next_seq : int;
  unacked : (int, string * int) Hashtbl.t;  (* seq -> payload, retries *)
  (* Delivered sequence numbers: every one below [low_water], plus
     those in [seen_above].  Whenever [low_water] is delivered the mark
     moves up past it, so the table holds only deliveries that arrived
     ahead of an earlier number still missing (reordered, or behind a
     drop awaiting retransmission).  A number the sender abandoned
     after [max_retries] never arrives: the mark stops there, and the
     table keeps every later delivery, as a plain set would. *)
  mutable low_water : int;
  seen_above : (int, unit) Hashtbl.t;
  mutable handler : string -> unit;
  mutable give_up_handler : string -> unit;  (* dead-letter callback *)
  mutable messages_sent : int;
  mutable retransmissions : int;
  mutable delivered : int;
  mutable duplicates_suppressed : int;
  mutable gave_up : int;
  mutable acks_sent : int;
}

let make_endpoint ~sim ~config =
  {
    sim;
    config;
    out_link = None;
    peer = None;
    next_seq = 0;
    unacked = Hashtbl.create 16;
    low_water = 0;
    seen_above = Hashtbl.create 16;
    handler = ignore;
    give_up_handler = ignore;
    messages_sent = 0;
    retransmissions = 0;
    delivered = 0;
    duplicates_suppressed = 0;
    gave_up = 0;
    acks_sent = 0;
  }

let delivered_before t seq = seq < t.low_water || Hashtbl.mem t.seen_above seq

let mark_delivered t seq =
  if seq = t.low_water then begin
    t.low_water <- seq + 1;
    while Hashtbl.mem t.seen_above t.low_water do
      Hashtbl.remove t.seen_above t.low_water;
      t.low_water <- t.low_water + 1
    done
  end
  else Hashtbl.replace t.seen_above seq ()

let rec transmit t packet =
  match (t.out_link, t.peer) with
  | Some link, Some peer ->
    Link.send link ~payload:(encode_packet packet) ~deliver:(fun s -> receive peer s)
  | _ -> ()

and receive t raw =
  match decode_packet raw with
  | exception (Codec.Truncated | Codec.Malformed _) -> ()
  | Ack { seq } -> Hashtbl.remove t.unacked seq
  | Data { seq; payload } ->
    (* Always (re-)acknowledge; the previous ack may have been lost. *)
    t.acks_sent <- t.acks_sent + 1;
    transmit t (Ack { seq });
    if delivered_before t seq then t.duplicates_suppressed <- t.duplicates_suppressed + 1
    else begin
      mark_delivered t seq;
      t.delivered <- t.delivered + 1;
      t.handler payload
    end

let rec arm_retry t seq timeout =
  Sim.schedule t.sim ~delay:timeout (fun () ->
      match Hashtbl.find_opt t.unacked seq with
      | None -> ()  (* acked in the meantime *)
      | Some (payload, retries) ->
        if retries >= t.config.max_retries then begin
          Hashtbl.remove t.unacked seq;
          t.gave_up <- t.gave_up + 1;
          (* Dead-letter surface: the sender learns which payload was
             abandoned and may count it or re-enqueue it (a re-send gets
             a fresh sequence number and retry budget). *)
          t.give_up_handler payload
        end
        else begin
          Hashtbl.replace t.unacked seq (payload, retries + 1);
          t.retransmissions <- t.retransmissions + 1;
          transmit t (Data { seq; payload });
          arm_retry t seq (timeout *. t.config.backoff)
        end)

let send t payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.messages_sent <- t.messages_sent + 1;
  Hashtbl.replace t.unacked seq (payload, 0);
  transmit t (Data { seq; payload });
  arm_retry t seq t.config.retry_timeout

let on_receive t handler = t.handler <- handler
let on_give_up t handler = t.give_up_handler <- handler
let out_link t = t.out_link

let stats t =
  {
    messages_sent = t.messages_sent;
    retransmissions = t.retransmissions;
    delivered = t.delivered;
    duplicates_suppressed = t.duplicates_suppressed;
    gave_up = t.gave_up;
    acks_sent = t.acks_sent;
    bytes_on_wire = (match t.out_link with Some l -> Link.bytes_sent l | None -> 0);
  }

let endpoint_pair ?(config = default_config) ~sim ~rng () =
  (match validate_config config with
  | Ok _ -> ()
  | Error e -> invalid_arg (Format.asprintf "Transport.endpoint_pair: %a" pp_config_error e));
  let a = make_endpoint ~sim ~config in
  let b = make_endpoint ~sim ~config in
  let link_ab = Link.create ~config:config.link ~sim ~rng:(Rng.split rng) () in
  let link_ba = Link.create ~config:config.link ~sim ~rng:(Rng.split rng) () in
  a.out_link <- Some link_ab;
  a.peer <- Some b;
  b.out_link <- Some link_ba;
  b.peer <- Some a;
  (a, b)
