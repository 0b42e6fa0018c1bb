(* Tests for the distribution substrate: discrete-event simulator,
   lossy links, and the reliable transport. *)

module Sim = Softborg_net.Sim
module Link = Softborg_net.Link
module Transport = Softborg_net.Transport
module Rng = Softborg_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---- Sim ------------------------------------------------------------ *)

let test_sim_fires_in_time_order () =
  let sim = Sim.create () in
  let order = ref [] in
  Sim.schedule sim ~delay:3.0 (fun () -> order := 3 :: !order);
  Sim.schedule sim ~delay:1.0 (fun () -> order := 1 :: !order);
  Sim.schedule sim ~delay:2.0 (fun () -> order := 2 :: !order);
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order);
  checkf "clock at last event" 3.0 (Sim.now sim)

let test_sim_ties_break_by_insertion () =
  let sim = Sim.create () in
  let order = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () -> order := "a" :: !order);
  Sim.schedule sim ~delay:1.0 (fun () -> order := "b" :: !order);
  Sim.run sim;
  Alcotest.(check (list string)) "insertion order" [ "a"; "b" ] (List.rev !order)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () ->
      fired := "outer" :: !fired;
      Sim.schedule sim ~delay:1.0 (fun () -> fired := "inner" :: !fired));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !fired);
  checkf "clock" 2.0 (Sim.now sim)

let test_sim_until_limit () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () -> incr fired)
  done;
  Sim.run ~until:5.0 sim;
  checki "only first five" 5 !fired;
  checki "rest pending" 5 (Sim.pending sim)

let test_sim_negative_delay_clamps () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:5.0 (fun () -> ());
  ignore (Sim.step sim);
  let fired = ref false in
  Sim.schedule sim ~delay:(-3.0) (fun () -> fired := true);
  ignore (Sim.step sim);
  checkb "clamped event fired" true !fired;
  checkf "clock unchanged by clamped event" 5.0 (Sim.now sim)

let test_sim_counts () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1.0 (fun () -> ());
  Sim.schedule sim ~delay:2.0 (fun () -> ());
  checki "pending" 2 (Sim.pending sim);
  Sim.run sim;
  checki "fired" 2 (Sim.fired sim);
  checki "none pending" 0 (Sim.pending sim)

(* ---- Link ------------------------------------------------------------ *)

let test_link_lossless_delivers_all () =
  let sim = Sim.create () in
  let link =
    Link.create ~config:Link.lan ~sim ~rng:(Rng.create 1) ()
  in
  let received = ref 0 in
  for _ = 1 to 100 do
    Link.send link ~payload:"x" ~deliver:(fun _ -> incr received)
  done;
  Sim.run sim;
  checki "all delivered" 100 !received;
  checki "none dropped" 0 (Link.dropped link)

let test_link_drops_at_configured_rate () =
  let sim = Sim.create () in
  let config = { Link.drop_probability = 0.5; mean_latency = 0.01; min_latency = 0.0 } in
  let link = Link.create ~config ~sim ~rng:(Rng.create 7) () in
  let received = ref 0 in
  for _ = 1 to 1000 do
    Link.send link ~payload:"x" ~deliver:(fun _ -> incr received)
  done;
  Sim.run sim;
  checkb "roughly half dropped" true (!received > 380 && !received < 620);
  checki "accounting consistent" 1000 (Link.dropped link + !received)

let test_link_latency_floor () =
  let sim = Sim.create () in
  let config = { Link.drop_probability = 0.0; mean_latency = 0.05; min_latency = 0.02 } in
  let link = Link.create ~config ~sim ~rng:(Rng.create 3) () in
  let arrival = ref 0.0 in
  Link.send link ~payload:"x" ~deliver:(fun _ -> arrival := Sim.now sim);
  Sim.run sim;
  checkb "at least the floor" true (!arrival >= 0.02)

let test_link_byte_accounting () =
  let sim = Sim.create () in
  let link = Link.create ~config:Link.lan ~sim ~rng:(Rng.create 1) () in
  Link.send link ~payload:"hello" ~deliver:ignore;
  Link.send link ~payload:"yo" ~deliver:ignore;
  checki "bytes counted" 7 (Link.bytes_sent link)

(* ---- Transport --------------------------------------------------------- *)

let pair ?config seed =
  let sim = Sim.create () in
  let a, b = Transport.endpoint_pair ?config ~sim ~rng:(Rng.create seed) () in
  (sim, a, b)

let test_transport_delivers_in_order_content () =
  let sim, a, b = pair 1 in
  let received = ref [] in
  Transport.on_receive b (fun payload -> received := payload :: !received);
  List.iter (Transport.send a) [ "one"; "two"; "three" ];
  Sim.run sim;
  Alcotest.(check (list string))
    "all delivered exactly once"
    (List.sort compare [ "one"; "two"; "three" ])
    (List.sort compare !received);
  checki "no duplicates" 3 (List.length !received)

let test_transport_survives_heavy_loss () =
  let config =
    {
      Transport.default_config with
      Transport.link = { Link.drop_probability = 0.4; mean_latency = 0.02; min_latency = 0.001 };
    }
  in
  let sim, a, b = pair ~config 5 in
  let received = ref 0 in
  Transport.on_receive b (fun _ -> incr received);
  for i = 1 to 200 do
    Transport.send a (Printf.sprintf "msg-%d" i)
  done;
  Sim.run sim;
  checki "every message eventually delivered" 200 !received;
  let s = Transport.stats a in
  checkb "retransmissions happened" true (s.Transport.retransmissions > 0)

let test_transport_no_duplicate_delivery () =
  let config =
    {
      Transport.default_config with
      Transport.link = { Link.drop_probability = 0.3; mean_latency = 0.05; min_latency = 0.001 };
      Transport.retry_timeout = 0.01;  (* aggressive: force duplicates on the wire *)
    }
  in
  let sim, a, b = pair ~config 9 in
  let received = ref 0 in
  Transport.on_receive b (fun _ -> incr received);
  for _ = 1 to 50 do
    Transport.send a "dup-test"
  done;
  Sim.run sim;
  checki "exactly once to the application" 50 !received;
  let s = Transport.stats b in
  checkb "duplicates were suppressed" true (s.Transport.duplicates_suppressed > 0)

let test_transport_bidirectional () =
  let sim, a, b = pair 11 in
  let at_a = ref 0 and at_b = ref 0 in
  Transport.on_receive a (fun _ -> incr at_a);
  Transport.on_receive b (fun _ -> incr at_b);
  Transport.send a "to-b";
  Transport.send b "to-a";
  Sim.run sim;
  checki "a received" 1 !at_a;
  checki "b received" 1 !at_b

let test_transport_gives_up_eventually () =
  let config =
    {
      Transport.default_config with
      Transport.link = { Link.drop_probability = 1.0; mean_latency = 0.01; min_latency = 0.001 };
      Transport.max_retries = 3;
      Transport.retry_timeout = 0.01;
    }
  in
  let sim, a, b = pair ~config 13 in
  Transport.on_receive b (fun _ -> Alcotest.fail "nothing can arrive");
  Transport.send a "doomed";
  Sim.run sim;
  let s = Transport.stats a in
  checki "gave up" 1 s.Transport.gave_up;
  checki "three retries" 3 s.Transport.retransmissions

(* ---- Adversarial link conditions ------------------------------------- *)

let test_transport_survives_duplication () =
  (* A flaky router clones packets: the wire sees each copy, the
     application exactly one. *)
  let config =
    {
      Transport.default_config with
      Transport.link = { Link.drop_probability = 0.0; mean_latency = 0.02; min_latency = 0.001 };
    }
  in
  let sim, a, b = pair ~config 17 in
  let link_ab =
    match Transport.out_link a with Some l -> l | None -> Alcotest.fail "endpoint has no link"
  in
  Link.set_duplicate_probability link_ab 0.8;
  let received = ref [] in
  Transport.on_receive b (fun payload -> received := payload :: !received);
  let n = 100 in
  for i = 1 to n do
    Transport.send a (Printf.sprintf "m-%d" i)
  done;
  Sim.run sim;
  checki "exactly once to the application" n (List.length !received);
  checki "no payload repeated" n (List.length (List.sort_uniq compare !received));
  checkb "the wire did duplicate" true (Link.duplicated link_ab > 0);
  let sb = Transport.stats b in
  checkb "duplicates were suppressed" true (sb.Transport.duplicates_suppressed > 0);
  (* Every data copy the link delivered was either handed to the app
     (first arrival) or suppressed (clone or retransmit). *)
  checki "receiver accounts for every wire copy"
    (Link.delivered link_ab)
    (sb.Transport.delivered + sb.Transport.duplicates_suppressed);
  (* Link-level conservation: what went in either dropped or came out,
     plus one extra arrival per clone. *)
  checki "link conservation"
    (Link.sent link_ab - Link.dropped link_ab + Link.duplicated link_ab)
    (Link.delivered link_ab)

let test_transport_survives_reordering () =
  (* High-variance latency with back-to-back sends scrambles arrival
     order; delivery must still be exactly-once and complete. *)
  let config =
    {
      Transport.default_config with
      Transport.link = { Link.drop_probability = 0.0; mean_latency = 0.3; min_latency = 0.0 };
      Transport.retry_timeout = 5.0;  (* keep retransmits out of the picture *)
    }
  in
  let sim, a, b = pair ~config 23 in
  let received = ref [] in
  Transport.on_receive b (fun payload -> received := payload :: !received);
  let n = 100 in
  let sent = List.init n (fun i -> Printf.sprintf "m-%02d" i) in
  List.iter (Transport.send a) sent;
  Sim.run sim;
  let received = List.rev !received in
  checkb "arrival order was actually scrambled" true (received <> sent);
  Alcotest.(check (list string)) "but nothing lost or repeated" sent (List.sort compare received);
  let sa = Transport.stats a and sb = Transport.stats b in
  checki "nothing abandoned" 0 sa.Transport.gave_up;
  checki "receiver matches sender" sa.Transport.messages_sent sb.Transport.delivered

let test_transport_adversarial_battery () =
  (* Loss, duplication, and an impatient retry timer all at once, both
     directions.  Exactly-once delivery must hold and every counter must
     reconcile with the sender's. *)
  let config =
    {
      Transport.default_config with
      Transport.link = { Link.drop_probability = 0.3; mean_latency = 0.05; min_latency = 0.001 };
      Transport.retry_timeout = 0.02;
      Transport.max_retries = 30;
    }
  in
  let sim, a, b = pair ~config 29 in
  (match (Transport.out_link a, Transport.out_link b) with
  | Some ab, Some ba ->
    Link.set_duplicate_probability ab 0.5;
    Link.set_duplicate_probability ba 0.5
  | _ -> Alcotest.fail "endpoints have no links");
  let received = ref [] in
  Transport.on_receive b (fun payload -> received := payload :: !received);
  let n = 200 in
  for i = 1 to n do
    Transport.send a (Printf.sprintf "m-%d" i)
  done;
  Sim.run sim;
  let sa = Transport.stats a and sb = Transport.stats b in
  checki "exactly-once delivery" (sa.Transport.messages_sent - sa.Transport.gave_up)
    sb.Transport.delivered;
  checki "no payload repeated" (List.length !received)
    (List.length (List.sort_uniq compare !received));
  checkb "the battery actually fired" true
    (sa.Transport.retransmissions > 0 && sb.Transport.duplicates_suppressed > 0);
  let link_ab =
    match Transport.out_link a with Some l -> l | None -> assert false
  in
  checki "receiver accounts for every wire copy"
    (Link.delivered link_ab)
    (sb.Transport.delivered + sb.Transport.duplicates_suppressed);
  checki "link conservation"
    (Link.sent link_ab - Link.dropped link_ab + Link.duplicated link_ab)
    (Link.delivered link_ab)

let test_transport_dedup_below_and_around_gaps () =
  let lossless = { Link.drop_probability = 0.0; mean_latency = 0.02; min_latency = 0.001 } in
  let links a b =
    match (Transport.out_link a, Transport.out_link b) with
    | Some ab, Some ba -> (ab, ba)
    | _ -> Alcotest.fail "endpoints have no links"
  in
  (* 1. Every ack is lost for a while, so the sender keeps re-sending
     message 0 after 200 later messages were delivered: its copies
     arrive far below the receiver's low mark and must be suppressed. *)
  let sim, a, b = pair ~config:{ Transport.default_config with Transport.link = lossless } 41 in
  let _, ba = links a b in
  Link.set_config ba { lossless with Link.drop_probability = 1.0 };
  let counts = Hashtbl.create 256 in
  let arrivals = ref [] in
  Transport.on_receive b (fun payload ->
      arrivals := payload :: !arrivals;
      Hashtbl.replace counts payload (1 + Option.value ~default:0 (Hashtbl.find_opt counts payload)));
  Transport.send a "first";
  Sim.run ~until:0.1 sim;
  for i = 1 to 200 do
    Transport.send a (Printf.sprintf "m-%d" i)
  done;
  Sim.run ~until:2.0 sim;
  Link.set_config ba lossless;
  Sim.run sim;
  checki "every message delivered" 201 (Hashtbl.length counts);
  Hashtbl.iter (fun payload n -> checki (payload ^ " reached the handler once") 1 n) counts;
  checkb "message 0 was delivered before the 200 later ones" true
    (List.nth !arrivals 200 = "first");
  let sa = Transport.stats a and sb = Transport.stats b in
  checkb "message 0 was re-sent" true (sa.Transport.retransmissions > 200);
  checki "every re-sent copy suppressed" sa.Transport.retransmissions
    sb.Transport.duplicates_suppressed;
  (* 2. One packet is dropped while high-variance latency scrambles the
     rest: deliveries arrive out of order around the gap, the re-sent
     packet fills it, and each message reaches the handler once. *)
  let config =
    {
      Transport.default_config with
      Transport.link = { Link.drop_probability = 0.0; mean_latency = 0.3; min_latency = 0.0 };
    }
  in
  let sim, a, b = pair ~config 43 in
  let ab, _ = links a b in
  let received = ref [] in
  Transport.on_receive b (fun payload -> received := payload :: !received);
  let sent = List.init 40 (fun i -> Printf.sprintf "m-%02d" i) in
  List.iteri
    (fun i payload ->
      Link.set_config ab
        { (Link.config ab) with Link.drop_probability = (if i = 5 then 1.0 else 0.0) };
      Transport.send a payload)
    sent;
  Link.set_config ab { (Link.config ab) with Link.drop_probability = 0.0 };
  Sim.run sim;
  let received = List.rev !received in
  checkb "arrival order was scrambled" true (received <> sent);
  let rec before_dropped = function
    | [] -> []
    | "m-05" :: _ -> []
    | m :: rest -> m :: before_dropped rest
  in
  checkb "later messages arrived before the dropped one" true
    (List.exists (fun m -> m > "m-05") (before_dropped received));
  Alcotest.(check (list string)) "each message reached the handler once" sent
    (List.sort compare received);
  checkb "the dropped packet was re-sent" true
    ((Transport.stats a).Transport.retransmissions > 0)

let prop_transport_reliable_random_configs =
  QCheck.Test.make ~name:"transport delivers everything exactly once" ~count:30
    QCheck.(pair small_nat (int_range 0 35))
    (fun (seed, drop_pct) ->
      let config =
        {
          Transport.default_config with
          Transport.link =
            {
              Link.drop_probability = float_of_int drop_pct /. 100.0;
              mean_latency = 0.02;
              min_latency = 0.001;
            };
          Transport.retry_timeout = 0.05;
        }
      in
      let sim, a, b = pair ~config (seed + 100) in
      let received = ref 0 in
      Transport.on_receive b (fun _ -> incr received);
      let n = 40 in
      for _ = 1 to n do
        Transport.send a "m"
      done;
      Sim.run sim;
      !received = n)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_net"
    [
      ( "sim",
        [
          Alcotest.test_case "time order" `Quick test_sim_fires_in_time_order;
          Alcotest.test_case "tie break" `Quick test_sim_ties_break_by_insertion;
          Alcotest.test_case "nested" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "until" `Quick test_sim_until_limit;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay_clamps;
          Alcotest.test_case "counts" `Quick test_sim_counts;
        ] );
      ( "link",
        [
          Alcotest.test_case "lossless" `Quick test_link_lossless_delivers_all;
          Alcotest.test_case "drop rate" `Quick test_link_drops_at_configured_rate;
          Alcotest.test_case "latency floor" `Quick test_link_latency_floor;
          Alcotest.test_case "byte accounting" `Quick test_link_byte_accounting;
        ] );
      ( "transport",
        [
          Alcotest.test_case "delivers" `Quick test_transport_delivers_in_order_content;
          Alcotest.test_case "heavy loss" `Quick test_transport_survives_heavy_loss;
          Alcotest.test_case "no duplicates" `Quick test_transport_no_duplicate_delivery;
          Alcotest.test_case "bidirectional" `Quick test_transport_bidirectional;
          Alcotest.test_case "gives up" `Quick test_transport_gives_up_eventually;
          Alcotest.test_case "duplication" `Quick test_transport_survives_duplication;
          Alcotest.test_case "reordering" `Quick test_transport_survives_reordering;
          Alcotest.test_case "adversarial battery" `Quick test_transport_adversarial_battery;
          Alcotest.test_case "dedup below and around gaps" `Quick
            test_transport_dedup_below_and_around_gaps;
          q prop_transport_reliable_random_configs;
        ] );
    ]
