(* Tests for trace records, the wire codec, compression, sampling, and
   anonymization. *)

module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Generator = Softborg_prog.Generator
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Outcome = Softborg_exec.Outcome
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Compress = Softborg_trace.Compress
module Sampling = Softborg_trace.Sampling
module Anonymize = Softborg_trace.Anonymize
module Bitvec = Softborg_util.Bitvec
module Rng = Softborg_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let trace_of ?(sched = Sched.Round_robin) ?(fault_plan = Env.No_faults) prog inputs =
  let env = Env.make ~fault_plan ~seed:7 ~inputs () in
  let r = Interp.run ~program:prog ~env ~sched () in
  (Trace.of_result ~program_digest:(Ir.digest prog) ~pod:1 ~fix_epoch:0 r, r)

(* ---- Trace -------------------------------------------------------- *)

let test_trace_of_result () =
  let trace, r = trace_of Corpus.fig2_write [| 5 |] in
  checki "decision count" (List.length r.Interp.full_path) trace.Trace.n_decisions;
  checkb "outcome preserved" true (Outcome.equal r.Interp.outcome trace.Trace.outcome);
  checkb "fraction in [0,1]" true
    (Trace.recorded_fraction trace >= 0.0 && Trace.recorded_fraction trace <= 1.0)

let test_trace_ids_fresh () =
  let t1, _ = trace_of Corpus.fig2_write [| 5 |] in
  let t2, _ = trace_of Corpus.fig2_write [| 5 |] in
  checkb "distinct trace ids" false
    (Softborg_util.Ids.Trace_id.equal t1.Trace.trace_id t2.Trace.trace_id);
  checkb "same content" true (Trace.equal t1 t2)

(* ---- Wire --------------------------------------------------------- *)

let roundtrip trace =
  match Wire.decode (Wire.encode trace) with
  | Ok t -> t
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e

let test_wire_roundtrip_simple () =
  let trace, _ = trace_of Corpus.fig2_write [| 42 |] in
  checkb "roundtrip equal" true (Trace.equal trace (roundtrip trace))

let test_wire_roundtrip_crash () =
  let trace, _ = trace_of Corpus.parser Corpus.parser_trigger in
  checkb "crash trace roundtrips" true (Trace.equal trace (roundtrip trace))

let test_wire_roundtrip_deadlock () =
  let rec find seed =
    if seed > 300 then Alcotest.fail "no deadlock found"
    else
      let trace, _ =
        trace_of ~sched:(Sched.Random_sched (Rng.create seed)) Corpus.worker_pool [| 0 |]
      in
      match trace.Trace.outcome with Outcome.Deadlock _ -> trace | _ -> find (seed + 1)
  in
  let trace = find 0 in
  checkb "deadlock trace roundtrips" true (Trace.equal trace (roundtrip trace))

let test_wire_roundtrip_with_faults () =
  let trace, _ = trace_of ~fault_plan:(Env.Random_faults 0.5) Corpus.file_copy [| 6; 1 |] in
  checkb "faulty trace roundtrips" true (Trace.equal trace (roundtrip trace))

let test_wire_rejects_truncation () =
  let trace, _ = trace_of Corpus.fig2_write [| 5 |] in
  let encoded = Wire.encode trace in
  let truncated = String.sub encoded 0 (String.length encoded / 2) in
  match Wire.decode truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a truncated trace"

let test_wire_rejects_garbage () =
  match Wire.decode "\xff\xff\xff\xff\xff\xff\xff\xff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded garbage"

let test_wire_rejects_trailing_bytes () =
  (* One byte appended to an honest frame or record is malformed: both
     codecs must read to the end, not stop at the last field. *)
  let trace, _ = trace_of Corpus.checksum [| 200; 3 |] in
  let basis, _ = trace_of Corpus.checksum [| 200; 3 |] in
  let program_digest = trace.Trace.program_digest in
  let junk = "\000" in
  (match Wire.decode (Wire.encode trace ^ junk) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a trace with a trailing byte");
  let full = Wire.encode_record trace and delta = Wire.encode_record ~basis trace in
  checkb "the delta candidate ships" true (Wire.is_delta_record delta);
  List.iter
    (fun (what, record) ->
      (match Wire.decode_record ~basis ~program_digest record with
      | Ok t -> checkb (what ^ " record roundtrips") true (Trace.equal trace t)
      | Error e -> Alcotest.failf "%s record failed: %a" what Wire.pp_error e);
      match Wire.decode_record ~basis ~program_digest (record ^ junk) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded a %s record with a trailing byte" what)
    [ ("full", full); ("delta", delta) ]

let prop_wire_roundtrip_random =
  QCheck.Test.make ~name:"wire roundtrip (random programs)" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (pseed, iseed) ->
      let bugs = if pseed mod 2 = 0 then [ Generator.Deadlock_pair ] else [ Generator.Rare_assert ] in
      let prog, _ =
        Generator.generate (Rng.create (pseed + 1)) { Generator.default_params with Generator.bugs }
      in
      let irng = Rng.create (iseed + 1) in
      let inputs = Array.init prog.Ir.n_inputs (fun _ -> Rng.int_in irng (-100) 300) in
      let env = Env.make ~fault_plan:(Env.Random_faults 0.1) ~seed:iseed ~inputs () in
      let r =
        Interp.run ~max_steps:3000 ~program:prog ~env
          ~sched:(Sched.Random_sched (Rng.create (pseed + iseed)))
          ()
      in
      let trace = Trace.of_result ~program_digest:(Ir.digest prog) ~pod:2 ~fix_epoch:1 r in
      match Wire.decode (Wire.encode trace) with
      | Ok t -> Trace.equal trace t
      | Error _ -> false)

(* ---- Compress ------------------------------------------------------ *)

let test_bit_runs () =
  let v = Bitvec.of_string "0001111011" in
  Alcotest.(check (list (pair bool int)))
    "runs" [ (false, 3); (true, 4); (false, 1); (true, 2) ] (Compress.bit_runs v)

let test_runs_roundtrip () =
  let v = Bitvec.of_string "110000001111111100101" in
  let back = Compress.runs_to_bits (Compress.bit_runs v) in
  checkb "roundtrip" true (Bitvec.equal v back)

let test_encode_runs_roundtrip () =
  let v = Bitvec.of_string "00000000001111111111" in
  let decoded = Compress.decode_runs (Compress.encode_runs (Compress.bit_runs v)) in
  checkb "encoded roundtrip" true (Bitvec.equal v (Compress.runs_to_bits decoded))

let test_empty_runs () =
  Alcotest.(check (list (pair bool int))) "empty" [] (Compress.bit_runs (Bitvec.create ()));
  let decoded = Compress.decode_runs (Compress.encode_runs []) in
  Alcotest.(check (list (pair bool int))) "empty roundtrip" [] decoded

let test_int_runs () =
  Alcotest.(check (list (pair int int)))
    "runs" [ (1, 3); (2, 1); (1, 2) ] (Compress.int_runs [ 1; 1; 1; 2; 1; 1 ]);
  Alcotest.(check (list int))
    "expand" [ 1; 1; 1; 2; 1; 1 ]
    (Compress.expand_int_runs [ (1, 3); (2, 1); (1, 2) ])

let test_compression_wins_on_uniform () =
  let v = Compress.runs_to_bits [ (false, 4000) ] in
  checkb "RLE wins" true (Compress.compression_ratio v > 10.0)

let prop_bit_runs_roundtrip =
  QCheck.Test.make ~name:"bit_runs roundtrip" ~count:300
    QCheck.(list bool)
    (fun bools ->
      let v = Bitvec.of_bools bools in
      Bitvec.equal v (Compress.runs_to_bits (Compress.bit_runs v)))

let prop_encode_runs_roundtrip =
  QCheck.Test.make ~name:"encode_runs roundtrip" ~count:300
    QCheck.(list bool)
    (fun bools ->
      let v = Bitvec.of_bools bools in
      let decoded = Compress.decode_runs (Compress.encode_runs (Compress.bit_runs v)) in
      Bitvec.equal v (Compress.runs_to_bits decoded))

let prop_int_runs_roundtrip =
  QCheck.Test.make ~name:"int_runs roundtrip" ~count:300
    QCheck.(list small_nat)
    (fun xs -> Compress.expand_int_runs (Compress.int_runs xs) = xs)

(* ---- Sampling ------------------------------------------------------ *)

let full_path_of prog inputs =
  let env = Env.make ~seed:3 ~inputs () in
  let r = Interp.run ~program:prog ~env ~sched:Sched.Round_robin () in
  (r.Interp.full_path, r.Interp.outcome)

let test_sampling_rate_one_records_all () =
  let path, outcome = full_path_of Corpus.parser [| 7; 13; 4 |] in
  let s = Sampling.sample (Rng.create 1) ~rate:1 ~full_path:path ~outcome in
  checki "all observed" (List.length path) s.Sampling.observed;
  checki "total" (List.length path) s.Sampling.total;
  Alcotest.(check (float 1e-9)) "overhead is 1" 1.0 (Sampling.modeled_overhead s);
  Alcotest.(check (float 1e-9)) "family width 0" 0.0 (Sampling.family_width_log2 s)

let test_sampling_counts_sum_to_observed () =
  let path, outcome = full_path_of Corpus.parser [| 7; 13; 4 |] in
  let s = Sampling.sample (Rng.create 2) ~rate:2 ~full_path:path ~outcome in
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 s.Sampling.counts in
  checki "counts sum" s.Sampling.observed sum

let test_sampling_sparser_with_rate () =
  (* A long synthetic path over a small site alphabet. *)
  let path =
    List.init 400 (fun i -> ({ Ir.thread = 0; pc = i mod 5 }, i mod 3 = 0))
  in
  let obs rate =
    (Sampling.sample (Rng.create 5) ~rate ~full_path:path ~outcome:Outcome.Success)
      .Sampling.observed
  in
  checkb "rate 10 observes less than rate 1" true (obs 10 < obs 1);
  checkb "rate 100 observes less than rate 10" true (obs 100 < obs 10)

let test_sampling_rejects_bad_rate () =
  Alcotest.check_raises "rate 0" (Invalid_argument "Sampling.sample: rate must be positive")
    (fun () ->
      ignore (Sampling.sample (Rng.create 1) ~rate:0 ~full_path:[] ~outcome:Outcome.Success))

let prop_sampling_observed_bounded =
  QCheck.Test.make ~name:"observed <= total" ~count:200
    QCheck.(pair small_nat (int_range 1 100))
    (fun (seed, rate) ->
      let path, outcome = full_path_of Corpus.parser [| seed; seed * 3; seed * 7 |] in
      let s = Sampling.sample (Rng.create seed) ~rate ~full_path:path ~outcome in
      s.Sampling.observed <= s.Sampling.total
      && Sampling.family_width_log2 s = float_of_int (s.Sampling.total - s.Sampling.observed))

(* ---- Anonymize ------------------------------------------------------ *)

let test_anonymize_full_identity () =
  let trace, _ = trace_of Corpus.file_copy [| 5; 0 |] in
  checkb "full is identity" true (Trace.equal trace (Anonymize.apply Anonymize.Full trace))

let test_anonymize_coarse_signs () =
  let trace, _ = trace_of ~fault_plan:(Env.Random_faults 0.4) Corpus.file_copy [| 6; 0 |] in
  let coarse = Anonymize.apply Anonymize.Coarse_syscalls trace in
  List.iter
    (fun (_, result) -> checkb "coarse value is ±1" true (result = 1 || result = -1))
    coarse.Trace.syscalls;
  checki "same count" (List.length trace.Trace.syscalls) (List.length coarse.Trace.syscalls)

let test_anonymize_outcome_only_strips_everything () =
  let trace, _ = trace_of Corpus.file_copy [| 5; 0 |] in
  let bare = Anonymize.apply Anonymize.Outcome_only trace in
  checki "no bits" 0 (Bitvec.length bare.Trace.bits);
  checki "no syscalls" 0 (List.length bare.Trace.syscalls);
  checki "no schedule" 0 (List.length bare.Trace.schedule);
  checkb "outcome preserved" true (Outcome.equal trace.Trace.outcome bare.Trace.outcome)

let test_anonymize_monotone_residual () =
  let trace, _ = trace_of ~fault_plan:(Env.Random_faults 0.3) Corpus.file_copy [| 7; 2 |] in
  let bits_at level = Anonymize.residual_bits (Anonymize.apply level trace) in
  let ladder = List.map bits_at Anonymize.all_levels in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  checkb "residual bits non-increasing down the ladder" true (non_increasing ladder)

let prop_anonymize_idempotent =
  QCheck.Test.make ~name:"anonymize idempotent" ~count:60 QCheck.small_nat (fun seed ->
      let prog, _ = Generator.generate (Rng.create (seed + 1)) Generator.default_params in
      let irng = Rng.create seed in
      let inputs = Array.init prog.Ir.n_inputs (fun _ -> Rng.int irng 100) in
      let env = Env.make ~seed ~inputs () in
      let r = Interp.run ~max_steps:2000 ~program:prog ~env ~sched:Sched.Round_robin () in
      let trace = Trace.of_result ~program_digest:(Ir.digest prog) ~pod:0 ~fix_epoch:0 r in
      List.for_all
        (fun level ->
          let once = Anonymize.apply level trace in
          Trace.equal once (Anonymize.apply level once))
        Anonymize.all_levels)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_trace"
    [
      ( "trace",
        [
          Alcotest.test_case "of_result" `Quick test_trace_of_result;
          Alcotest.test_case "fresh ids" `Quick test_trace_ids_fresh;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip simple" `Quick test_wire_roundtrip_simple;
          Alcotest.test_case "roundtrip crash" `Quick test_wire_roundtrip_crash;
          Alcotest.test_case "roundtrip deadlock" `Quick test_wire_roundtrip_deadlock;
          Alcotest.test_case "roundtrip faults" `Quick test_wire_roundtrip_with_faults;
          Alcotest.test_case "rejects truncation" `Quick test_wire_rejects_truncation;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "rejects trailing bytes" `Quick test_wire_rejects_trailing_bytes;
          q prop_wire_roundtrip_random;
        ] );
      ( "compress",
        [
          Alcotest.test_case "bit runs" `Quick test_bit_runs;
          Alcotest.test_case "runs roundtrip" `Quick test_runs_roundtrip;
          Alcotest.test_case "encoded roundtrip" `Quick test_encode_runs_roundtrip;
          Alcotest.test_case "empty" `Quick test_empty_runs;
          Alcotest.test_case "int runs" `Quick test_int_runs;
          Alcotest.test_case "uniform compresses" `Quick test_compression_wins_on_uniform;
          q prop_bit_runs_roundtrip;
          q prop_encode_runs_roundtrip;
          q prop_int_runs_roundtrip;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "rate 1 records all" `Quick test_sampling_rate_one_records_all;
          Alcotest.test_case "counts sum" `Quick test_sampling_counts_sum_to_observed;
          Alcotest.test_case "sparser with rate" `Quick test_sampling_sparser_with_rate;
          Alcotest.test_case "rejects bad rate" `Quick test_sampling_rejects_bad_rate;
          q prop_sampling_observed_bounded;
        ] );
      ( "anonymize",
        [
          Alcotest.test_case "full identity" `Quick test_anonymize_full_identity;
          Alcotest.test_case "coarse signs" `Quick test_anonymize_coarse_signs;
          Alcotest.test_case "outcome only" `Quick test_anonymize_outcome_only_strips_everything;
          Alcotest.test_case "monotone residual" `Quick test_anonymize_monotone_residual;
          q prop_anonymize_idempotent;
        ] );
    ]
