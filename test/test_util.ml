(* Unit and property tests for the softborg_util substrate. *)

module Bitvec = Softborg_util.Bitvec
module Rng = Softborg_util.Rng
module Stats = Softborg_util.Stats
module Codec = Softborg_util.Codec
module Tabular = Softborg_util.Tabular
module Ids = Softborg_util.Ids
module Lru = Softborg_util.Lru

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---- Bitvec ---------------------------------------------------- *)

let test_bitvec_empty () =
  let v = Bitvec.create () in
  checki "empty length" 0 (Bitvec.length v);
  checki "empty popcount" 0 (Bitvec.pop_count v);
  check Alcotest.string "empty to_string" "" (Bitvec.to_string v)

let test_bitvec_push_get () =
  let v = Bitvec.create () in
  Bitvec.push v true;
  Bitvec.push v false;
  Bitvec.push v true;
  checki "length" 3 (Bitvec.length v);
  checkb "bit 0" true (Bitvec.get v 0);
  checkb "bit 1" false (Bitvec.get v 1);
  checkb "bit 2" true (Bitvec.get v 2);
  checki "popcount" 2 (Bitvec.pop_count v)

let test_bitvec_growth () =
  let v = Bitvec.create () in
  for i = 0 to 999 do
    Bitvec.push v (i mod 3 = 0)
  done;
  checki "length after 1000 pushes" 1000 (Bitvec.length v);
  checki "popcount" 334 (Bitvec.pop_count v);
  checkb "bit 999" true (Bitvec.get v 999)

let test_bitvec_set () =
  let v = Bitvec.of_bools [ false; false; false ] in
  Bitvec.set v 1 true;
  checkb "set bit" true (Bitvec.get v 1);
  checkb "neighbors untouched" false (Bitvec.get v 0);
  Bitvec.set v 1 false;
  checki "popcount after unset" 0 (Bitvec.pop_count v)

let test_bitvec_out_of_range () =
  let v = Bitvec.of_bools [ true ] in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec.get: index -1 out of [0,1)") (fun () ->
      ignore (Bitvec.get v (-1)));
  Alcotest.check_raises "get 1" (Invalid_argument "Bitvec.get: index 1 out of [0,1)") (fun () ->
      ignore (Bitvec.get v 1))

let test_bitvec_string_roundtrip () =
  let s = "011010011101" in
  check Alcotest.string "of_string/to_string" s (Bitvec.to_string (Bitvec.of_string s))

let test_bitvec_prefix () =
  let a = Bitvec.of_string "0110" in
  let b = Bitvec.of_string "0111" in
  checki "common prefix" 3 (Bitvec.common_prefix a b);
  checkb "is_prefix" true (Bitvec.is_prefix (Bitvec.of_string "011") a);
  checkb "not prefix" false (Bitvec.is_prefix (Bitvec.of_string "010") a);
  checkb "empty is prefix" true (Bitvec.is_prefix (Bitvec.create ()) a)

let test_bitvec_truncate () =
  let v = Bitvec.of_string "110110" in
  Bitvec.truncate v 3;
  check Alcotest.string "after truncate" "110" (Bitvec.to_string v);
  Bitvec.push v true;
  check Alcotest.string "push after truncate" "1101" (Bitvec.to_string v)

let test_bitvec_append () =
  let a = Bitvec.of_string "10" in
  let b = Bitvec.of_string "011" in
  Bitvec.append a b;
  check Alcotest.string "append" "10011" (Bitvec.to_string a);
  check Alcotest.string "src untouched" "011" (Bitvec.to_string b)

let test_bitvec_compare () =
  let v s = Bitvec.of_string s in
  checki "equal" 0 (Bitvec.compare (v "01") (v "01"));
  checkb "lt" true (Bitvec.compare (v "0") (v "01") < 0);
  checkb "gt" true (Bitvec.compare (v "1") (v "01") > 0)

let prop_bitvec_bytes_roundtrip =
  QCheck.Test.make ~name:"bitvec bytes roundtrip" ~count:300
    QCheck.(list bool)
    (fun bools ->
      let v = Bitvec.of_bools bools in
      let back = Bitvec.of_bytes (Bitvec.to_bytes v) (Bitvec.length v) in
      Bitvec.equal v back)

let prop_bitvec_hash_stable =
  QCheck.Test.make ~name:"equal bitvecs hash equally" ~count:200
    QCheck.(list bool)
    (fun bools ->
      let a = Bitvec.of_bools bools in
      let b = Bitvec.of_bools bools in
      Bitvec.hash a = Bitvec.hash b)

let prop_bitvec_fold_count =
  QCheck.Test.make ~name:"fold counts set bits like pop_count" ~count:200
    QCheck.(list bool)
    (fun bools ->
      let v = Bitvec.of_bools bools in
      Bitvec.fold (fun acc b -> if b then acc + 1 else acc) 0 v = Bitvec.pop_count v)

(* ---- Rng -------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 in
  let b = Rng.create 42 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.int parent 1_000_000) in
  let ys = List.init 50 (fun _ -> Rng.int child 1_000_000) in
  checkb "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    checkb "in range" true (x >= 0 && x < 7)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng (-3) 3 in
    checkb "in range" true (x >= -3 && x <= 3)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    checkb "p=0 never" false (Rng.bernoulli rng 0.0);
    checkb "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_zipf_skew () =
  let rng = Rng.create 6 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Rng.zipf rng ~n:10 ~s:1.2 in
    counts.(i) <- counts.(i) + 1
  done;
  checkb "rank 0 beats rank 9" true (counts.(0) > counts.(9));
  checkb "rank 0 dominates" true (counts.(0) > 2000)

let test_rng_geometric_mean () =
  let rng = Rng.create 8 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng 0.1
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* Expected mean of failures before success = (1-p)/p = 9. *)
  checkb "geometric mean near 9" true (mean > 8.0 && mean < 10.0)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  check (Alcotest.array Alcotest.int) "is permutation" (Array.init 20 (fun i -> i)) sorted

let test_rng_weighted_choice () =
  let rng = Rng.create 10 in
  let heavy = ref 0 in
  for _ = 1 to 1000 do
    if Rng.weighted_choice rng [| ("heavy", 9.0); ("light", 1.0) |] = "heavy" then incr heavy
  done;
  checkb "weight respected" true (!heavy > 800)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 11 in
  let sample = Rng.sample_without_replacement rng 5 (Array.init 10 (fun i -> i)) in
  checki "sample size" 5 (Array.length sample);
  let distinct = Array.to_list sample |> List.sort_uniq Int.compare |> List.length in
  checki "all distinct" 5 distinct

(* ---- Stats ------------------------------------------------------ *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  checki "count" 4 s.Stats.count;
  checkf "mean" 2.5 s.Stats.mean;
  checkf "min" 1.0 s.Stats.min;
  checkf "max" 4.0 s.Stats.max;
  checkf "variance" 1.25 s.Stats.variance

let test_stats_empty_summary () =
  let s = Stats.summarize [] in
  checki "count" 0 s.Stats.count;
  checkf "mean" 0.0 s.Stats.mean

let test_stats_online_matches_batch () =
  let xs = [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ] in
  let online = Stats.Online.create () in
  List.iter (Stats.Online.add online) xs;
  let batch = Stats.summarize xs in
  checkf "mean" batch.Stats.mean (Stats.Online.mean online);
  Alcotest.check (Alcotest.float 1e-9) "variance" batch.Stats.variance
    (Stats.Online.variance online)

let test_stats_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  checkf "p0" 10.0 (Stats.percentile xs 0.0);
  checkf "p100" 40.0 (Stats.percentile xs 100.0);
  checkf "median" 25.0 (Stats.median xs)

let test_stats_geometric_mean () =
  checkf "gm of 1,100" 10.0 (Stats.geometric_mean [ 1.0; 100.0 ])

let test_stats_entropy () =
  checkf "uniform 4 outcomes = 2 bits" 2.0 (Stats.entropy_bits [ 1.0; 1.0; 1.0; 1.0 ]);
  checkf "point mass = 0 bits" 0.0 (Stats.entropy_bits [ 5.0; 0.0 ])

let test_stats_pearson () =
  let xs = [ 1.0; 2.0; 3.0 ] in
  checkf "perfect correlation" 1.0 (Stats.pearson xs xs);
  checkf "perfect anticorrelation" (-1.0) (Stats.pearson xs (List.rev xs));
  checkf "constant gives 0" 0.0 (Stats.pearson xs [ 2.0; 2.0; 2.0 ])

let test_stats_histogram () =
  let h = Stats.histogram ~buckets:2 [ 0.0; 1.0; 2.0; 3.0 ] in
  checki "bucket count" 2 (List.length h);
  let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 h in
  checki "all points bucketed" 4 total

(* ---- Codec ------------------------------------------------------ *)

let roundtrip_int n =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w n;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Codec.Reader.varint r

let test_codec_varint () =
  List.iter
    (fun n -> checki (Printf.sprintf "varint %d" n) n (roundtrip_int n))
    [ 0; 1; 127; 128; 300; 16_383; 16_384; 1_000_000; max_int ]

let test_codec_zigzag () =
  List.iter
    (fun n ->
      let w = Codec.Writer.create () in
      Codec.Writer.zigzag w n;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      checki (Printf.sprintf "zigzag %d" n) n (Codec.Reader.zigzag r))
    [ 0; -1; 1; -64; 64; -1_000_000; 1_000_000; min_int + 1; max_int ]

let test_codec_truncated () =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w 300;
  let partial = String.sub (Codec.Writer.contents w) 0 1 in
  let r = Codec.Reader.of_string partial in
  Alcotest.check_raises "truncated varint" Codec.Truncated (fun () -> ignore (Codec.Reader.varint r))

(* Nine continuation-coded bytes reach bit 62, the sign bit: as a count
   that is garbage, and the reader must say so rather than pass a
   negative length on to [List.init] or [String.sub]. *)
let test_codec_negative_count () =
  let overflow = String.make 8 '\128' ^ "\127" in
  List.iter
    (fun (name, read) ->
      match read (Codec.Reader.of_string overflow) with
      | () -> Alcotest.failf "%s accepted a negative count" name
      | exception Codec.Malformed _ -> ())
    [
      ("varint", fun r -> ignore (Codec.Reader.varint r));
      ("bytes", fun r -> ignore (Codec.Reader.bytes r));
      ("list", fun r -> ignore (Codec.Reader.list r Codec.Reader.byte));
    ]

let test_codec_mixed_payload () =
  let w = Codec.Writer.create () in
  Codec.Writer.bool w true;
  Codec.Writer.float w 3.25;
  Codec.Writer.bytes w "hello";
  Codec.Writer.list w (Codec.Writer.varint w) [ 1; 2; 3 ];
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  checkb "bool" true (Codec.Reader.bool r);
  checkf "float" 3.25 (Codec.Reader.float r);
  check Alcotest.string "bytes" "hello" (Codec.Reader.bytes r);
  check (Alcotest.list Alcotest.int) "list" [ 1; 2; 3 ] (Codec.Reader.list r Codec.Reader.varint);
  checki "fully consumed" 0 (Codec.Reader.remaining r)

let prop_codec_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(map abs int)
    (fun n -> roundtrip_int n = n)

let prop_codec_zigzag_roundtrip =
  QCheck.Test.make ~name:"zigzag roundtrip" ~count:500 QCheck.int (fun n ->
      QCheck.assume (n > min_int);
      let w = Codec.Writer.create () in
      Codec.Writer.zigzag w n;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      Codec.Reader.zigzag r = n)

let prop_codec_string_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:300 QCheck.string (fun s ->
      let w = Codec.Writer.create () in
      Codec.Writer.bytes w s;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      String.equal (Codec.Reader.bytes r) s)

(* ---- Tabular ----------------------------------------------------- *)

let test_tabular_render () =
  let cols = [ Tabular.column "name"; Tabular.column ~align:Tabular.Right "n" ] in
  let out = Tabular.render cols [ [ "alpha"; "1" ]; [ "b"; "22" ] ] in
  let lines = String.split_on_char '\n' out in
  checki "line count" 4 (List.length lines);
  List.iter
    (fun line -> checki "equal width" (String.length (List.hd lines)) (String.length line))
    lines

let test_tabular_pads_short_rows () =
  let cols = [ Tabular.column "a"; Tabular.column "b" ] in
  let out = Tabular.render cols [ [ "x" ] ] in
  checkb "renders" true (String.length out > 0)

let test_tabular_rejects_wide_rows () =
  let cols = [ Tabular.column "a" ] in
  Alcotest.check_raises "wide row" (Invalid_argument "Tabular.render: row wider than header")
    (fun () -> ignore (Tabular.render cols [ [ "x"; "y" ] ]))

let test_tabular_formats () =
  check Alcotest.string "float" "3.14" (Tabular.fmt_float ~decimals:2 3.14159);
  check Alcotest.string "nan" "-" (Tabular.fmt_float Float.nan);
  check Alcotest.string "pct" "12.3%" (Tabular.fmt_pct 0.123);
  check Alcotest.string "ratio" "9.8x" (Tabular.fmt_ratio 9.81)

(* ---- Ids --------------------------------------------------------- *)

let test_ids_fresh_distinct () =
  let a = Ids.Trace_id.fresh () in
  let b = Ids.Trace_id.fresh () in
  checkb "fresh ids differ" false (Ids.Trace_id.equal a b)

let test_ids_roundtrip () =
  let id = Ids.Trace_id.of_int 42 in
  checki "roundtrip" 42 (Ids.Trace_id.to_int id);
  checki "compare equal" 0 (Ids.Trace_id.compare id (Ids.Trace_id.of_int 42))

(* ---- Lru --------------------------------------------------------- *)

let test_lru_evicts_least_recent () =
  let c = Lru.create 2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check Alcotest.(option int) "a present" (Some 1) (Lru.find c "a");
  (* "a" was just promoted, so inserting "c" evicts "b". *)
  Lru.add c "c" 3;
  checki "still at capacity" 2 (Lru.length c);
  check Alcotest.(option int) "b evicted" None (Lru.find c "b");
  check Alcotest.(option int) "a kept" (Some 1) (Lru.find c "a");
  check Alcotest.(option int) "c kept" (Some 3) (Lru.find c "c")

let test_lru_overwrite_promotes () =
  let c = Lru.create 2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "a" 10;
  (* "a" is most recent; "b" goes on the next insertion. *)
  Lru.add c "c" 3;
  check Alcotest.(option int) "overwritten value" (Some 10) (Lru.find c "a");
  check Alcotest.(option int) "b evicted" None (Lru.find c "b")

let test_lru_remove_and_clear () =
  let c = Lru.create 4 in
  List.iter (fun (k, v) -> Lru.add c k v) [ ("a", 1); ("b", 2); ("c", 3) ];
  Lru.remove c "b";
  checki "length after remove" 2 (Lru.length c);
  checkb "mem after remove" false (Lru.mem c "b");
  Lru.clear c;
  checki "empty after clear" 0 (Lru.length c);
  check Alcotest.(option int) "find after clear" None (Lru.find c "a");
  (* The recency list must be reusable after clear. *)
  Lru.add c "x" 9;
  check Alcotest.(option int) "usable after clear" (Some 9) (Lru.find c "x")

let test_lru_counters_and_capacity_one () =
  let c = Lru.create 1 in
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be at least 1") (fun () ->
      ignore (Lru.create 0));
  Lru.add c 1 "one";
  ignore (Lru.find c 1);
  ignore (Lru.find c 2);
  Lru.add c 2 "two";
  checki "capacity one holds one" 1 (Lru.length c);
  checkb "old key gone" false (Lru.mem c 1);
  checki "hits" 1 (Lru.hits c);
  checki "misses" 1 (Lru.misses c)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"lru never exceeds capacity and keeps recent keys" ~count:300
    QCheck.(pair (int_range 1 8) (small_list (pair (int_range 0 15) int)))
    (fun (cap, ops) ->
      let c = Lru.create cap in
      List.iter (fun (k, v) -> Lru.add c k v) ops;
      Lru.length c <= cap
      &&
      (* The most recently added key is always retrievable. *)
      match List.rev ops with
      | [] -> true
      | (k, _) :: _ -> Lru.mem c k)

let prop_varint_len_matches_writer =
  QCheck.Test.make ~name:"varint_len matches Writer.varint output size" ~count:500
    QCheck.(map abs int)
    (fun n ->
      let w = Codec.Writer.create () in
      Codec.Writer.varint w n;
      Codec.varint_len n = String.length (Codec.Writer.contents w))

let test_varint_len_cases () =
  (* Boundary values around each 7-bit payload step. *)
  List.iter
    (fun (n, expect) -> checki (Printf.sprintf "varint_len %d" n) expect (Codec.varint_len n))
    [ (0, 1); (127, 1); (128, 2); (16_383, 2); (16_384, 3); (max_int, 9) ];
  Alcotest.check_raises "negative rejected" (Invalid_argument "Codec.varint_len: negative")
    (fun () -> ignore (Codec.varint_len (-1)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_util"
    [
      ( "bitvec",
        [
          Alcotest.test_case "empty" `Quick test_bitvec_empty;
          Alcotest.test_case "push/get" `Quick test_bitvec_push_get;
          Alcotest.test_case "growth" `Quick test_bitvec_growth;
          Alcotest.test_case "set" `Quick test_bitvec_set;
          Alcotest.test_case "out of range" `Quick test_bitvec_out_of_range;
          Alcotest.test_case "string roundtrip" `Quick test_bitvec_string_roundtrip;
          Alcotest.test_case "prefix" `Quick test_bitvec_prefix;
          Alcotest.test_case "truncate" `Quick test_bitvec_truncate;
          Alcotest.test_case "append" `Quick test_bitvec_append;
          Alcotest.test_case "compare" `Quick test_bitvec_compare;
          q prop_bitvec_bytes_roundtrip;
          q prop_bitvec_hash_stable;
          q prop_bitvec_fold_count;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "weighted choice" `Quick test_rng_weighted_choice;
          Alcotest.test_case "sample w/o replacement" `Quick test_rng_sample_without_replacement;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty summary" `Quick test_stats_empty_summary;
          Alcotest.test_case "online matches batch" `Quick test_stats_online_matches_batch;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
          Alcotest.test_case "entropy" `Quick test_stats_entropy;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint cases" `Quick test_codec_varint;
          Alcotest.test_case "varint_len cases" `Quick test_varint_len_cases;
          q prop_varint_len_matches_writer;
          Alcotest.test_case "zigzag cases" `Quick test_codec_zigzag;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "negative count" `Quick test_codec_negative_count;
          Alcotest.test_case "mixed payload" `Quick test_codec_mixed_payload;
          q prop_codec_varint_roundtrip;
          q prop_codec_zigzag_roundtrip;
          q prop_codec_string_roundtrip;
        ] );
      ( "tabular",
        [
          Alcotest.test_case "render" `Quick test_tabular_render;
          Alcotest.test_case "pads short rows" `Quick test_tabular_pads_short_rows;
          Alcotest.test_case "rejects wide rows" `Quick test_tabular_rejects_wide_rows;
          Alcotest.test_case "formats" `Quick test_tabular_formats;
        ] );
      ( "ids",
        [
          Alcotest.test_case "fresh distinct" `Quick test_ids_fresh_distinct;
          Alcotest.test_case "roundtrip" `Quick test_ids_roundtrip;
        ] );
      ( "lru",
        [
          Alcotest.test_case "evicts least recent" `Quick test_lru_evicts_least_recent;
          Alcotest.test_case "overwrite promotes" `Quick test_lru_overwrite_promotes;
          Alcotest.test_case "remove and clear" `Quick test_lru_remove_and_clear;
          Alcotest.test_case "counters and capacity one" `Quick
            test_lru_counters_and_capacity_one;
          q prop_lru_never_exceeds_capacity;
        ] );
    ]
