(* Tests for the collective execution tree: LCA-paste merging,
   frontier extraction, completeness, and merge invariants. *)

module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Generator = Softborg_prog.Generator
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Outcome = Softborg_exec.Outcome
module Exec_tree = Softborg_tree.Exec_tree
module Rng = Softborg_util.Rng
module Codec = Softborg_util.Codec

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let path_of prog inputs =
  let env = Env.make ~seed:11 ~inputs () in
  let r = Interp.run ~program:prog ~env ~sched:Sched.Round_robin () in
  (r.Interp.full_path, r.Interp.outcome)

let merge tree prog inputs =
  let path, outcome = path_of prog inputs in
  Exec_tree.add_path tree path outcome

(* ---- Basic merging -------------------------------------------------- *)

let test_empty_tree () =
  let t = Exec_tree.create () in
  checki "one node (root)" 1 (Exec_tree.n_nodes t);
  checki "no executions" 0 (Exec_tree.n_executions t);
  checki "no paths" 0 (Exec_tree.n_distinct_paths t);
  checkb "vacuously complete" true (Exec_tree.is_complete t);
  checkf "completeness 1" 1.0 (Exec_tree.completeness t)

let test_single_path () =
  let t = Exec_tree.create () in
  let stats = merge t Corpus.fig2_write [| 5 |] in
  checki "no shared prefix in empty tree" 0 stats.Exec_tree.shared_depth;
  checki "two new nodes" 2 stats.Exec_tree.new_nodes;
  checkb "new path" true stats.Exec_tree.new_path;
  checki "executions" 1 (Exec_tree.n_executions t);
  checki "distinct paths" 1 (Exec_tree.n_distinct_paths t)

let test_duplicate_path_dedups () =
  let t = Exec_tree.create () in
  ignore (merge t Corpus.fig2_write [| 5 |]);
  let stats = merge t Corpus.fig2_write [| 6 |] in
  (* p=5 and p=6 follow the same decisions: <100 and >0. *)
  checki "fully shared" 2 stats.Exec_tree.shared_depth;
  checki "no new nodes" 0 stats.Exec_tree.new_nodes;
  checkb "not a new path" false stats.Exec_tree.new_path;
  checki "executions counted" 2 (Exec_tree.n_executions t);
  checki "still one distinct path" 1 (Exec_tree.n_distinct_paths t)

let test_lca_paste () =
  let t = Exec_tree.create () in
  ignore (merge t Corpus.fig2_write [| 5 |]);
  (* p=-1 shares the first decision (p<100 true) then diverges. *)
  let stats = merge t Corpus.fig2_write [| -1 |] in
  checki "LCA at depth 1" 1 stats.Exec_tree.shared_depth;
  checki "one new node" 1 stats.Exec_tree.new_nodes;
  checkb "new path" true stats.Exec_tree.new_path

let test_fig2_three_leaves () =
  let t = Exec_tree.create () in
  List.iter (fun p -> ignore (merge t Corpus.fig2_write [| p |])) [ 5; -1; 200; 6; -2; 300 ];
  checki "three distinct paths" 3 (Exec_tree.n_distinct_paths t);
  checki "three leaves worth of outcome" 6
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Exec_tree.outcome_buckets t))

let test_outcome_buckets () =
  let t = Exec_tree.create () in
  ignore (merge t Corpus.parser [| 7; 13; 5 |]);
  ignore (merge t Corpus.parser [| 1; 2; 3 |]);
  ignore (merge t Corpus.parser [| 2; 2; 3 |]);
  let buckets = Exec_tree.outcome_buckets t in
  checkb "has ok bucket" true (List.mem_assoc "ok" buckets);
  checkb "has crash bucket" true
    (List.exists (fun (k, _) -> String.length k > 5 && String.sub k 0 5 = "crash") buckets)

(* ---- Frontier and completeness --------------------------------------- *)

let test_frontier_after_one_path () =
  let t = Exec_tree.create () in
  ignore (merge t Corpus.fig2_write [| 5 |]);
  (* Both decisions went one way; each opens a gap. *)
  let gaps = Exec_tree.frontier t in
  checki "two gaps" 2 (List.length gaps);
  checkb "sorted by hits descending" true
    (match gaps with a :: b :: _ -> a.Exec_tree.hits >= b.Exec_tree.hits | _ -> false)

let test_frontier_shrinks_with_coverage () =
  let t = Exec_tree.create () in
  ignore (merge t Corpus.fig2_write [| 5 |]);
  let before = List.length (Exec_tree.frontier t) in
  ignore (merge t Corpus.fig2_write [| -1 |]);
  let after = List.length (Exec_tree.frontier t) in
  checkb "frontier shrank at covered node" true (after < before + 1);
  (* Covering the p>0=false direction closes that gap. *)
  ignore (merge t Corpus.fig2_write [| 200 |]);
  ignore (merge t Corpus.fig2_write [| 101 |])

let test_mark_infeasible_closes_gap () =
  let t = Exec_tree.create () in
  List.iter (fun p -> ignore (merge t Corpus.fig2_write [| p |])) [ 5; -1; 200 ];
  let gaps = Exec_tree.frontier t in
  (* Remaining gap: the p>3=false direction under p<100=false — which
     is genuinely infeasible (every p>=100 is >3). *)
  checki "one gap left" 1 (List.length gaps);
  let gap = List.hd gaps in
  checkb "marking works" true
    (Exec_tree.mark_infeasible t ~prefix:gap.Exec_tree.prefix ~site:gap.Exec_tree.site
       ~direction:gap.Exec_tree.missing);
  checki "frontier empty" 0 (List.length (Exec_tree.frontier t));
  checkb "tree complete" true (Exec_tree.is_complete t);
  checkf "completeness 1" 1.0 (Exec_tree.completeness t)

let test_mark_infeasible_bad_prefix () =
  let t = Exec_tree.create () in
  ignore (merge t Corpus.fig2_write [| 5 |]);
  let fake_site = { Ir.thread = 0; pc = 0 } in
  checkb "bad prefix rejected" false
    (Exec_tree.mark_infeasible t
       ~prefix:[ (fake_site, true); (fake_site, true); (fake_site, false) ]
       ~site:fake_site ~direction:true)

let test_completeness_monotone () =
  let t = Exec_tree.create () in
  let c0 = Exec_tree.completeness t in
  ignore (merge t Corpus.fig2_write [| 5 |]);
  let c1 = Exec_tree.completeness t in
  ignore (merge t Corpus.fig2_write [| -1 |]);
  let c2 = Exec_tree.completeness t in
  checkf "empty complete" 1.0 c0;
  checkb "partial coverage incomplete" true (c1 < 1.0);
  checkb "more coverage helps" true (c2 >= c1)

let test_path_outcomes_listing () =
  let t = Exec_tree.create () in
  ignore (merge t Corpus.parser [| 7; 13; 5 |]);
  ignore (merge t Corpus.parser [| 1; 2; 3 |]);
  let listed = Exec_tree.path_outcomes t in
  checki "two terminal paths" 2 (List.length listed);
  List.iter (fun (_, _, count) -> checki "count 1" 1 count) listed

let test_depth () =
  let t = Exec_tree.create () in
  ignore (merge t Corpus.parser [| 7; 13; 5 |]);
  let path, _ = path_of Corpus.parser [| 7; 13; 5 |] in
  checki "depth equals longest path" (List.length path) (Exec_tree.depth t)

(* ---- Multi-threaded paths -------------------------------------------- *)

let test_multithreaded_paths_merge () =
  let t = Exec_tree.create () in
  for seed = 0 to 30 do
    let env = Env.make ~seed:11 ~inputs:[| 0 |] () in
    let r =
      Interp.run ~program:Corpus.worker_pool ~env
        ~sched:(Sched.Random_sched (Rng.create seed))
        ()
    in
    ignore (Exec_tree.add_path t r.Interp.full_path r.Interp.outcome)
  done;
  checki "31 executions" 31 (Exec_tree.n_executions t);
  checkb "tree formed" true (Exec_tree.n_nodes t > 1)

(* ---- Properties ------------------------------------------------------- *)

let random_paths seed n =
  (* Build decision paths over a tiny site alphabet so prefixes collide. *)
  let rng = Rng.create seed in
  List.init n (fun _ ->
      let len = Rng.int_in rng 0 6 in
      List.init len (fun _ ->
          let site = { Ir.thread = 0; pc = Rng.int rng 3 } in
          (site, Rng.bool rng)))

let prop_merge_counts_consistent =
  QCheck.Test.make ~name:"executions and node counts consistent" ~count:200 QCheck.small_nat
    (fun seed ->
      let t = Exec_tree.create () in
      let paths = random_paths seed 20 in
      List.iter (fun p -> ignore (Exec_tree.add_path t p Outcome.Success)) paths;
      Exec_tree.n_executions t = 20
      && Exec_tree.n_distinct_paths t <= 20
      && Exec_tree.n_distinct_paths t >= 1
      && Exec_tree.n_edges t = Exec_tree.n_nodes t - 1)

let prop_remerge_idempotent_nodes =
  QCheck.Test.make ~name:"re-merging adds no nodes" ~count:200 QCheck.small_nat (fun seed ->
      let t = Exec_tree.create () in
      let paths = random_paths seed 10 in
      List.iter (fun p -> ignore (Exec_tree.add_path t p Outcome.Success)) paths;
      let nodes_before = Exec_tree.n_nodes t in
      List.iter
        (fun p ->
          let stats = Exec_tree.add_path t p Outcome.Success in
          assert (stats.Exec_tree.new_nodes = 0))
        paths;
      Exec_tree.n_nodes t = nodes_before)

let prop_distinct_paths_bounded_by_terminals =
  QCheck.Test.make ~name:"distinct paths equal terminal listing" ~count:200 QCheck.small_nat
    (fun seed ->
      let t = Exec_tree.create () in
      List.iter
        (fun p -> ignore (Exec_tree.add_path t p Outcome.Success))
        (random_paths seed 15);
      List.length (Exec_tree.path_outcomes t) = Exec_tree.n_distinct_paths t)

let prop_frontier_gaps_are_real =
  QCheck.Test.make ~name:"every frontier gap has an unexplored direction" ~count:100
    QCheck.small_nat (fun seed ->
      let t = Exec_tree.create () in
      List.iter
        (fun p -> ignore (Exec_tree.add_path t p Outcome.Success))
        (random_paths seed 12);
      List.for_all
        (fun gap ->
          (* Covering the gap then re-asking must remove it. *)
          let covered = gap.Exec_tree.prefix @ [ (gap.Exec_tree.site, gap.Exec_tree.missing) ] in
          ignore (Exec_tree.add_path t covered Outcome.Success);
          not
            (List.exists
               (fun g ->
                 g.Exec_tree.prefix = gap.Exec_tree.prefix
                 && Ir.site_equal g.Exec_tree.site gap.Exec_tree.site
                 && g.Exec_tree.missing = gap.Exec_tree.missing)
               (Exec_tree.frontier t)))
        (Exec_tree.frontier t))

(* ---- Incremental aggregates vs recompute oracles ----------------------- *)

(* Take the first [k] elements of a list (all of them if shorter). *)
let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let frontier_top_matches_oracle t =
  let oracle = Exec_tree.frontier_recompute t in
  List.for_all
    (fun k -> Exec_tree.frontier_top t k = take k oracle)
    [ 0; 1; 2; 3; 8; List.length oracle; List.length oracle + 3 ]
  && List.of_seq (Exec_tree.frontier_seq t) = oracle

let aggregates_match_oracles t =
  Exec_tree.frontier t = Exec_tree.frontier_recompute t
  && frontier_top_matches_oracle t
  && Exec_tree.frontier_size t = List.length (Exec_tree.frontier t)
  && Exec_tree.n_edges t = Exec_tree.n_edges_recompute t
  && Exec_tree.depth t = Exec_tree.depth_recompute t
  && Exec_tree.is_complete t = Exec_tree.is_complete_recompute t
  && Float.abs (Exec_tree.completeness t -. Exec_tree.completeness_recompute t) < 1e-12
  && Exec_tree.outcome_buckets t = Exec_tree.outcome_buckets_recompute t

(* Randomized interleavings of add_path, mark_infeasible and
   checkpoint round-trips, checking every incremental aggregate — the
   ordered gap index included, via frontier/frontier_top/frontier_seq
   — against its full-walk oracle.  Marks target real frontier gaps
   most of the time but sometimes a bogus (unobserved or
   already-explored) site or direction, to exercise the no-op
   accounting paths; the round-trip step continues on the restored
   tree, so post-restore index rebuilds feed later ops.

   Dense histories check after every single operation.  Sparse ones
   check only at random points and at the end, and pick marked gaps
   from [frontier_recompute], which never touches the index, so a node
   can be hit many times between two index reads — the production
   pattern, where a tick reads the frontier after about 1,400 merged
   paths.  A re-key that assumed one hit per read would pass dense
   histories and fail sparse ones. *)
let prop_incremental_matches_oracles =
  QCheck.Test.make ~name:"incremental aggregates equal recompute oracles" ~count:1000
    QCheck.(triple small_nat (int_range 1 30) bool)
    (fun (seed, n_ops, sparse) ->
      let rng = Rng.create ((seed * 131) + n_ops) in
      let t = ref (Exec_tree.create ()) in
      let ok = ref true in
      for _ = 1 to n_ops do
        (if Rng.bernoulli rng 0.7 then begin
           let len = Rng.int_in rng 0 6 in
           let path =
             List.init len (fun _ -> ({ Ir.thread = 0; pc = Rng.int rng 3 }, Rng.bool rng))
           in
           let outcome = if Rng.bernoulli rng 0.8 then Outcome.Success else Outcome.Hang in
           ignore (Exec_tree.add_path !t path outcome)
         end
         else if Rng.bernoulli rng 0.8 then begin
           let frontier =
             if sparse then Exec_tree.frontier_recompute !t else Exec_tree.frontier !t
           in
           match frontier with
           | [] -> ()
           | gaps ->
             let gap = List.nth gaps (Rng.int rng (List.length gaps)) in
             let site =
               if Rng.bernoulli rng 0.8 then gap.Exec_tree.site
               else { Ir.thread = 0; pc = Rng.int rng 5 }
             in
             let direction =
               if Rng.bernoulli rng 0.8 then gap.Exec_tree.missing else Rng.bool rng
             in
             ignore (Exec_tree.mark_infeasible !t ~prefix:gap.Exec_tree.prefix ~site ~direction)
         end
         else begin
           (* Checkpoint round-trip: the restored tree rebuilds its
              aggregates (gap index included) from structure alone. *)
           let w = Codec.Writer.create () in
           Exec_tree.write w !t;
           t := Exec_tree.read (Codec.Reader.of_string (Codec.Writer.contents w))
         end);
        if (not sparse) || Rng.bernoulli rng 0.1 then ok := !ok && aggregates_match_oracles !t
      done;
      !ok && aggregates_match_oracles !t)

let test_version_change_detection () =
  let t = Exec_tree.create () in
  let v0 = Exec_tree.version t in
  ignore (merge t Corpus.fig2_write [| 5 |]);
  let v1 = Exec_tree.version t in
  checkb "new path bumps version" true (v1 > v0);
  ignore (merge t Corpus.fig2_write [| 6 |]);
  (* p=6 follows the same decisions as p=5: a duplicate path. *)
  checki "duplicate path leaves version" v1 (Exec_tree.version t);
  let gap = List.hd (Exec_tree.frontier t) in
  checkb "mark accepted" true
    (Exec_tree.mark_infeasible t ~prefix:gap.Exec_tree.prefix ~site:gap.Exec_tree.site
       ~direction:gap.Exec_tree.missing);
  checkb "closing a gap bumps version" true (Exec_tree.version t > v1);
  let v2 = Exec_tree.version t in
  checkb "re-marking accepted" true
    (Exec_tree.mark_infeasible t ~prefix:gap.Exec_tree.prefix ~site:gap.Exec_tree.site
       ~direction:gap.Exec_tree.missing);
  checki "re-marking leaves version" v2 (Exec_tree.version t)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_tree"
    [
      ( "merging",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "single path" `Quick test_single_path;
          Alcotest.test_case "duplicate dedups" `Quick test_duplicate_path_dedups;
          Alcotest.test_case "LCA paste" `Quick test_lca_paste;
          Alcotest.test_case "fig2 three leaves" `Quick test_fig2_three_leaves;
          Alcotest.test_case "outcome buckets" `Quick test_outcome_buckets;
          Alcotest.test_case "multithreaded merge" `Quick test_multithreaded_paths_merge;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "gaps after one path" `Quick test_frontier_after_one_path;
          Alcotest.test_case "shrinks with coverage" `Quick test_frontier_shrinks_with_coverage;
          Alcotest.test_case "mark infeasible" `Quick test_mark_infeasible_closes_gap;
          Alcotest.test_case "bad prefix" `Quick test_mark_infeasible_bad_prefix;
          Alcotest.test_case "completeness monotone" `Quick test_completeness_monotone;
          Alcotest.test_case "path outcomes" `Quick test_path_outcomes_listing;
          Alcotest.test_case "depth" `Quick test_depth;
        ] );
      ( "properties",
        [
          q prop_merge_counts_consistent;
          q prop_remerge_idempotent_nodes;
          q prop_distinct_paths_bounded_by_terminals;
          q prop_frontier_gaps_are_real;
          q prop_incremental_matches_oracles;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "version change detection" `Quick test_version_change_detection;
        ] );
    ]
