(* Tests for the versioned bug-benchmark corpus and the repair-scoring
   harness: codec round-trips and digest stability over generated
   instances, seed determinism at >= 500 instances, the Fixgen
   false-positive guard on fixed variants, and tree/vm engine
   equivalence over every family (trigger recipes included). *)

module Rng = Softborg_util.Rng
module Codec = Softborg_util.Codec
module Bitvec = Softborg_util.Bitvec
module Ir = Softborg_prog.Ir
module Ir_codec = Softborg_prog.Ir_codec
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Engine = Softborg_exec.Engine
module Outcome = Softborg_exec.Outcome
module Corpus_bench = Softborg_corpus.Corpus_bench
module Fixgen = Softborg_hive.Fixgen
module Knowledge = Softborg_hive.Knowledge
module Repair_score = Softborg_hive.Repair_score
module Platform = Softborg.Platform
module Scenario = Softborg.Scenario

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* A light scoring config so the harness-driving tests stay quick. *)
let quick_config =
  { Repair_score.default_config with Repair_score.runs = 40; trigger_every = 5 }

(* The standard three-seed corpus, shared across tests (generation
   re-certifies every instance under both engines). *)
let corpus3 = lazy (Corpus_bench.corpus ())

let program_structurally_equal (a : Ir.t) (b : Ir.t) =
  a.Ir.name = b.Ir.name && a.Ir.globals = b.Ir.globals && a.Ir.n_inputs = b.Ir.n_inputs
  && a.Ir.n_locks = b.Ir.n_locks && a.Ir.threads = b.Ir.threads

(* Structural deep-copy with fresh strings: digests must not depend on
   value sharing (same oracle as test_prog's rebuild property). *)
let rebuild_program (p : Ir.t) : Ir.t =
  let s x = String.init (String.length x) (String.get x) in
  let var = function Ir.Global g -> Ir.Global (s g) | Ir.Local l -> Ir.Local (s l) in
  let rec expr = function
    | Ir.Const c -> Ir.Const c
    | Ir.Var v -> Ir.Var (var v)
    | Ir.Input i -> Ir.Input i
    | Ir.Unop (op, e) -> Ir.Unop (op, expr e)
    | Ir.Binop (op, a, b) -> Ir.Binop (op, expr a, expr b)
  in
  let instr = function
    | Ir.Assign (v, e) -> Ir.Assign (var v, expr e)
    | Ir.Branch { cond; if_true; if_false } -> Ir.Branch { cond = expr cond; if_true; if_false }
    | Ir.Jump t -> Ir.Jump t
    | Ir.Syscall { kind; dst } -> Ir.Syscall { kind; dst = var dst }
    | Ir.Lock l -> Ir.Lock l
    | Ir.Unlock l -> Ir.Unlock l
    | Ir.Assert { cond; message } -> Ir.Assert { cond = expr cond; message = s message }
    | Ir.Yield -> Ir.Yield
    | Ir.Halt -> Ir.Halt
  in
  {
    Ir.name = s p.Ir.name;
    globals = List.map s p.Ir.globals;
    n_inputs = p.Ir.n_inputs;
    n_locks = p.Ir.n_locks;
    threads = Array.map (Array.map instr) p.Ir.threads;
  }

let program_bytes p =
  let w = Codec.Writer.create () in
  Ir_codec.write_program w p;
  Codec.Writer.contents w

let instance_programs (i : Corpus_bench.instance) =
  [ ("buggy", i.Corpus_bench.buggy); ("fixed", i.Corpus_bench.fixed) ]

(* ---- Satellite 1: codec round-trip + digest stability ------------- *)

let test_codec_roundtrip_and_digest_stable () =
  List.iter
    (fun (inst : Corpus_bench.instance) ->
      List.iter
        (fun (tag, prog) ->
          let label = Printf.sprintf "%s %s" inst.Corpus_bench.name tag in
          let decoded = Ir_codec.read_program (Codec.Reader.of_string (program_bytes prog)) in
          checkb (label ^ " round-trips") true (program_structurally_equal prog decoded);
          checks (label ^ " digest survives codec") (Ir.digest prog) (Ir.digest decoded);
          checks (label ^ " digest rebuild-stable") (Ir.digest prog)
            (Ir.digest (rebuild_program prog)))
        (instance_programs inst))
    (Lazy.force corpus3)

(* ---- Satellite 2: seed determinism, buggy <> fixed, >= 500 -------- *)

let test_seed_determinism_500 () =
  let seeds = List.init 85 (fun i -> i + 1) in
  let a = Corpus_bench.corpus ~seeds () in
  let b = Corpus_bench.corpus ~seeds () in
  checki "instance count" (List.length Corpus_bench.families * List.length seeds)
    (List.length a);
  checkb "at least 500 instances" true (List.length a >= 500);
  List.iter2
    (fun (x : Corpus_bench.instance) (y : Corpus_bench.instance) ->
      let label = x.Corpus_bench.name in
      checks (label ^ " name") x.Corpus_bench.name y.Corpus_bench.name;
      checki (label ^ " version") x.Corpus_bench.version y.Corpus_bench.version;
      (* Byte-identical program pairs, not just equal digests. *)
      checks (label ^ " buggy bytes")
        (program_bytes x.Corpus_bench.buggy)
        (program_bytes y.Corpus_bench.buggy);
      checks (label ^ " fixed bytes")
        (program_bytes x.Corpus_bench.fixed)
        (program_bytes y.Corpus_bench.fixed);
      checkb (label ^ " trigger inputs") true
        (x.Corpus_bench.trigger_inputs = y.Corpus_bench.trigger_inputs);
      checkb (label ^ " benign inputs") true
        (x.Corpus_bench.benign_inputs = y.Corpus_bench.benign_inputs);
      checkb (label ^ " fault plan") true (x.Corpus_bench.fault_plan = y.Corpus_bench.fault_plan);
      checkb (label ^ " schedule hint") true
        (x.Corpus_bench.schedule_hint = y.Corpus_bench.schedule_hint);
      checkb (label ^ " bug sites") true (x.Corpus_bench.bug_sites = y.Corpus_bench.bug_sites);
      checkb (label ^ " trigger path") true
        (x.Corpus_bench.trigger_path = y.Corpus_bench.trigger_path);
      checkb (label ^ " bug locks") true (x.Corpus_bench.bug_locks = y.Corpus_bench.bug_locks);
      (* The versioned pair really is a pair: buggy and fixed are
         structurally distinct programs. *)
      checkb (label ^ " buggy <> fixed") false
        (Ir.digest x.Corpus_bench.buggy = Ir.digest x.Corpus_bench.fixed))
    a b

(* ---- Satellite 3: Fixgen false positives on fixed variants -------- *)

let test_fixgen_no_false_positives () =
  List.iter
    (fun (inst : Corpus_bench.instance) ->
      let fixes = Repair_score.fixed_variant_fixes ~config:quick_config inst in
      checki (inst.Corpus_bench.name ^ " fixes proposed on fixed variant") 0
        (List.length fixes))
    (Lazy.force corpus3)

(* ---- Satellite 4: tree/vm equivalence over every family ----------- *)

let results_equal (a : Interp.result) (b : Interp.result) =
  a.Interp.outcome = b.Interp.outcome
  && Bitvec.equal a.Interp.bits b.Interp.bits
  && a.Interp.full_path = b.Interp.full_path
  && a.Interp.schedule = b.Interp.schedule
  && a.Interp.syscalls = b.Interp.syscalls
  && a.Interp.lock_events = b.Interp.lock_events
  && a.Interp.steps = b.Interp.steps

let test_engine_equivalence () =
  let case = ref 0 in
  List.iter
    (fun (inst : Corpus_bench.instance) ->
      List.iter
        (fun (tag, program) ->
          incr case;
          let run ~engine ~inputs ~fault_plan ~sched =
            Engine.run ~engine ~program
              ~env:(Env.make ~fault_plan ~seed:(17 + !case) ~inputs ())
              ~sched ()
          in
          let check label ~inputs ~fault_plan ~sched_of =
            let tree = run ~engine:Engine.Tree ~inputs ~fault_plan ~sched:(sched_of ()) in
            let vm = run ~engine:Engine.Vm ~inputs ~fault_plan ~sched:(sched_of ()) in
            checkb
              (Printf.sprintf "%s %s %s tree=vm" inst.Corpus_bench.name tag label)
              true (results_equal tree vm)
          in
          (* The certified trigger recipe: inputs + fault plan +
             (for threaded instances) the failing schedule. *)
          check "trigger"
            ~inputs:inst.Corpus_bench.trigger_inputs
            ~fault_plan:inst.Corpus_bench.fault_plan
            ~sched_of:(fun () ->
              match inst.Corpus_bench.schedule_hint with
              | Some hint -> Sched.Replay hint
              | None -> Sched.Round_robin);
          (* Benign inputs under the same fault plan. *)
          check "benign"
            ~inputs:inst.Corpus_bench.benign_inputs
            ~fault_plan:inst.Corpus_bench.fault_plan
            ~sched_of:(fun () -> Sched.Round_robin);
          (* Random schedules (threaded instances weave differently;
             single-threaded ones have no contended points). *)
          for rep = 1 to 3 do
            check
              (Printf.sprintf "random-%d" rep)
              ~inputs:inst.Corpus_bench.benign_inputs ~fault_plan:Env.No_faults
              ~sched_of:(fun () -> Sched.Random_sched (Rng.create ((31 * !case) + rep)))
          done)
        (instance_programs inst))
    (Lazy.force corpus3)

(* ---- Construction-time certification surface ---------------------- *)

let test_verify_accepts_generated () =
  List.iter
    (fun (inst : Corpus_bench.instance) ->
      match Corpus_bench.verify inst with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s failed re-verification: %s" inst.Corpus_bench.name msg)
    (Lazy.force corpus3)

let test_corpus_shape () =
  let instances = Lazy.force corpus3 in
  checki "6 families x 3 seeds" 18 (List.length instances);
  let threaded = List.filter Corpus_bench.concurrent instances in
  checkb "at least one concurrency family" true (List.length threaded >= 3);
  List.iter
    (fun (inst : Corpus_bench.instance) ->
      let label = inst.Corpus_bench.name in
      checkb (label ^ " trigger accepts witness") true
        (inst.Corpus_bench.trigger inst.Corpus_bench.trigger_inputs);
      if Corpus_bench.concurrent inst then
        checkb (label ^ " has schedule hint") true (inst.Corpus_bench.schedule_hint <> None)
      else begin
        checkb (label ^ " rejects benign inputs") false
          (inst.Corpus_bench.trigger inst.Corpus_bench.benign_inputs);
        checkb (label ^ " has bug sites") true (inst.Corpus_bench.bug_sites <> [])
      end)
    instances

(* The scorer itself: every instance of the three-seed corpus must be
   localized and averted at full precision with most of its fixed tree
   proved (the yardstick `bench repair` records, here under the quick
   config), and an instance's buggy build run as a fleet must deploy a
   fix through the normal pod->hive loop. *)
let test_scorer_localizes_and_averts () =
  let scores, families = Repair_score.score_corpus ~config:quick_config (Lazy.force corpus3) in
  List.iter
    (fun (s : Repair_score.instance_score) ->
      let label = s.Repair_score.name in
      checkb (label ^ " failures seen") true (s.Repair_score.failures_seen > 0);
      checkb (label ^ " isolated") true (s.Repair_score.time_to_isolation <> None);
      checkb (label ^ " localized") true s.Repair_score.localized;
      checkb (label ^ " averted") true s.Repair_score.averted;
      checkb (label ^ " fix proposed") true (s.Repair_score.proposed > 0);
      checki (label ^ " precision 1.0") s.Repair_score.proposed s.Repair_score.correct;
      checkb (label ^ " coverage > 0.5") true (s.Repair_score.proof_coverage > 0.5))
    scores;
  checki "six families scored" 6 (List.length families);
  List.iter
    (fun (f : Repair_score.family_score) ->
      checkb (f.Repair_score.family ^ " recall 1.0") true (f.Repair_score.recall = 1.0);
      checkb (f.Repair_score.family ^ " coverage > 0.5") true
        (f.Repair_score.mean_proof_coverage > 0.5))
    families;
  let inst = List.hd (Lazy.force corpus3) in
  let report =
    Platform.run { (Scenario.repair_instance ~seed:5 inst) with Platform.duration = 90.0 }
  in
  let know = List.hd report.Platform.knowledge in
  checkb "fleet run ingested traffic" true (Knowledge.traces_ingested know > 0);
  checkb "fleet run deployed a fix" true
    (List.exists Fixgen.is_deployable (Knowledge.fixes know))

let () =
  Alcotest.run "softborg_corpus"
    [
      ( "corpus_bench",
        [
          Alcotest.test_case "shape and witnesses" `Quick test_corpus_shape;
          Alcotest.test_case "verify accepts generated" `Quick test_verify_accepts_generated;
          Alcotest.test_case "codec round-trip + digest stability" `Quick
            test_codec_roundtrip_and_digest_stable;
          Alcotest.test_case "seed determinism (510 instances)" `Quick
            test_seed_determinism_500;
          Alcotest.test_case "tree/vm equivalence (all families)" `Quick
            test_engine_equivalence;
        ] );
      ( "repair_score",
        [
          Alcotest.test_case "no false positives on fixed variants" `Quick
            test_fixgen_no_false_positives;
          Alcotest.test_case "localizes and averts every instance" `Quick
            test_scorer_localizes_and_averts;
        ] );
    ]
