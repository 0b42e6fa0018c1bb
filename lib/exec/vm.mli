(** Allocation-free bytecode execution.

    Drop-in replacement for the tree-walk {!Interp}: same record/replay
    semantics — taint tracking, branch-bit emission/consumption, crash
    hooks and suppression, syscall summaries, lock events, and the
    decision-count stop — but dispatching {!Bytecode} int opcodes over
    dense slot arrays.  Pods execute on it and the hive replays on it;
    {!Interp} is the reference it is tested against.

    A run costs what it records, not what [max_steps] permits: values
    live in int arrays sized by the program, taint in bytes, and trace
    by-products in packed int buffers that start at a few dozen words
    and double when full.  A short run's setup is a handful of small
    minor-heap allocations that die young, with nothing placed directly
    on the major heap; the dispatch loop allocates only when a push
    fills a buffer, never per instruction.  That matters because pods
    share a process, and its minor heap, with the hive.

    Equivalence with {!Interp} is a tested property (identical
    {!Outcome.t}, bits, decisions, syscall summaries, lock events, and
    replay errors over the generator corpus); the argument is spelled
    out in DESIGN.md §10. *)

module Bitvec := Softborg_util.Bitvec
module Ir := Softborg_prog.Ir

val execute :
  ?max_steps:int ->
  ?hooks:Interp.hooks ->
  ?cache:Bytecode.cache ->
  program:Ir.t ->
  env:Env.t ->
  sched:Sched.policy ->
  unit ->
  Interp.result
(** Bytecode counterpart of {!Interp.run}; identical defaults
    ([max_steps] 20_000, no hooks) and identical results.  The program
    is compiled through [cache] (default {!Bytecode.shared_cache}). *)

val reconstruct :
  ?hooks:Interp.hooks ->
  ?cache:Bytecode.cache ->
  program:Ir.t ->
  bits:Bitvec.t ->
  schedule:int list ->
  total_decisions:int ->
  total_steps:int ->
  unit ->
  (Interp.reconstruction, string) result
(** Bytecode counterpart of {!Interp.reconstruct}: replays a recorded
    trace, reconstructing the full decision sequence and lock events,
    with the same error behavior on truncated or over-long bit
    vectors. *)
