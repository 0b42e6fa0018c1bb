open Build
open Build.Infix

(* Figure 2 of the paper:

     void write(int p) {
       if (p < MAX) {
         if (p > 0) ... else { ... }
       } else {
         if (p > 3) close(p); else { ... }
       }
     }

   Input 0 is p; MAX = 100.  The "..." bodies are given distinct
   observable effects so paths are distinguishable. *)
let fig2_write =
  program ~name:"fig2-write" ~n_inputs:1
    [
      [
        assign (lvar "p") (input 0);
        if_
          (local "p" <: const 100)
          [
            if_
              (local "p" >: const 0)
              [ assign (lvar "work") (local "p" *: const 2) ]
              [ assign (lvar "work") (const 0 -: local "p") ];
          ]
          [
            if_
              (local "p" >: const 3)
              [ syscall Ir.Sys_write (lvar "closed") ]
              [ assign (lvar "work") (const 3) ];
          ];
      ];
    ]

let file_copy =
  program ~name:"file-copy" ~n_inputs:2
    [
      [
        (* Source open is checked... *)
        syscall Ir.Sys_open (lvar "src");
        if_
          (local "src" >=: const 0)
          [
            (* ...but the destination open is not: a fault here makes
               dst = -1 and dst + 1 = 0, crashing the progress
               computation below (division by zero). *)
            syscall Ir.Sys_open (lvar "dst");
            assign (lvar "chunks") (input 0 %: const 8);
            while_
              (local "chunks" >: const 0)
              [
                syscall Ir.Sys_read (lvar "buf");
                if_
                  (local "buf" >=: const 0)
                  [
                    syscall Ir.Sys_write (lvar "written");
                    assign (lvar "progress") (local "written" /: (local "dst" +: const 1));
                  ]
                  [ assign (lvar "chunks") (const 1) ];
                assign (lvar "chunks") (local "chunks" -: const 1);
              ];
          ]
          [ assign (lvar "status") (const 0 -: const 1) ];
      ];
    ]

let worker_pool =
  program ~name:"worker-pool" ~globals:[ "jobs"; "results" ] ~n_inputs:1 ~n_locks:2
    [
      [
        (* Main thread seeds the job queue. *)
        assign (gvar "jobs") (input 0 %: const 4 +: const 1);
      ];
      [
        (* Worker A: jobs lock then results lock. *)
        if_
          (input 0 %: const 2 ==: const 0)
          [
            lock 0;
            yield;
            lock 1;
            assign (gvar "results") (glob "results" +: glob "jobs");
            unlock 1;
            unlock 0;
          ]
          [];
      ];
      [
        (* Worker B: results lock then jobs lock — the inversion. *)
        if_
          (input 0 %: const 2 ==: const 0)
          [
            lock 1;
            yield;
            lock 0;
            assign (gvar "jobs") (glob "jobs" -: const 1);
            unlock 0;
            unlock 1;
          ]
          [];
      ];
    ]

let racy_counter =
  let increment done_flag =
    [
      assign (lvar "tmp") (glob "counter");
      yield;
      assign (lvar "tmp") (local "tmp" +: const 1);
      assign (gvar "counter") (local "tmp");
      assign (gvar done_flag) (const 1);
    ]
  in
  program ~name:"racy-counter" ~globals:[ "counter"; "done_a"; "done_b" ]
    [
      [ assign (gvar "counter") (const 0) ];
      increment "done_a";
      increment "done_b";
      [
        yield;
        yield;
        yield;
        yield;
        assert_
          (glob "done_a" ==: const 0 ||: (glob "done_b" ==: const 0) ||: (glob "counter" ==: const 2))
          "lost update on shared counter";
      ];
    ]

let parser =
  program ~name:"parser" ~n_inputs:3
    [
      [
        assign (lvar "tok") (input 0 %: const 16);
        if_
          (local "tok" ==: const 7)
          [
            assign (lvar "arg") (input 1 %: const 16);
            if_
              (local "arg" ==: const 13)
              [
                assign (lvar "len") (input 2 %: const 32);
                if_
                  (local "len" ==: const 5)
                  [ assert_ (const 0) "parser chokes on token 7 / arg 13 / len 5" ]
                  [ assign (lvar "consumed") (local "len") ];
              ]
              [ assign (lvar "consumed") (local "arg") ];
          ]
          [
            if_
              (local "tok" <: const 4)
              [ assign (lvar "consumed") (local "tok" *: const 3) ]
              [ assign (lvar "consumed") (local "tok" +: const 1) ];
          ];
      ];
    ]

let parser_trigger = [| 7; 13; 5 |]

(* Realistic control-flow mix: most branches are deterministic (fixed
   32-round mixing loop with a constant schedule), only three depend on
   inputs.  This is the program shape that makes paper §3.1's
   "record only input-dependent branches" saving large. *)
let checksum =
  program ~name:"checksum" ~n_inputs:2
    [
      [
        assign (lvar "acc") (input 0);
        assign (lvar "round") (const 32);
        while_
          (local "round" >: const 0)
          [
            (* Deterministic schedule: odd rounds mix, even rounds add
               the round counter; every fourth round decrements. *)
            if_
              (local "round" %: const 2 ==: const 1)
              [ assign (lvar "acc") ((local "acc" *: const 3) +: const 7) ]
              [ assign (lvar "acc") (local "acc" +: local "round") ];
            if_
              (local "round" %: const 4 ==: const 0)
              [ assign (lvar "acc") (local "acc" -: const 1) ]
              [];
            assign (lvar "round") (local "round" -: const 1);
          ];
        (* Only these depend on inputs. *)
        if_
          (local "acc" %: const 2 ==: const 0)
          [ assign (lvar "parity") (const 0) ]
          [ assign (lvar "parity") (const 1) ];
        if_
          (input 1 >: const 100)
          [ assign (lvar "mode") (const 2) ]
          [ assign (lvar "mode") (const 1) ];
      ];
    ]

(* A three-party transfer system with a three-lock deadlock cycle:
   each teller locks its source account then the destination, and the
   transfer ring 0→1→2→0 closes the cycle.  Exercises cycle detection
   and immunity beyond the two-lock case. *)
let bank_transfer =
  let teller ~src ~dst ~amount =
    [
      lock src;
      yield;
      lock dst;
      assign (gvar "total_moved") (glob "total_moved" +: const amount);
      unlock dst;
      unlock src;
    ]
  in
  program ~name:"bank-transfer" ~globals:[ "total_moved" ] ~n_inputs:1 ~n_locks:3
    [
      [ assign (gvar "total_moved") (const 0) ];
      teller ~src:0 ~dst:1 ~amount:10;
      teller ~src:1 ~dst:2 ~amount:20;
      teller ~src:2 ~dst:0 ~amount:30;
    ]

(* A benign lock-rich program: two append paths with globally
   consistent acquisition orders (2<0 and 1<2, acyclic), so every
   schedule completes and the fleet's natural failure rate is zero.
   That makes a bad fix's damage unmistakable: an over-broad immunity
   set [0;1] makes the 2->0 thread defer while the 1->2 thread blocks on
   the lock it holds, livelocking ~70% of schedules into [Hang].  (On a
   program with a real deadlock the natural failure rate would mask the
   harm signal, and once the genuine immunity fix is fleet-wide the
   merged pattern sets serialize the saboteur's livelock away.) *)
let audit_ledger =
  program ~name:"audit-ledger" ~globals:[ "entries" ] ~n_inputs:1 ~n_locks:3
    [
      [ assign (gvar "entries") (const 0) ];
      [
        lock 2;
        yield;
        lock 0;
        assign (gvar "entries") (glob "entries" +: const 1);
        unlock 0;
        unlock 2;
      ];
      [
        lock 1;
        yield;
        lock 2;
        assign (gvar "entries") (glob "entries" +: const 2);
        unlock 2;
        unlock 1;
      ];
    ]

let all =
  [
    ("fig2-write", fig2_write);
    ("file-copy", file_copy);
    ("worker-pool", worker_pool);
    ("racy-counter", racy_counter);
    ("parser", parser);
    ("checksum", checksum);
    ("bank-transfer", bank_transfer);
  ]
