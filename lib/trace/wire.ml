module Bitvec = Softborg_util.Bitvec
module Codec = Softborg_util.Codec
module Ids = Softborg_util.Ids
module Ir_codec = Softborg_prog.Ir_codec
module Outcome = Softborg_exec.Outcome

type decode_error =
  | Truncated
  | Malformed of string

let pp_error fmt = function
  | Truncated -> Format.pp_print_string fmt "truncated"
  | Malformed msg -> Format.fprintf fmt "malformed: %s" msg

(* ---- Resource caps ----------------------------------------------------- *)

type caps = {
  max_message_bytes : int;
  max_branch_bits : int;
  max_schedule_events : int;
  max_lock_events : int;
  max_predicates : int;
  max_batch_records : int;
  max_batch_total_bits : int;
}

(* Generous for any honest trace the interpreter can produce (branch
   bits are bounded by the pod's step watchdog), tight enough that an
   adversarial upload cannot make the hive materialize gigabytes from a
   few RLE bytes.  A batch gets the same total bit budget as a single
   frame: batching is a framing optimization, not a cap escape hatch. *)
let default_caps =
  {
    max_message_bytes = 1 lsl 20;
    max_branch_bits = 1 lsl 20;
    max_schedule_events = 1 lsl 20;
    max_lock_events = 4096;
    max_predicates = 1 lsl 16;
    max_batch_records = 256;
    max_batch_total_bits = 1 lsl 20;
  }

(* [check caps what n field] raises [Codec.Malformed] when [n] exceeds
   the cap; with no caps it accepts anything (trusted input, e.g. a
   checkpoint the hive wrote itself). *)
let check caps what n field =
  match caps with
  | None -> ()
  | Some c ->
    let limit = field c in
    if n > limit then
      raise (Codec.Malformed (Printf.sprintf "%s %d exceeds cap %d" what n limit))

let write_crash_kind w kind =
  Codec.Writer.byte w
    (match kind with Outcome.Assertion_failure -> 0 | Outcome.Division_by_zero -> 1)

let read_crash_kind r =
  match Codec.Reader.byte r with
  | 0 -> Outcome.Assertion_failure
  | 1 -> Outcome.Division_by_zero
  | n -> raise (Codec.Malformed (Printf.sprintf "crash tag %d" n))

let encode_outcome w = function
  | Outcome.Success -> Codec.Writer.byte w 0
  | Outcome.Crash { site; kind; message } ->
    Codec.Writer.byte w 1;
    Ir_codec.write_site w site;
    write_crash_kind w kind;
    Codec.Writer.bytes w message
  | Outcome.Deadlock { waiting } ->
    Codec.Writer.byte w 2;
    Codec.Writer.list w
      (fun (thread, lock) ->
        Codec.Writer.varint w thread;
        Codec.Writer.varint w lock)
      waiting
  | Outcome.Hang -> Codec.Writer.byte w 3

let decode_outcome ?caps r =
  match Codec.Reader.byte r with
  | 0 -> Outcome.Success
  | 1 ->
    let site = Ir_codec.read_site r in
    let kind = read_crash_kind r in
    let message = Codec.Reader.bytes r in
    Outcome.Crash { site; kind; message }
  | 2 ->
    let waiting =
      Codec.Reader.list r (fun r ->
          let thread = Codec.Reader.varint r in
          let lock = Codec.Reader.varint r in
          (thread, lock))
    in
    check caps "lock events" (List.length waiting) (fun c -> c.max_lock_events);
    Outcome.Deadlock { waiting }
  | 3 -> Outcome.Hang
  | n -> raise (Codec.Malformed (Printf.sprintf "outcome tag %d" n))

(* ---- Shared body pieces ------------------------------------------------ *)

(* Branch bits: declared length, then packed or RLE, whichever is
   smaller.  Shared between the full body and the delta body (where the
   vector written is the XOR against the basis — long shared prefixes
   become one long zero run, which is exactly what RLE eats). *)
let write_bits w bits =
  let n_bits = Bitvec.length bits in
  Codec.Writer.varint w n_bits;
  let packed = Bitvec.to_bytes bits in
  let runs = Compress.bit_runs bits in
  let rle = Compress.encode_runs runs in
  if String.length rle < String.length packed then begin
    Codec.Writer.byte w 1;
    Codec.Writer.bytes w rle
  end
  else begin
    Codec.Writer.byte w 0;
    Codec.Writer.bytes w packed
  end

let read_bits ?caps r =
  let n_bits = Codec.Reader.varint r in
  (* Caps are enforced on the *declared* sizes before any expansion:
     a few adversarial RLE bytes must not make the hive materialize a
     multi-gigabyte bit-vector. *)
  check caps "branch bits" n_bits (fun c -> c.max_branch_bits);
  match Codec.Reader.byte r with
  | 0 -> Bitvec.of_bytes (Codec.Reader.bytes r) n_bits
  | 1 ->
    let runs = Compress.decode_runs (Codec.Reader.bytes r) in
    (* Running-sum check: every prefix must stay under the declared
       bit count, so a crafted run length can neither overflow the
       accumulator nor trigger a huge allocation in expansion. *)
    let declared =
      List.fold_left
        (fun acc (_, n) ->
          if n < 0 || n > n_bits - acc then
            raise (Codec.Malformed "RLE bit count mismatch")
          else acc + n)
        0 runs
    in
    if declared <> n_bits then raise (Codec.Malformed "RLE bit count mismatch");
    let bits = Compress.runs_to_bits runs in
    if Bitvec.length bits <> n_bits then raise (Codec.Malformed "RLE bit count mismatch");
    bits
  | n -> raise (Codec.Malformed (Printf.sprintf "bits encoding tag %d" n))

(* Fix attribution: one varint 0 for [None] (the pre-rollout wire,
   byte-for-byte plus that single zero), else the id count + 1, the
   sorted ids, and the hook-fire count.  It sits at the very end of
   both body shapes so [declared_bits]'s fixed skip-prefix and the
   trace store's pod-varint splice offsets are unaffected. *)
let write_attribution w (a : Trace.attribution option) =
  match a with
  | None -> Codec.Writer.varint w 0
  | Some a ->
    Codec.Writer.varint w (List.length a.active_fixes + 1);
    List.iter (Codec.Writer.varint w) a.active_fixes;
    Codec.Writer.varint w a.hook_fires

let read_attribution ?caps r =
  match Codec.Reader.varint r with
  | 0 -> None
  | n ->
    let n_ids = n - 1 in
    check caps "attributed fixes" n_ids (fun c -> c.max_predicates);
    let active_fixes = List.init n_ids (fun _ -> Codec.Reader.varint r) in
    let hook_fires = Codec.Reader.varint r in
    Some { Trace.active_fixes; hook_fires }

let write_tail w (t : Trace.t) =
  (* Schedule: RLE of thread runs. *)
  Codec.Writer.list w
    (fun (thread, run) ->
      Codec.Writer.varint w thread;
      Codec.Writer.varint w run)
    (Compress.int_runs t.schedule);
  Codec.Writer.list w
    (fun (kind, result) ->
      Ir_codec.write_syscall w kind;
      Codec.Writer.zigzag w result)
    t.syscalls;
  encode_outcome w t.outcome;
  write_attribution w t.attribution

let read_tail ?caps r =
  let schedule_runs =
    Codec.Reader.list r (fun r ->
        let thread = Codec.Reader.varint r in
        let run = Codec.Reader.varint r in
        (thread, run))
  in
  (match caps with
  | None -> ()
  | Some c ->
    (* Prefix-sum guard, for the same no-amplification reason as the
       branch-bit runs. *)
    ignore
      (List.fold_left
         (fun acc (_, n) ->
           if n < 0 || n > c.max_schedule_events - acc then
             raise
               (Codec.Malformed
                  (Printf.sprintf "schedule events exceed cap %d" c.max_schedule_events))
           else acc + n)
         0 schedule_runs));
  let schedule = Compress.expand_int_runs schedule_runs in
  let syscalls =
    Codec.Reader.list r (fun r ->
        let kind = Ir_codec.read_syscall r in
        let result = Codec.Reader.zigzag r in
        (kind, result))
  in
  let outcome = decode_outcome ?caps r in
  let attribution = read_attribution ?caps r in
  (schedule, syscalls, outcome, attribution)

(* ---- Full frame -------------------------------------------------------- *)

(* Everything after the program digest; the single-frame codec and the
   batch-record codec both use it, so the canonical bytes the hive
   stores are identical whichever path a trace arrived by. *)
let write_body w (t : Trace.t) =
  Codec.Writer.varint w t.pod;
  Codec.Writer.varint w t.fix_epoch;
  Codec.Writer.varint w t.steps;
  Codec.Writer.varint w t.n_decisions;
  write_bits w t.bits;
  write_tail w t

let read_body ?caps r ~program_digest ~trace_id =
  let pod = Codec.Reader.varint r in
  let fix_epoch = Codec.Reader.varint r in
  let steps = Codec.Reader.varint r in
  let n_decisions = Codec.Reader.varint r in
  let bits = read_bits ?caps r in
  let schedule, syscalls, outcome, attribution = read_tail ?caps r in
  {
    Trace.trace_id;
    program_digest;
    pod;
    bits;
    n_decisions;
    schedule;
    syscalls;
    outcome;
    steps;
    fix_epoch;
    attribution;
  }

let encode (t : Trace.t) =
  let w = Codec.Writer.create () in
  Codec.Writer.bytes w t.program_digest;
  write_body w t;
  Codec.Writer.contents w

let check_frame_size caps s =
  match caps with
  | Some c when String.length s > c.max_message_bytes ->
    raise
      (Codec.Malformed
         (Printf.sprintf "message of %d bytes exceeds cap %d" (String.length s)
            c.max_message_bytes))
  | _ -> ()

let decode ?caps s =
  match
    check_frame_size caps s;
    let r = Codec.Reader.of_string s in
    let program_digest = Codec.Reader.bytes r in
    let trace = read_body ?caps r ~program_digest ~trace_id:(Ids.Trace_id.fresh ()) in
    Codec.Reader.expect_end r;
    trace
  with
  | trace -> Ok trace
  | exception Codec.Truncated -> Error Truncated
  | exception Codec.Malformed msg -> Error (Malformed msg)
  | exception Invalid_argument msg -> Error (Malformed msg)

(* ---- Delta records (batched frames) ------------------------------------ *)

(* A batch member is a self-tagged record blob: one tag byte, then
   either a full body (tag 0) or a delta body (tag 1).  The program
   digest lives in the batch header, never in the record.  Delta bodies
   delta everything bulky against a shared anchor trace: steps and
   decision counts as zigzag differences, branch bits as the XOR
   against the anchor's bits (a shared prefix XORs to a zero run that
   RLE collapses to a few bytes).  The schedule, syscalls, and outcome
   travel as in the full body — they are small and rarely shared.

   [encode_record] builds both candidates and ships whichever is
   smaller, so a delta record is never worse than a full one (the
   basis-mismatch / divergent-execution fallback the pods rely on). *)

let record_full = 0
let record_delta = 1
let is_delta_record s = String.length s > 0 && Char.code s.[0] = record_delta

let write_delta_body w ~(basis : Trace.t) (t : Trace.t) =
  Codec.Writer.varint w t.pod;
  Codec.Writer.varint w t.fix_epoch;
  Codec.Writer.zigzag w (t.steps - basis.steps);
  Codec.Writer.zigzag w (t.n_decisions - basis.n_decisions);
  write_bits w (Bitvec.xor t.bits basis.bits);
  write_tail w t

let read_delta_body ?caps r ~(basis : Trace.t) ~program_digest ~trace_id =
  let pod = Codec.Reader.varint r in
  let fix_epoch = Codec.Reader.varint r in
  let steps = basis.steps + Codec.Reader.zigzag r in
  let n_decisions = basis.n_decisions + Codec.Reader.zigzag r in
  if steps < 0 || n_decisions < 0 then
    raise (Codec.Malformed "delta record: negative steps or decisions");
  let x = read_bits ?caps r in
  let bits = Bitvec.xor x basis.bits in
  let schedule, syscalls, outcome, attribution = read_tail ?caps r in
  {
    Trace.trace_id;
    program_digest;
    pod;
    bits;
    n_decisions;
    schedule;
    syscalls;
    outcome;
    steps;
    fix_epoch;
    attribution;
  }

let encode_record ?basis (t : Trace.t) =
  let full =
    let w = Codec.Writer.create () in
    Codec.Writer.byte w record_full;
    write_body w t;
    Codec.Writer.contents w
  in
  match basis with
  | None -> full
  | Some (b : Trace.t) when not (String.equal b.program_digest t.program_digest) -> full
  | Some b ->
    let w = Codec.Writer.create () in
    Codec.Writer.byte w record_delta;
    write_delta_body w ~basis:b t;
    let delta = Codec.Writer.contents w in
    if String.length delta < String.length full then delta else full

let decode_record ?caps ?basis ~program_digest s =
  match
    check_frame_size caps s;
    let r = Codec.Reader.of_string s in
    let trace =
      match Codec.Reader.byte r with
      | tag when tag = record_full ->
        read_body ?caps r ~program_digest ~trace_id:(Ids.Trace_id.of_int 0)
      | tag when tag = record_delta -> begin
        match basis with
        | None -> raise (Codec.Malformed "delta record without a basis")
        | Some (b : Trace.t) ->
          if not (String.equal b.program_digest program_digest) then
            raise (Codec.Malformed "delta record: basis digest mismatch");
          read_delta_body ?caps r ~basis:b ~program_digest ~trace_id:(Ids.Trace_id.of_int 0)
      end
      | n -> raise (Codec.Malformed (Printf.sprintf "record tag %d" n))
    in
    Codec.Reader.expect_end r;
    trace
  with
  | trace -> Ok trace
  | exception Codec.Truncated -> Error Truncated
  | exception Codec.Malformed msg -> Error (Malformed msg)
  | exception Invalid_argument msg -> Error (Malformed msg)

let declared_bits s =
  match
    let r = Codec.Reader.of_string s in
    let tag = Codec.Reader.byte r in
    if tag <> record_full && tag <> record_delta then
      raise (Codec.Malformed (Printf.sprintf "record tag %d" tag));
    ignore (Codec.Reader.varint r);
    (* pod *)
    ignore (Codec.Reader.varint r);
    (* fix_epoch *)
    (* steps / n_decisions: plain varints in full bodies, zigzags in
       delta bodies — same byte shape either way, skipped unread. *)
    ignore (Codec.Reader.varint r);
    ignore (Codec.Reader.varint r);
    Codec.Reader.varint r
  with
  | n -> Ok n
  | exception Codec.Truncated -> Error Truncated
  | exception Codec.Malformed msg -> Error (Malformed msg)
