(** Wire format for traces.

    Capture and upload cost is a first-order concern (paper §3.1), so
    traces travel in a compact binary form: varint-framed fields, the
    branch bit-vector packed 8-per-byte or run-length encoded
    (whichever is smaller), and the schedule run-length encoded
    (threads run in long bursts under realistic schedulers). *)

type decode_error =
  | Truncated
  | Malformed of string

(** Hard resource caps for decoding untrusted uploads (poison-trace
    quarantine, DESIGN.md §9).  Every cap bounds what the decoder will
    {e materialize}, checked against declared sizes before any
    expansion — a few adversarial RLE bytes cannot make the hive
    allocate gigabytes.  Pass no caps for trusted input (checkpoints
    the hive wrote itself). *)
type caps = {
  max_message_bytes : int;  (** Raw encoded frame size. *)
  max_branch_bits : int;  (** Declared branch bit-vector length. *)
  max_schedule_events : int;  (** Expanded schedule length. *)
  max_lock_events : int;  (** Deadlock wait-for edges per outcome. *)
  max_predicates : int;  (** Sampled-report predicate rows
                             (enforced by {!Softborg_hive.Protocol}). *)
  max_batch_records : int;  (** Trace records per batched frame
                                (enforced by {!Softborg_hive.Protocol}). *)
  max_batch_total_bits : int;
      (** Sum of declared branch bits across a whole batch — a batch
          gets the same total bit budget as one frame, so batching
          cannot smuggle volume past per-frame quarantine accounting
          (enforced by the hive's batch admission). *)
}

val default_caps : caps
(** Generous for any honest trace (the pod's step watchdog bounds
    them), tight enough to stop amplification attacks. *)

val encode : Trace.t -> string

val decode : ?caps:caps -> string -> (Trace.t, decode_error) result
(** [decode (encode t)] re-creates [t] up to {!Trace.equal} (a fresh
    trace id is assigned).  Total: any input yields [Ok] or [Error],
    never an exception.  Bytes after the last field are [Malformed].
    With [caps], oversized or amplifying inputs are rejected as
    [Malformed]. *)

val pp_error : Format.formatter -> decode_error -> unit

(** {2 Batch records}

    A batched upload carries the program digest once (in the
    {!Softborg_hive.Protocol.Batch_upload} header) and each member
    trace as a self-tagged {e record} blob: a full body, or a delta
    body against the batch's leading record, which is always full.
    Delta bodies encode steps and decision counts as signed
    differences and branch bits as the XOR against the anchor — shared
    path prefixes become one long zero run that the RLE stage
    collapses. *)

val encode_record : ?basis:Trace.t -> Trace.t -> string
(** [encode_record ?basis t] is the record blob for [t].  With a basis
    of the same program, both the full and the delta candidate are
    built and the smaller ships — a delta record is never larger than
    the full encoding plus its one tag byte.  Without a basis (or with
    a basis for another program) the record is always full. *)

val is_delta_record : string -> bool
(** Whether a record blob is tagged as a delta body — read from the tag
    byte alone, without decoding.  Pods count the delta records they
    send with it. *)

val decode_record :
  ?caps:caps -> ?basis:Trace.t -> program_digest:string -> string -> (Trace.t, decode_error) result
(** Total inverse of {!encode_record}.  The returned trace has
    [trace_id = 0]; the hive assigns real ids on its single ingest
    thread (ids are minted from a domain-unsafe counter).  A delta
    record without a matching [basis] is [Malformed] — the pod should
    have fallen back to a full record — and so is a record with bytes
    after its last field. *)

val declared_bits : string -> (int, decode_error) result
(** Cheap header probe: the declared branch-bit count of a record blob,
    read without expanding anything.  The hive's batch admission sums
    these against [max_batch_total_bits] before spending any decode
    work. *)

module Codec := Softborg_util.Codec
module Outcome := Softborg_exec.Outcome

val encode_outcome : Codec.Writer.t -> Outcome.t -> unit
val decode_outcome : ?caps:caps -> Codec.Reader.t -> Outcome.t
(** Outcome sub-codec, shared with the hive↔pod message protocol.
    @raise Softborg_util.Codec.Malformed on invalid input. *)

val write_crash_kind : Codec.Writer.t -> Outcome.crash_kind -> unit
val read_crash_kind : Codec.Reader.t -> Outcome.crash_kind
(** The one crash-kind codec (a one-byte tag), shared with fixes and
    knowledge checkpoints.
    @raise Softborg_util.Codec.Malformed on an unknown tag. *)
