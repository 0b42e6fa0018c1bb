(** Content-addressed trace storage with deduplication.

    "Users execute software billions of times around the world" (paper
    §2): the overwhelming majority of those executions repeat paths the
    hive has already seen, so storing every upload verbatim would be
    absurd.  The store keys each trace by a digest of its {e content}
    (path bits, schedule, syscall summary, outcome) and keeps one copy
    plus a multiplicity counter; the accounting exposes how much the
    popularity skew saves. *)

module Trace := Softborg_trace.Trace

type t

val create : unit -> t

type admission =
  | Novel  (** First time this exact execution content was seen. *)
  | Duplicate of int  (** Seen before; the new multiplicity. *)

type prepared = {
  p_trace : Trace.t;
  p_encoded : string;  (** Canonical {!Softborg_trace.Wire.encode} bytes. *)
  p_key : string;  (** Content digest, as {!content_key}. *)
  p_size : int;
      (** Bytes for accounting: the content encoding's length, i.e. the
          upload's with the pod varint counted as one byte, so a
          content weighs the same whichever pod reports it. *)
}
(** A trace together with its canonical wire bytes, content key, and
    byte accounting, all derived from one encode. *)

val prepare : Trace.t -> prepared
(** Encode once, derive everything.
    The hive prepares every decoded upload so admission, the replay
    cache, and the federation ingest tap all reuse the same buffer. *)

val with_trace : prepared -> Trace.t -> prepared
(** Replace the carried trace (e.g. after assigning a fresh trace id —
    ids are not encoded, so the canonical bytes stay valid). *)

val admit : t -> Trace.t -> admission
(** Record one uploaded trace.  Encodes the trace exactly once: the
    content digest and the byte accounting come from the same
    buffer. *)

val admit_keyed : ?prepared:prepared -> t -> Trace.t -> string * admission
(** Like {!admit}, but also returns the content key so callers (e.g.
    the knowledge replay cache) can reuse it without re-encoding.
    With [prepared], no encode happens at all — the prepared key and
    size are filed directly; without it, the store encodes and counts
    a {!fallback_encodes}. *)

val fallback_encodes : t -> int
(** Admissions that re-encoded because no prepared bytes were supplied.
    Stays 0 on the hive's serving paths — a regression counter for the
    federation double-encode bug.  Not checkpointed. *)

val content_key : Trace.t -> string
(** The content digest {!admit} files the trace under: a hex digest of
    the wire encoding with the per-upload identifiers (trace id, pod)
    zeroed out. *)

val distinct : t -> int
(** Distinct execution contents stored. *)

val received : t -> int
(** Total uploads admitted (with multiplicity). *)

val bytes_received : t -> int
(** Content bytes across all uploads (see [p_size]). *)

val bytes_stored : t -> int
(** Content bytes actually kept (one copy per distinct content). *)

val dedup_ratio : t -> float
(** bytes_received / bytes_stored (1.0 when everything is novel). *)

val multiplicity : t -> Trace.t -> int
(** How often this exact content has been seen (0 if never). *)

val heaviest : t -> n:int -> (string * int) list
(** The [n] most frequent content digests with their counts — the
    "hot paths" of the user population. *)

val write : Softborg_util.Codec.Writer.t -> t -> unit
(** Checkpoint codec: counters plus all entries sorted by digest, so
    equal stores serialize to equal bytes. *)

val read : Softborg_util.Codec.Reader.t -> t
(** @raise Softborg_util.Codec.Malformed on invalid input.
    @raise Softborg_util.Codec.Truncated on premature end. *)
