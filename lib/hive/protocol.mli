(** The pod↔hive message protocol (paper Figure 1).

    Pods send by-products up; the hive sends fixes and guidance down,
    and a federation's shards send their admitted uploads to the merge
    coordinator ({!Knowledge_delta}).  All messages are
    length-delimited binary strings carried by the reliable transport
    ({!Softborg_net.Transport}).  Only uploads cross the wire between
    hives: gap verdicts, a pure function of the program, stay in the
    federation's memory ({!Federation}). *)

module Sampling := Softborg_trace.Sampling
module Wire := Softborg_trace.Wire

type message =
  | Trace_upload of string
      (** A {!Softborg_trace.Wire}-encoded trace (possibly anonymized
          by the pod before encoding). *)
  | Sampled_report of { program_digest : string; report : Sampling.t }
      (** CBI-mode upload: sparse predicate counts plus outcome. *)
  | Fix_update of {
      program_digest : string;
      epoch : int;
      fixes : Fixgen.fix list;
      canary : int list;
          (** Ids (within [fixes]) still in canary stage: a pod
              activates one only if its cohort hash says so. *)
      canary_mils : int;
          (** Canary cohort fraction in thousandths; [0] disables
              staging (every fix in [fixes] is fleet-wide). *)
      pressure : int;
          (** Hive load level (0 = unloaded), piggybacked on every
              downstream push so pods track backpressure without extra
              messages. *)
    }
      (** The hive's current deployable fix set for a program.  Every
          fix-state change travels as one, retraction included: a
          higher [epoch] whose [fixes] lack the retracted fix.  Pods
          apply it only when [epoch] advances their own. *)
  | Guidance_update of {
      program_digest : string;
      directives : Guidance.directive list;
      pressure : int;  (** Piggybacked load level, as in {!Fix_update}. *)
    }
      (** Execution-steering directives for this pod. *)
  | Pressure_update of { level : int }
      (** Standalone backpressure broadcast, sent when the hive's load
          level changes and no other downstream push is imminent. *)
  | Knowledge_delta of {
      shard : int;
      seq : int;
      payloads : (string * int) list;
          (** The canonical ingest payloads (encoded protocol frames)
              the shard admitted since its previous delta, each
              distinct byte string once with its number of copies
              ([>= 1]), in the order of first admission. *)
    }
      (** Superstep uplink from a shard to the merge coordinator.
          [seq] orders deltas from one shard; the coordinator commits
          rounds in (shard, seq) order, ingesting each payload
          [copies] times. *)
  | Batch_upload of {
      program_digest : string;  (** Shared by every record in the batch. *)
      records : string list;
          (** Self-tagged {!Softborg_trace.Wire.encode_record} blobs.
              The first record is the batch's anchor and must be full;
              each later record is full or delta-encoded against it.
              Count capped by [caps.max_batch_records], summed
              declared bits capped by [caps.max_batch_total_bits]. *)
    }
      (** Multi-trace upload: one header, one digest, many records. *)

val encode : message -> string

val decode : ?caps:Wire.caps -> string -> (message, string) result
(** Total: any byte string yields [Ok] or a human-readable [Error],
    never an exception.  With [caps], resource limits are enforced
    before allocation (frame size, predicate rows, and the embedded
    outcome's lock set) so a poison frame cannot exhaust the hive.
    The retired tags 5, 7, 9 and 10 decode to [Error] like any unknown
    tag, and so does a frame with bytes after its last field. *)

val message_name : message -> string
