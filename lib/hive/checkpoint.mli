(** Hive checkpoint framing.

    The hive's collective knowledge is irreplaceable — it aggregates
    what millions of pod executions taught it (paper §3) — so it must
    survive hive restarts.  A checkpoint is a magic-tagged, versioned
    frame around the {!Knowledge} codec: the full set of per-program
    knowledge bases, sorted by program digest so equal hive states
    produce byte-identical checkpoints.

    Decoding never raises: malformed or truncated input comes back as
    [Error] with a reason, so a corrupt checkpoint degrades to a cold
    start rather than a crash.  Bytes after the last field are
    malformed too. *)

val magic : string
(** ["SBCP"]. *)

val format_version : int

val encode : Knowledge.t list -> string
(** Serialize a set of knowledge bases (sorted internally by digest). *)

val decode : string -> (Knowledge.t list, string) result
(** Inverse of {!encode}.  Each restored knowledge base's decoded-trace
    cache restarts cold at the default size. *)

val encode_knowledge : Knowledge.t -> string
(** One knowledge base, unframed — the unit the property tests
    round-trip. *)

val decode_knowledge : string -> (Knowledge.t, string) result
