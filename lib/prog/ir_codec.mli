(** Binary encoding of IR values.

    Synthesized fixes (input guards) and guidance directives carry
    path-condition expressions from the hive back to pods over the
    wire, so expressions need a compact serialization.  Sites, branch
    directions and syscall kinds appear in traces, frames and
    checkpoints alike; their codecs here are the only copies. *)

module Codec := Softborg_util.Codec

val write_expr : Codec.Writer.t -> Ir.expr -> unit

val read_expr : Codec.Reader.t -> Ir.expr
(** @raise Softborg_util.Codec.Malformed on invalid input.
    @raise Softborg_util.Codec.Truncated on premature end. *)

val write_site : Codec.Writer.t -> Ir.site -> unit
(** A site as its varint thread, then its varint pc: the one site
    layout of every wire frame and checkpoint. *)

val read_site : Codec.Reader.t -> Ir.site

val write_dir : Codec.Writer.t -> Ir.site * bool -> unit
(** A branch direction: its site, then the direction as a bool. *)

val read_dir : Codec.Reader.t -> Ir.site * bool

val write_syscall : Codec.Writer.t -> Ir.syscall_kind -> unit
(** A syscall kind as its one-byte tag. *)

val read_syscall : Codec.Reader.t -> Ir.syscall_kind
(** @raise Softborg_util.Codec.Malformed on an unknown tag. *)

val write_program : Codec.Writer.t -> Ir.t -> unit
(** Serialize a whole program — used by hive checkpoints, which must
    restore the knowledge base without assuming the program is still
    registered elsewhere. *)

val read_program : Codec.Reader.t -> Ir.t
(** @raise Softborg_util.Codec.Malformed on invalid input.
    @raise Softborg_util.Codec.Truncated on premature end. *)
