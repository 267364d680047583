(** Bounds-checked binary encoding primitives for snapshot files.

    The encoding is deliberately plain: integers are fixed 8-byte
    little-endian two's complement, strings are length-prefixed, tags are
    single bytes. Snapshots are read back by the same build that writes
    them far more often than not, and when they are not, the format
    version in the file header gates compatibility — so the primitives
    optimize for auditability over density.

    Every reader primitive validates against the slice bounds before
    touching memory and raises {!Corrupt} (never [Invalid_argument], never
    an allocation of attacker-controlled size) on malformed input: a
    length prefix is checked against the bytes actually remaining before
    any buffer is allocated. *)

exception Corrupt of string
(** A decode hit bytes that cannot be valid. Carries a human-readable
    reason; callers translate it into their own typed error at the
    snapshot boundary. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer
(** A writer that keeps everything written, for {!contents}. *)

val spilling : (Bytes.t -> int -> unit) -> writer
(** A writer that keeps at most about 64 KiB of pending bytes:
    whenever they would overflow, and on {!flush}, it hands the pending
    bytes to the sink ([sink buf n]: the first [n] bytes of [buf], valid
    only during the call) and starts over. Streams a large payload to a
    file without holding it. *)

val flush : writer -> unit
(** Hand the pending bytes of a spilling writer to its sink now (no-op
    on a plain writer). *)

val contents : writer -> string
(** Everything written; raises [Invalid_argument] on a spilling
    writer. *)

val size : writer -> int
(** Bytes written so far, spilled ones included. *)

val w_u8 : writer -> int -> unit
(** Low 8 bits. *)

val w_bool : writer -> bool -> unit
val w_int : writer -> int -> unit
(** 8-byte little-endian two's complement. *)

val w_str : writer -> string -> unit
(** Length-prefixed bytes. *)

(** {1 Reading} *)

type reader

val reader : ?pos:int -> ?len:int -> string -> reader
(** A cursor over a slice; raises {!Corrupt} if the slice is out of
    bounds. *)

val r_u8 : reader -> int
val r_bool : reader -> bool
val r_int : reader -> int
val r_str : reader -> string
val remaining : reader -> int

val expect_end : reader -> unit
(** Raises {!Corrupt} unless the cursor consumed its slice exactly —
    trailing garbage in a section is corruption, not slack. *)

(** {1 Integrity} *)

val crc32 : ?crc:int -> ?pos:int -> ?len:int -> string -> int
(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a slice, as a
    non-negative int. [crc] (default 0) is the CRC of the bytes before
    the slice, so [crc32 ~crc:(crc32 a) b = crc32 (a ^ b)]: a stream can
    be checksummed piece by piece. *)
