(** Bounds-checked binary encoding primitives for snapshot files.

    Strings are length-prefixed, tags are single bytes, and integers are
    written one of two ways, chosen per stream when its writer or reader
    is created ({!ints}) and never per call: {!Fixed} 8-byte
    little-endian two's complement (snapshot headers and TOCs, sections
    of version 1 and 2 files, the WAL) or {!Varint} LEB128 (sections of
    version 3 snapshots), where a count, length or index below 128 takes
    one byte. The same codec function therefore reads and writes both.

    Every reader primitive validates against the slice bounds before
    touching memory and raises {!Corrupt} (never [Invalid_argument], never
    an allocation of attacker-controlled size) on malformed input: a
    length prefix is checked against the bytes actually remaining before
    any buffer is allocated. *)

exception Corrupt of string
(** A decode hit bytes that cannot be valid. Carries a human-readable
    reason; callers translate it into their own typed error at the
    snapshot boundary. *)

type ints =
  | Fixed  (** 8 bytes each, little-endian two's complement *)
  | Varint
      (** LEB128 over the 63 bits of an int: 7 bits a byte, low first, at
          most 9 bytes; a negative {!w_int} takes all 9, {!w_sint}
          zigzags small magnitudes of either sign into few. A varint that
          runs past 9 bytes overflows 63 bits and raises {!Corrupt}. *)
(** How a stream encodes its integers. *)

(** {1 Writing} *)

type writer

val writer : ?ints:ints -> unit -> writer
(** A writer that keeps everything written, for {!contents}. [ints]
    defaults to {!Fixed}. *)

val spilling : ?ints:ints -> (Bytes.t -> int -> unit) -> writer
(** A writer that keeps at most about 64 KiB of pending bytes:
    whenever they would overflow, and on {!flush}, it hands the pending
    bytes to the sink ([sink buf n]: the first [n] bytes of [buf], valid
    only during the call) and starts over. Streams a large payload to a
    file without holding it. *)

val writer_ints : writer -> ints

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
(** In the writer's {!ints} encoding; meant for counts, lengths,
    positions and indices, which are not negative. *)

val w_sint : writer -> int -> unit
(** A signed value: zigzag-then-LEB128 under {!Varint}, exactly {!w_int}
    under {!Fixed}. *)

val w_str : writer -> string -> unit
(** Length-prefixed bytes. *)

(** {1 Reading} *)

type reader

val reader : ?ints:ints -> ?pos:int -> ?len:int -> string -> reader
(** A cursor over a slice; raises {!Corrupt} if the slice is out of
    bounds. [ints] defaults to {!Fixed}. *)

val reader_ints : reader -> ints

val int_bytes : reader -> int
(** The fewest bytes one integer of this stream takes: 8 under {!Fixed},
    1 under {!Varint}. Count guards divide the bytes remaining by it. *)

val r_u8 : reader -> int
val r_bool : reader -> bool
val r_int : reader -> int
val r_sint : reader -> int
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
