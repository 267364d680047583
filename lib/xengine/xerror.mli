(** The engine's typed error taxonomy.

    Every failure a query can encounter — malformed input, a pattern no
    view can answer, a planner bug, a faulty storage module, an exhausted
    resource budget — is classified into one {!t} constructor at the layer
    it arose in. The [result]-returning engine boundaries
    ({!Engine.query_r}, {!Engine.query_string_r}) never raise: whatever
    happens below them comes back as a value of this type.

    A caller that wants an exception instead unwraps with {!get_exn}. *)

type dimension = Deadline | Tuples | Steps

type t =
  | Parse_error of string  (** XQuery text did not parse *)
  | Extract_error of string  (** pattern extraction failed / unsupported *)
  | No_rewriting of string  (** the views cannot answer the pattern *)
  | Plan_error of string  (** rewriter or cost model failed internally *)
  | Exec_error of string  (** physical execution failed internally *)
  | Storage_fault of { module_name : string; reason : string }
      (** a storage module failed and no recovery remained *)
  | Catalog_invalid of { module_name : string; reason : string }
      (** a catalog module's pattern references paths absent from the
          summary *)
  | Budget_exceeded of { dimension : dimension; limit : float }
      (** the query ran out of its resource budget *)
  | Snapshot_error of { path : string; reason : string }
      (** a persisted snapshot could not be written, or failed
          verification on open (bad magic, version, checksum, truncation,
          malformed section) *)
  | Update_invalid of string
      (** a document mutation was rejected before taking effect (bad
          handle, wrong node kind, unparsable inserted XML) *)
  | Wal_error of { path : string; reason : string }
      (** the write-ahead log could not be appended to, replayed, or
          truncated — including fail-closed mid-log corruption and LSN
          gaps discovered during recovery *)

exception Error of t
(** Raised by {!get_exn} and by the engine constructors that cannot
    return a result. A printer is registered, so uncaught escapes remain
    readable. *)

val get_exn : ('a, t) result -> 'a
(** The [Ok] value; raises {!Error} on [Error]. *)

val of_dimension : Xalgebra.Physical.budget_dimension -> dimension
val dimension_string : dimension -> string

val stage : t -> string
(** The pipeline stage the error belongs to: ["parse"], ["extract"],
    ["rewrite"], ["plan"], ["execute"], ["storage"], ["catalog"],
    ["budget"], ["snapshot"], ["update"], ["wal"]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
