(** Nested relations: ordered collections of tuples whose fields are atomic
    values or nested collections of homogeneous tuples, in strict alternation
    (§1.2.2). *)

type schema = column list
and column = { cname : string; ctype : ctype }
and ctype = Atom | Nested of schema

type field = A of Value.t | N of tuple list
and tuple = field array

type t = { schema : schema; tuples : tuple list }

type path = string list
(** A dotted column address, e.g. [["A1"; "A11"]] for [A1.A11]; every
    component but possibly the last names a nested column. *)

val atom : string -> column
val nested : string -> schema -> column
val empty : schema -> t
val make : schema -> tuple list -> t
val cardinality : t -> int

val col_index : schema -> string -> int
(** Raises [Not_found] with a descriptive [Invalid_argument] when absent. *)

val find_col : schema -> string -> (int * column) option

val resolve : schema -> path -> ctype
(** Type of the column a path addresses. Raises [Invalid_argument] if the
    path is dangling. *)

val mem_path : schema -> path -> bool

val atom_field : tuple -> int -> Value.t
(** Raises [Invalid_argument] on a nested field. *)

val nested_field : tuple -> int -> tuple list

val concat_tuples : tuple -> tuple -> tuple
val concat_schemas : schema -> schema -> schema
val null_tuple : schema -> tuple
(** All-⊥ tuple of a schema (nested columns become empty collections). *)

val prefix_schema : string -> schema -> schema
(** Prefix every top-level column name, e.g. ["v1"] turns [ID] into
    [v1.ID]... no dots are added; names become ["v1:ID"]. *)

val atoms_of_path : schema -> tuple -> path -> Value.t list
(** All atomic values reachable through a (possibly nested) path — the
    existential-semantics reading used by the map meta-operator. *)

val project : schema -> path list -> dedup:bool -> tuple list -> t
(** Top-level and nested projection; each path keeps its last component as
    the output column name. *)

val project_tuple : dedup:bool -> schema -> path list -> tuple -> tuple
(** {!project} on one tuple, without the top-level duplicate elimination
    ([dedup] still deduplicates the nested collections it projects).
    Staged: the paths are resolved once, before any tuple. *)

val dedup_tuples : tuple list -> tuple list
(** Order-preserving duplicate elimination: keeps the first of every group
    of tuples equal under {!equal_tuple}, however their fields are shared
    physically. *)

module Tuple_table : Hashtbl.S with type key = tuple
(** Hash tables keyed by tuples under {!equal_tuple} and a structural
    hash consistent with it, whatever the fields' physical sharing. *)

val equal_tuple : tuple -> tuple -> bool
val compare_tuple : tuple -> tuple -> int
val sort_by : schema -> path -> t -> t
val union : t -> t -> t
val difference : t -> t -> t

val sort_doc_order : t -> t
(** Order tuples (and, recursively, nested collections) lexicographically;
    identifier columns compare in document order, so relations whose
    leading columns are identifiers come out document-ordered — the
    ordered-XAM (o flag) reading. *)

val equal_unordered : t -> t -> bool
(** Same schema shape and same bag of tuples, ignoring order (used by
    tests comparing the two pattern semantics). *)

val pp : Format.formatter -> t -> unit
val pp_tuple : Format.formatter -> tuple -> unit
val schema_to_string : schema -> string
