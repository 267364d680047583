(** Logical algebra for XML processing (§1.2.2).

    Plans are built over named base relations (materialized views, storage
    structures, tag-derived collections — resolved by the evaluation
    environment) with selections, projections, products, value joins and the
    structural-join family: join / left outerjoin / left semijoin / nest join
    / nest outerjoin, over the parent-child or ancestor-descendant axes.

    Nested columns are addressed by dotted paths; operators applied to nested
    paths follow the map meta-operator semantics. *)

type join_kind = Inner | LeftOuter | Semi | NestJoin | NestOuter

type axis = Child | Descendant

(** XML tagging templates for the [xml] construction operator. [T_foreach]
    iterates the tuples of a nested collection, evaluating its body with
    column paths relative to the inner tuple. *)
type template =
  | T_tag of string * template list
  | T_col of Rel.path
  | T_text of string
  | T_foreach of Rel.path * template

type t =
  | Scan of string
  | Table of Rel.t
  | Select of Pred.t * t
  | Project of { cols : Rel.path list; dedup : bool; input : t }
  | Product of t * t
  | Join of { kind : join_kind; pred : Pred.t; nest_as : string; left : t; right : t }
  | Struct_join of {
      kind : join_kind;
      axis : axis;
      lpath : Rel.path;
      rpath : Rel.path;
      nest_as : string;  (** nested-column name for [NestJoin]/[NestOuter] *)
      left : t;
      right : t;
    }
  | Union of t * t
  | Diff of t * t
  | Rename of (string * string) list * t
      (** Rename top-level columns ([(old, new)] pairs). *)
  | Reorder of int list * t
      (** Positional projection/permutation of the top-level columns; used
          to align the branches of a union rewriting. *)
  | Extract of {
      src : Rel.path;  (** a top-level column holding serialized XML content *)
      steps : (axis * string) list;  (** navigation from the fragment root *)
      mode : [ `Value | `Content ];
      kind : join_kind;  (** Inner drops tuples without a hit; LeftOuter pads
          with ⊥; NestJoin/NestOuter nest the hits; Semi filters *)
      out : string;  (** new column (nested-column name for nest kinds) *)
      input : t;
    }
      (** Navigate inside stored content — the compensation that re-extracts
          descendants from a view's [Cont] attribute (§5.2's keyword
          example). *)
  | Derive of {
      src : Rel.path;  (** a top-level column holding parental (Dewey) IDs *)
      levels : int;
      out : string;
      input : t;
    }
      (** Compute the [levels]-th ancestor's identifier from a navigational
          structural ID (§5.2's "derive the ID of their parent description
          nodes"); ⊥ when the scheme does not support it. *)
  | Nest of { cname : string; input : t }
      (** Pack the whole input into one tuple holding one nested collection
          (the [n] operator used when translating element constructors). *)
  | Unnest of Rel.path * t
  | Sort of Rel.path * t
  | Xml of template * t

type env_schema = string -> Rel.schema option

val inputs : t -> t list
(** The operator's input plans, left to right; none for [Scan] and
    [Table]. *)

val output_schema : t -> Rel.schema list -> Rel.schema
(** The output schema of the plan's top operator, given the schemas of its
    {!inputs} in order. Raises [Invalid_argument] on a [Scan] (its schema
    is the environment's), on a wrong number of input schemas and on
    dangling paths. *)

val schema : env_schema -> t -> Rel.schema
(** Output schema inference; raises [Invalid_argument] on ill-formed plans
    (unknown scans, dangling paths). *)

val size : t -> int
(** Number of operators, the minimality measure of §5.3. *)

val scans : t -> string list
(** Names of base relations used, with duplicates. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
