(** Evaluation environments and the per-tuple kernels of the algebra
    (§1.2.2–1.2.3).

    {!Physical} is the one plan executor; it builds its operators from the
    kernels below. Each kernel is staged: applied to the input schema (and
    the operator's parameters) once, it returns the function applied to
    every tuple. *)

type env = string -> Rel.t option

exception Unknown_relation of string

val env_of_list : (string * Rel.t) list -> env
(** The first binding of a name wins. *)

val build_matcher :
  Logical.axis -> Rel.schema -> Rel.path -> Rel.tuple list -> Value.t -> Rel.tuple list
(** [build_matcher axis rsch rpath rights] indexes the right input of a
    structural join on the identifiers at [rpath] and returns the lookup
    giving, for a left identifier, the right tuples that are its
    children/descendants. When every identifier is a (pre, post, depth) or
    Dewey label the rights are sorted by document order once and each
    lookup is a binary search to a contiguous run, returned in document
    order; otherwise the lookup tests every right tuple and returns the
    matches in right-input order. *)

val select : Rel.schema -> Pred.t -> Rel.tuple -> Rel.tuple option
(** Selection under map semantics: a predicate over a single nested path
    reduces the nested collections it traverses, and a tuple survives iff
    some reachable binding satisfies it; any other predicate filters. *)

val combine :
  Logical.join_kind -> null_right:Rel.tuple -> Rel.tuple -> Rel.tuple list -> Rel.tuple list
(** [combine kind ~null_right lt matches]: the output of a join of kind
    [kind] for one left tuple and its matching right tuples — one
    concatenation per match ([Inner]), padded with [null_right] when none
    match ([LeftOuter]), [lt] itself when some match ([Semi]), or [lt]
    extended with the matches as one nested collection ([NestJoin] drops
    [lt] when none match, [NestOuter] keeps it). *)

val struct_expand :
  Logical.join_kind ->
  Rel.schema ->
  Rel.path ->
  null_right:Rel.tuple ->
  (Value.t -> Rel.tuple list) ->
  Rel.tuple ->
  Rel.tuple list
(** [struct_expand kind lsch lpath ~null_right matcher]: a structural join's
    output for one left tuple, given the {!build_matcher} lookup. [Inner]
    and [LeftOuter] need a top-level [lpath]; [Semi] keeps a left tuple
    when any identifier reachable through [lpath] has a match; the nest
    kinds graft the matches beside the key inside the collection [lpath]
    descends into (map semantics). *)

val extract :
  Rel.schema ->
  src:Rel.path ->
  steps:(Logical.axis * string) list ->
  mode:[ `Value | `Content ] ->
  Logical.join_kind ->
  Rel.tuple ->
  Rel.tuple list
(** The [Extract] operator on one tuple: parse the XML content at [src],
    navigate [steps] and {!combine} the hits as one-column right tuples. *)

val derive : Rel.schema -> src:Rel.path -> levels:int -> Rel.tuple -> Rel.tuple
(** The [Derive] operator on one tuple: append the [levels]-th ancestor of
    the identifier at [src], ⊥ when the scheme cannot derive it. *)

val unnest : Rel.schema -> Rel.path -> Rel.tuple -> Rel.tuple list
(** The [Unnest] operator on one tuple (top-level paths only): the other
    columns concatenated with each tuple of the nested collection. *)

val stage_template : Rel.schema -> Logical.template -> Buffer.t -> Rel.tuple -> unit
(** [stage_template schema template] is the [Xml] operator's kernel:
    applied to one input tuple it appends the template's expansion to the
    buffer. Every hole and [T_foreach] path is resolved to column indices
    once, here; a [T_foreach] body sees the enclosing tuples' columns as
    well as the inner tuple's (the first column of a name, outermost
    first, wins), without building any extended schema or tuple per inner
    tuple. Raises [Invalid_argument] at staging on a name not in scope or
    a path that crosses an atomic column. *)
