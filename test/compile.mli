(** Algebraic XAM semantics (§2.2.2): lower a pattern to a logical plan over
    the tag-derived collections of Def 2.2.1, producing a structural join
    tree isomorphic to the pattern. A test-suite module: the agreement
    tests check {!Xam.Embed.eval} and the physical executor against it.

    The plan realizes node identity with the (pre, post, depth) scheme —
    what Def 2.2.4 assumes when it joins on IDs — so [ID] columns in the
    result carry {!Xdm.Nid.Pre_post} identifiers regardless of the pattern's
    declared scheme. Use patterns with the [Structural] scheme when
    comparing against {!Xam.Embed.eval} (as the agreement tests do). *)

val collection_name : string -> string
(** [R:t] for element tags, [R:*], [Ra:a] for attribute names [@a],
    [Ra:*], [R:#text], and the singleton [R:doc] holding the virtual
    document node above the root. *)

val collection_schema : Xalgebra.Rel.schema
(** [(ID, Val, Tag, Cont)]. *)

val env : Xdm.Doc.t -> Xalgebra.Eval.env
(** Environment resolving every collection name over the document; built
    lazily and memoized per name. *)

val plan : Xam.Pattern.t -> Xalgebra.Logical.t
(** The Def 2.2.3/2.2.4/2.2.5 plan: per-node scans renamed to the
    pattern's column space, value-formula selections, bottom-up structural
    joins following each edge's axis and semantics, a final
    duplicate-eliminating projection onto the stored attributes that
    survive: none below a semi edge, whose semijoin keeps only its left
    input's columns. *)

val eval : Xdm.Doc.t -> Xam.Pattern.t -> Xalgebra.Rel.t
(** [Eval_oracle.run (env doc) (plan pat)]. *)
