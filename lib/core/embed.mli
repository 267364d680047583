(** Embedding-based XAM semantics (§4.1), evaluated directly over a
    document.

    The result of a pattern [p] over a document [d] is the set (list, in
    document order of enumeration) of tuples collecting the stored
    attributes of [p]'s return nodes under every embedding of [p] in [d] —
    with the optional-edge (3b) and nested-edge extensions. The output
    schema is {!Pattern.schema}. The test suite's [Compile]
    ([test/compile.ml]) produces algebraic plans whose evaluation must
    agree with it.

    The reference semantics lives in the test suite ([test/embed_oracle.ml]):
    a direct transcription of the definition that lists candidates,
    deduplicates every collection and sorts every ordered result. This
    evaluator must return exactly its relation — same schema, same tuples,
    same order. It compiles the pattern once (label tests, formulas,
    stored attributes, subtree schemas and null tuples) and walks the
    document's columns:

    - {b candidates}: a [//name] root reads {!Xdm.Doc.nodes_with_label};
      a [/] root is the document root; [//*], [//@*] and [//#text] roots
      scan every handle. Below a matched node, children are found by
      hopping subtree ends and descendants are the subtree's handle range;
      no candidate list is built.
    - {b filters}: a semi child, and a mandatory child that stores
      nothing, only decide whether the parent embeds; the search stops at
      the first embedding. An optional child that stores nothing is
      skipped.
    - {b elided deduplication and sorting}: a level is the set of nodes
      whose columns end up in one tuple (a nested edge starts a new level).
      A node is {e keyed} when it stores an ID; or when its incoming edge
      is [/] and its first column is the ID of a descendant reached through
      join edges only (its candidates are siblings, so that ID tells them
      apart); or when it is a [/] root (one candidate). Candidates are
      enumerated in document order, which {!Xdm.Nid.compare} follows for
      every scheme, so a level whose nodes are all keyed yields distinct
      tuples, already sorted. Such a collection is not deduplicated, and
      an ordered result whose levels all qualify is not re-sorted; any
      other collection is deduplicated and sorted as the reference does.
    - {b pass-through nodes}: a node that stores no attribute and whose
      only child with columns is a mandatory, flattened child filling all
      of its columns (the inner steps of a [/library/book/author] chain)
      returns that child's tuples as they come, once its filtering
      children hold, without copying them into tuples of its own. *)

val eval : Xdm.Doc.t -> Pattern.t -> Xalgebra.Rel.t
(** Evaluate the pattern. Duplicate result tuples are eliminated (the Π°
    of Def 2.2.3); an ordered pattern's result is in document order
    ({!Xalgebra.Rel.sort_doc_order}). *)

val pass_through : Pattern.t -> int list
(** The nids of the nodes {!eval} evaluates as pass-through nodes, in
    pattern pre-order. For tests and diagnostics. *)
