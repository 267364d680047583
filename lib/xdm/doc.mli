(** Flattened XML documents.

    A document is the tree of §1.1 laid out in pre-order in a single array:
    one entry per element, attribute and text node, carrying the
    (pre, post, depth) labels of the traversal-based structural identifier
    scheme of §1.2.1. All structural predicates (parent, ancestor,
    precedes/follows) are decided by integer comparisons on those labels.

    Node handles are the pre-order ranks (array indices); [0] is the root
    element. *)

type kind = Element | Attribute | Text

type t

val of_tree : ?name:string -> Xml_tree.t -> t
(** Flatten a parsed tree. [name] is the document name (default ["doc"]).
    Attribute nodes are visited directly after their owning element, before
    its children; whitespace-only text was already dropped by the parser. *)

val of_string : ?name:string -> string -> t
(** [of_tree ∘ Xml_tree.parse]. *)

val name : t -> string
val size : t -> int
(** Total number of nodes. *)

val element_size : t -> int
val root : t -> int

(** {1 Per-node accessors} *)

val kind : t -> int -> kind
val label : t -> int -> string
(** Element tag, [@name] for attributes, [#text] for text nodes. *)

val pre : t -> int -> int
val post : t -> int -> int
(** Post-order rank, 1-based. Derived, not stored: the nodes closed by
    the time a node closes are those before its [subtree_end] except its
    [depth - 1] ancestors, so it is [subtree_end - depth + 1]. *)

val depth : t -> int -> int
val parent : t -> int -> int
(** [-1] on the root. *)

val ordinal : t -> int -> int
(** 1-based position among the parent's children (all kinds); 1 on the
    root. *)

val value : t -> int -> string
(** The node's value as defined in §1.1: text content for text nodes,
    the attribute value for attributes, and the concatenation of all text
    descendants (XPath [text()]) for elements. *)

val content : t -> int -> string
(** The node's content: serialization of the subtree rooted at the node
    (§1.1). *)

val subtree_end : t -> int -> int
(** [subtree_end d i] is one past the last descendant of [i]; the
    descendants of [i] are exactly the handles [i+1 .. subtree_end d i - 1]. *)

val to_tree : t -> int -> Xml_tree.t
(** Rebuild the parsed-tree form of the subtree rooted at a node. *)

(** {1 Structural predicates} *)

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor d a b]: is [a] a proper ancestor of [b]? *)

val is_parent : t -> int -> int -> bool

(** {1 Navigation} *)

val children : t -> int -> int list
val descendants : t -> int -> int list
val descendants_with_label : t -> int -> string -> int list
val nodes_with_label : t -> string -> int list
(** All handles carrying the given label, in document order (an index over
    the label column, built once on demand). *)

val labels : t -> string list
(** Distinct labels, in first-occurrence order. *)

val iter : (int -> unit) -> t -> unit

(** {1 Mutations}

    Functional updates: each returns a new document with one edit
    applied; the input is untouched. A document is stored by column (one
    array per field), and the new version shares every column the edit
    does not change:
    - {!update_value} copies the value column (pointers only) and shares
      the rest; handles and labels are unchanged, so the label index
      carries over;
    - {!delete_subtree} and {!insert_subtree} copy each column around the
      edit point and adjust only what moved: the subtree ends of the
      edit point's ancestors and, after it, subtree ends and parents (by
      the edit's size) and following siblings' ordinals (by one); an
      insert lays the grafted tree out in place, as {!of_tree} would.
    Post-order ranks are derived from the subtree end and depth, so no
    edit has to renumber them. Node handles are pre-order ranks and are
    therefore {b not stable} across structural edits — re-resolve any
    held handles against the returned document. All three raise
    [Invalid_argument] on handles that are out of range or of the wrong
    kind. *)

val insert_subtree : t -> parent:int -> ?before:int -> Xml_tree.t -> t
(** Graft a parsed subtree under element [parent]: before child [before]
    when given (which must be a non-attribute child of [parent]),
    appended after the last child otherwise. *)

val delete_subtree : t -> int -> t
(** Remove the node and its whole subtree. The root cannot be deleted. *)

val update_value : t -> int -> string -> t
(** Replace the value of a text or attribute node (elements have no
    stored value of their own). *)

(** One edit of a batch ({!apply_edits}). *)
type edit =
  | Insert of { parent : int; before : int option; tree : Xml_tree.t }
      (** {!insert_subtree} *)
  | Delete of int  (** {!delete_subtree} *)
  | Update of int * string  (** {!update_value} *)

val apply_edits : t -> edit Seq.t -> t
(** The edits applied in order, each one's handles resolved against the
    document the previous ones produced: the document a fold of the
    single-edit functions would return, raising the same
    [Invalid_argument] on the first edit that does not apply. Each edit
    is taken from the sequence only once the one before it has passed
    its checks, so whatever produces it (an XML parse, say) fails in
    order too. The
    single-edit functions are one-edit batches. The batch edits one
    working copy: updates before any structural edit copy the value
    column once and keep the label index; a structural edit that does
    not fit the copy (the first one always) copies every column around
    its edit point into fresh arrays, exact for the last edit and with
    an eighth more room than it needs otherwise, and later ones shift
    nodes within those arrays. The arrays never run
    more than an eighth past the batch's peak length, and a result more
    than half spare is cut to its length. *)

(** {1 Identifiers} *)

val id : Nid.scheme -> t -> int -> Nid.t
(** The node's persistent identifier under the chosen labeling scheme. *)

val handle_of_id : t -> Nid.t -> int option
(** Inverse of {!id}; [None] if the identifier does not denote a node of
    this document. *)

val handle_index : t -> Nid.t -> int
(** {!handle_of_id} without the option: [-1] if the identifier does not
    denote a node of this document. *)

(** {1 Columns}

    A document is stored by column; {!of_columns} rebuilds one from its
    columns, which is how binary persistence ([lib/xpersist]) reopens a
    snapshot: node handles (pre-order ranks) and every (pre, post, depth)
    label survive a save/reopen byte-identically — no re-parse, no
    re-flattening. The per-node accessors above read the columns back
    ({!value} of a text or attribute node is its stored value; elements
    store none). *)

val of_columns :
  name:string ->
  kinds:kind array ->
  labels:string array ->
  values:string array ->
  depths:int array ->
  parents:int array ->
  ordinals:int array ->
  ends:int array ->
  posts:int array ->
  t
(** The document whose handle [i] has kind [kinds.(i)], label
    [labels.(i)], stored value [values.(i)], and so on; [parents.(0)] is
    [-1] and [ends] holds the subtree ends. The arrays become the
    document's own and must not be written afterwards. [posts], the
    stored post-order ranks, is checked and dropped (they are derived). Checks, in one pass, the structural invariants the
    accessors rely on: the columns have one length, each node's parent is
    the innermost node still open at it, subtree ends are nested within
    the parent's, depths follow the parent chain, each post is
    [subtree_end - depth + 1], text and attribute nodes are leaves,
    attributes are labelled [@name] and precede their element's other
    children, elements store no value, and ordinals are the 1-based rank
    among siblings. Raises [Invalid_argument] when one does not hold —
    corrupted input never produces a document whose structural
    predicates disagree or that crashes later. *)
