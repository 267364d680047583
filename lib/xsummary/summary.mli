(** XML path summaries (strong DataGuides, §4.2.1) and their enhanced form
    carrying integrity constraints (§4.2.2).

    A summary [S(D)] is a tree with one node per distinct rooted path of the
    document [D]; the function φ mapping document nodes to their path
    preserves labels and parent/child edges. Summary nodes are identified by
    integer path ids; [0] is the root path.

    In the enhanced form each edge [x → y] carries a cardinality:
    - [One] (“1”): every document node on path [x] has exactly one child on
      path [y] (a {e one-to-one} edge);
    - [Plus] (“+”): every such node has at least one child on [y] (a
      {e strong} edge);
    - [Star]: no constraint. *)

type card = One | Plus | Star

type t

val build : Xdm.Doc.t -> t * int array
(** [build d] computes the enhanced summary of [d] together with the
    φ mapping: an array giving each document node's path id. *)

val of_doc : Xdm.Doc.t -> t
val size : t -> int
val root : t -> int
val label : t -> int -> string
val parent : t -> int -> int
(** [-1] on the root path. *)

val children : t -> int -> int list
val depth : t -> int -> int
(** Root = 1. *)

val card : t -> int -> card
(** Cardinality annotation of the edge entering the node ({!One} on the
    root). *)

val count : t -> int -> int
(** Number of document nodes on the path — the per-path statistics tree
    patterns are the common abstraction for (§1.2.4). Summaries built by
    {!of_edges} carry count 0. *)

val subtree_end : t -> int -> int
(** Path ids are assigned in pre-order; descendants of [p] are
    [p+1 .. subtree_end t p - 1]. *)

val descendants : t -> int -> int list
val is_ancestor : t -> int -> int -> bool
val is_parent : t -> int -> int -> bool
val child_with_label : t -> int -> string -> int option
val nodes_with_label : t -> string -> int list
val path_string : t -> int -> string
(** E.g. ["/site/people/person"]. *)

val find_path : t -> string list -> int option
(** Look a rooted label path up, e.g. [find_path s ["site"; "people"]]. *)

val strong_edge_count : t -> int
(** Number of [Plus] or [One] edges (the n_s column of Fig 4.13). *)

val one_edge_count : t -> int
(** Number of [One] edges (the n_1 column of Fig 4.13). *)

val one_to_one_chain : t -> int -> int -> bool
(** [one_to_one_chain s a b]: [a] is an ancestor-or-self of [b] and every
    edge on the path from [a] down to [b] is one-to-one. Used to relax the
    nesting-sequence condition of Prop 4.4.4. *)

val conforms : t -> Xdm.Doc.t -> bool
(** [S ⊨ D]: the document's summary is exactly [S] and [D] satisfies all the
    edge-cardinality constraints. *)

val same_shape : t -> t -> bool
(** Equal (label, parent, card) rows in path-id order; per-path counts
    are ignored. Two summaries of the same shape admit exactly the same
    path annotations, containments and rewritings, whatever the data
    (§4.2). Allocates nothing. *)

val export : t -> (string * int * card * int) array
(** The summary as [(label, parent, card, count)] rows in path-id
    (pre-order) order — the raw form binary persistence stores. Unlike
    {!of_edges}, the per-path occurrence counts survive. *)

val import : (string * int * card * int) array -> t
(** Inverse of {!export}. Raises [Invalid_argument] when the rows are
    not a valid pre-order tree (first row the root with parent [-1],
    every other parent strictly before its child). *)

val of_edges : (int * string * card) list -> t
(** Build a summary directly from [(parent, label, card)] triples listed in
    pre-order; entry [i] describes path id [i+1] (the root is implicit, with
    the label of... no — the first triple must have parent [-1] and gives the
    root). Used by workload generators and tests. *)

val pp : Format.formatter -> t -> unit
