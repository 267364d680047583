(** Binary codecs for the engine's value and structure types.

    One [w_]/[r_] pair per type, layered on {!Binio}. Readers raise
    {!Binio.Corrupt} on any malformed input — a tag byte outside its
    range, a formula that does not parse back, a node array violating the
    document invariants — so a snapshot decode either yields a value the
    rest of the engine can trust or fails atomically at the section
    boundary.

    Every codec works on both integer encodings of {!Binio.ints}; the
    stream decides. The document is the one exception: its layout
    changed with snapshot version 3, and it follows the stream too. *)

val w_nid : Binio.writer -> Xdm.Nid.t -> unit
val r_nid : Binio.reader -> Xdm.Nid.t

val w_value : Binio.writer -> Xalgebra.Value.t -> unit
val r_value : Binio.reader -> Xalgebra.Value.t

val w_rel : Binio.writer -> Xalgebra.Rel.t -> unit
val r_rel : Binio.reader -> Xalgebra.Rel.t

val w_pattern : Binio.writer -> Xam.Pattern.t -> unit
val r_pattern : Binio.reader -> Xam.Pattern.t

val w_summary : Binio.writer -> Xsummary.Summary.t -> unit
val r_summary : Binio.reader -> Xsummary.Summary.t

val w_doc : Binio.writer -> Xdm.Doc.t -> unit
(** The version 3 layout: the name, a table of distinct labels, then per
    node its kind, label index, value (attributes and text only) and
    subtree end relative to the node. Raises [Invalid_argument] on a
    {!Binio.Fixed} writer, whose streams hold the older layout. *)

val r_doc : Binio.reader -> Xdm.Doc.t
(** The version 3 layout from a {!Binio.Varint} reader, deriving
    parent, depth, ordinal and post from the subtree ends; the version 1
    and 2 layout (every column stored) from a {!Binio.Fixed} one. Both
    validate through [Doc.of_columns]. *)
