(* A document as one record per node, in handle order: the shape of a
   snapshot's document section, kept as a test fixture so a test can
   forge one field of one node and check that [Doc.of_columns] rejects
   it. [unpack] goes through [Doc.of_columns], the one validation path
   the snapshot reader uses too. *)

module Doc = Xdm.Doc

type packed_node = {
  p_post : int;
  p_depth : int;
  p_parent : int;  (** [-1] on the root *)
  p_ordinal : int;
  p_kind : Doc.kind;
  p_label : string;
  p_value : string;  (** the stored value: [""] on elements *)
  p_subtree_end : int;
}

let pack d =
  Array.init (Doc.size d) (fun i ->
      let p_kind = Doc.kind d i in
      { p_post = Doc.post d i; p_depth = Doc.depth d i; p_parent = Doc.parent d i;
        p_ordinal = Doc.ordinal d i; p_kind; p_label = Doc.label d i;
        p_value = (if p_kind = Doc.Element then "" else Doc.value d i);
        p_subtree_end = Doc.subtree_end d i })

let unpack ~name packed =
  let column f = Array.map f packed in
  Doc.of_columns ~name ~kinds:(column (fun p -> p.p_kind))
    ~labels:(column (fun p -> p.p_label)) ~values:(column (fun p -> p.p_value))
    ~depths:(column (fun p -> p.p_depth)) ~parents:(column (fun p -> p.p_parent))
    ~ordinals:(column (fun p -> p.p_ordinal)) ~ends:(column (fun p -> p.p_subtree_end))
    ~posts:(column (fun p -> p.p_post))
