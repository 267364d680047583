(* The reference semantics of [Xam.Embed.eval] (§4.1): the evaluator the
   library used before it compiled patterns, kept verbatim in shape. It
   lists candidates, recomputes each subtree's schema per matched node,
   fully evaluates semi children, and deduplicates and re-sorts every
   result. Slow and plainly correct; the library's compiled evaluator must
   return exactly its [Rel.t] -- same schema, same tuples, same order. *)

module Doc = Xdm.Doc
module Rel = Xalgebra.Rel
module Value = Xalgebra.Value
module Pattern = Xam.Pattern
module Formula = Xam.Formula

let label_matches doc h = function
  | "*" -> Doc.kind doc h = Doc.Element
  | "@*" -> Doc.kind doc h = Doc.Attribute
  | "#text" -> Doc.kind doc h = Doc.Text
  | l when Pattern.label_is_attribute l ->
      Doc.kind doc h = Doc.Attribute && String.equal (Doc.label doc h) l
  | l -> Doc.kind doc h = Doc.Element && String.equal (Doc.label doc h) l

let doc_value doc h = Value.of_string_literal (Doc.value doc h)

let node_matches doc h (n : Pattern.node) =
  label_matches doc h n.label
  && (Formula.is_true n.formula || Formula.holds n.formula (doc_value doc h))

let candidates doc from (edge : Pattern.edge) =
  match (from, edge.axis) with
  | None, Pattern.Child -> [ Doc.root doc ]
  | None, Pattern.Descendant -> List.init (Doc.size doc) Fun.id
  | Some h, Pattern.Child -> Doc.children doc h
  | Some h, Pattern.Descendant -> Doc.descendants doc h

let attr_value doc h (n : Pattern.node) = function
  | Pattern.ID -> (
      match n.id_scheme with
      | Some scheme -> Value.Id (Doc.id scheme doc h)
      | None -> assert false)
  | Pattern.L -> Value.Str (Doc.label doc h)
  | Pattern.V -> doc_value doc h
  | Pattern.C -> Value.Str (Doc.content doc h)

(* Evaluate the subtree rooted at [t], matched at document node [h];
   returns the tuples over [Pattern.tree_schema t], or [] if the subtree
   cannot be embedded here. For schema-less subtrees the caller treats a
   single empty tuple as "embeddable". *)
let rec eval_tree doc (t : Pattern.tree) h : Rel.tuple list =
  if not (node_matches doc h t.node) then []
  else
    let own : Rel.tuple =
      Array.of_list
        (List.map (fun a -> Rel.A (attr_value doc h t.node a)) (Pattern.stored_attrs t.node))
    in
    let combine (partials : Rel.tuple list) (c : Pattern.tree) : Rel.tuple list =
      if partials = [] then []
      else
        let sub =
          List.concat_map (eval_tree doc c) (candidates doc (Some h) c.edge)
        in
        let sub_schema = schema_of_tree c in
        match c.edge.Pattern.sem with
        | Pattern.Semi -> if sub = [] then [] else partials
        | Pattern.Join ->
            if sub = [] then []
            else if sub_schema = [] then partials
            else
              List.concat_map
                (fun p -> List.map (fun s -> Rel.concat_tuples p s) sub)
                partials
        | Pattern.Outer ->
            if sub_schema = [] then partials
            else if sub = [] then
              List.map (fun p -> Rel.concat_tuples p (Rel.null_tuple sub_schema)) partials
            else
              List.concat_map
                (fun p -> List.map (fun s -> Rel.concat_tuples p s) sub)
                partials
        | Pattern.Nest_join ->
            if sub = [] then []
            else if sub_schema = [] then partials
            else
              let sub = Rel.dedup_tuples sub in
              List.map (fun p -> Array.append p [| Rel.N sub |]) partials
        | Pattern.Nest_outer ->
            if sub_schema = [] then partials
            else
              let sub = Rel.dedup_tuples sub in
              List.map (fun p -> Array.append p [| Rel.N sub |]) partials
    in
    List.fold_left combine [ own ] t.children

and schema_of_tree (t : Pattern.tree) =
  (* Mirrors Pattern.tree_schema for a subtree. *)
  let own =
    List.map (fun a -> Rel.atom (Pattern.attr_col t.node.Pattern.nid a))
      (Pattern.stored_attrs t.node)
  in
  let from_children =
    List.concat_map
      (fun (c : Pattern.tree) ->
        if c.edge.Pattern.sem = Pattern.Semi then []
        else if Pattern.nested_edge c.edge then
          let sub = schema_of_tree c in
          if sub = [] then [] else [ Rel.nested (Pattern.nest_col c.node.Pattern.nid) sub ]
        else schema_of_tree c)
      t.children
  in
  own @ from_children

let eval doc (pat : Pattern.t) =
  let root_results =
    List.map
      (fun (r : Pattern.tree) ->
        let tuples = List.concat_map (eval_tree doc r) (candidates doc None r.edge) in
        (schema_of_tree r, tuples))
      pat.roots
  in
  (* Multiple roots are structurally unrelated: their results combine by
     cartesian product (the ⊤ node joins them only at the document root). *)
  let schema, tuples =
    List.fold_left
      (fun (sch, ts) (s, sub) ->
        let sch' = Rel.concat_schemas sch s in
        if s = [] then (sch', if sub = [] then [] else ts)
        else
          ( sch',
            List.concat_map (fun t -> List.map (fun u -> Rel.concat_tuples t u) sub) ts ))
      ([], [ [||] ]) root_results
  in
  let result = Rel.make schema (Rel.dedup_tuples tuples) in
  if pat.Pattern.ordered then Rel.sort_doc_order result else result
