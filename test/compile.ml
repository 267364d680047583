module Doc = Xdm.Doc
module Pattern = Xam.Pattern
module Formula = Xam.Formula
module Rel = Xalgebra.Rel
module Value = Xalgebra.Value
module Pred = Xalgebra.Pred
module Logical = Xalgebra.Logical
module Eval = Xalgebra.Eval

let collection_name = function
  | "doc" -> "R:doc"
  | "*" -> "R:*"
  | "#text" -> "R:#text"
  | l when Pattern.label_is_attribute l ->
      if String.equal l "@*" then "Ra:*"
      else "Ra:" ^ String.sub l 1 (String.length l - 1)
  | l -> "R:" ^ l

let collection_schema = [ Rel.atom "ID"; Rel.atom "Val"; Rel.atom "Tag"; Rel.atom "Cont" ]

let node_tuple doc h =
  [| Rel.A (Value.Id (Doc.id Xdm.Nid.Structural doc h));
     Rel.A (Value.of_string_literal (Doc.value doc h));
     Rel.A (Value.Str (Doc.label doc h));
     Rel.A (Value.Str (Doc.content doc h)) |]

let doc_node_tuple doc =
  [| Rel.A (Value.Id (Xdm.Nid.Pre_post { pre = -1; post = Doc.size doc + 1; depth = 0 }));
     Rel.A Value.Null; Rel.A (Value.Str "#doc"); Rel.A Value.Null |]

let env doc =
  let cache : (string, Rel.t) Hashtbl.t = Hashtbl.create 16 in
  let handles_of = function
    | "R:doc" -> None
    | "R:*" ->
        Some
          (List.filter (fun h -> Doc.kind doc h = Doc.Element)
             (List.init (Doc.size doc) Fun.id))
    | "R:#text" -> Some (Doc.nodes_with_label doc "#text")
    | "Ra:*" ->
        Some
          (List.filter (fun h -> Doc.kind doc h = Doc.Attribute)
             (List.init (Doc.size doc) Fun.id))
    | name when String.length name > 3 && String.sub name 0 3 = "Ra:" ->
        Some (Doc.nodes_with_label doc ("@" ^ String.sub name 3 (String.length name - 3)))
    | name when String.length name > 2 && String.sub name 0 2 = "R:" ->
        let tag = String.sub name 2 (String.length name - 2) in
        Some
          (List.filter (fun h -> Doc.kind doc h = Doc.Element)
             (Doc.nodes_with_label doc tag))
    | _ -> None
  in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some r -> Some r
    | None ->
        let rel =
          if String.equal name "R:doc" then
            Some (Rel.make collection_schema [ doc_node_tuple doc ])
          else
            Option.map
              (fun handles ->
                Rel.make collection_schema (List.map (node_tuple doc) handles))
              (handles_of name)
        in
        Option.iter (Hashtbl.add cache name) rel;
        rel

let renames nid =
  [ ("ID", Pattern.attr_col nid Pattern.ID);
    ("Val", Pattern.attr_col nid Pattern.V);
    ("Tag", Pattern.attr_col nid Pattern.L);
    ("Cont", Pattern.attr_col nid Pattern.C) ]

let join_kind = function
  | Pattern.Join -> Logical.Inner
  | Pattern.Outer -> Logical.LeftOuter
  | Pattern.Semi -> Logical.Semi
  | Pattern.Nest_join -> Logical.NestJoin
  | Pattern.Nest_outer -> Logical.NestOuter

let join_axis = function
  | Pattern.Child -> Logical.Child
  | Pattern.Descendant -> Logical.Descendant

let rec plan_of_tree (t : Pattern.tree) =
  let nid = t.node.Pattern.nid in
  let base = Logical.Rename (renames nid, Logical.Scan (collection_name t.node.label)) in
  let base =
    if Formula.is_true t.node.Pattern.formula then base
    else
      Logical.Select
        (Formula.to_pred [ Pattern.attr_col nid Pattern.V ] t.node.Pattern.formula, base)
  in
  List.fold_left
    (fun acc (c : Pattern.tree) ->
      Logical.Struct_join
        { kind = join_kind c.edge.Pattern.sem;
          axis = join_axis c.edge.Pattern.axis;
          lpath = [ Pattern.attr_col nid Pattern.ID ];
          rpath = [ Pattern.attr_col c.node.Pattern.nid Pattern.ID ];
          nest_as = Pattern.nest_col c.node.Pattern.nid;
          left = acc;
          right = plan_of_tree c })
    base t.children

let plan (pat : Pattern.t) =
  let root_plan idx (r : Pattern.tree) =
    let doc_col = Printf.sprintf "IDdoc%d" idx in
    Logical.Struct_join
      { kind = Logical.Inner;
        axis = join_axis r.edge.Pattern.axis;
        lpath = [ doc_col ];
        rpath = [ Pattern.attr_col r.node.Pattern.nid Pattern.ID ];
        nest_as = "";
        left = Logical.Rename ([ ("ID", doc_col) ], Logical.Scan "R:doc");
        right = plan_of_tree r }
  in
  let joined =
    match List.mapi root_plan pat.roots with
    | [] -> invalid_arg "Compile.plan: empty pattern"
    | first :: rest -> List.fold_left (fun acc p -> Logical.Product (acc, p)) first rest
  in
  (* A semijoin keeps only its left input's columns, so the attributes
     stored below a semi edge do not survive to the projection. *)
  let rec surviving (t : Pattern.tree) =
    t.node
    :: List.concat_map
         (fun (c : Pattern.tree) -> if c.edge.sem = Pattern.Semi then [] else surviving c)
         t.children
  in
  let cols =
    List.concat_map
      (fun (n : Pattern.node) ->
        List.map (fun a -> Pattern.col_path pat n.nid a) (Pattern.stored_attrs n))
      (List.concat_map surviving pat.roots)
  in
  Logical.Project { cols; dedup = true; input = joined }

let eval doc pat = Eval_oracle.run (env doc) (plan pat)
