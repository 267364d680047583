module Doc = Xdm.Doc
module Rel = Xalgebra.Rel
module Value = Xalgebra.Value

(* --- Compilation ---------------------------------------------------------
   A pattern is compiled once per evaluation into a tree that holds
   everything the per-node work needs precomputed: the label test, the
   formula (absent when it is T), the stored attributes, the subtree's
   schema and null tuple, and how each child contributes to its parent's
   tuples. *)

type test =
  | Any_element
  | Any_attribute
  | Any_text
  | Element_named of string
  | Attribute_named of string

type node = {
  nid : int;
  test : test;
  axis : Pattern.axis;
  formula : Formula.t option;
  attrs : Pattern.attr array;
  scheme : Xdm.Nid.scheme option;
  width : int;  (* columns of [schema] *)
  schema : Rel.schema;
  null : Rel.tuple;
  leads_with_id : bool;
      (* The first column is an ID, of the node itself or of a node below
         it reached through join edges only, so it is never ⊥. *)
  distinct : bool;
      (* Distinct embeddings of the node and of the nodes whose columns are
         flattened into its tuples give distinct tuples, in
         [Rel.compare_tuple] order. *)
  exact : bool;  (* [distinct] here and in every nested collection below *)
  children : child array;
  through : bool;
      (* The node stores no attribute and its only placed child is a
         mandatory [Flat] child filling all its columns: its tuples are
         that child's, passed through when the [Exists] children hold. *)
}

(* How a child's embeddings under a matched parent shape the parent's
   tuples: [Exists] only filters (semi edges, and children without
   columns); [Flat] splices the child's columns in at [at], one parent
   tuple per child tuple; [Nest] stores the child's tuples as one nested
   field at [at]. An optional child never filters. *)
and child = { node : node; use : use; at : int }
and use = Exists | Flat of bool | Nest of bool  (* optional *)

let test_of_label = function
  | "*" -> Any_element
  | "@*" -> Any_attribute
  | "#text" -> Any_text
  | l when Pattern.label_is_attribute l -> Attribute_named l
  | l -> Element_named l

(* When is a node [keyed], i.e. are its embeddings told apart, and
   ordered, by its leading column? Take two embeddings and the first node,
   in pattern pre-order, where they differ: every node before it, its
   parent included, sits at the same handle in both, so everything before
   its columns is equal. If it stores an ID, that ID comes first in its
   columns and decides, in document order. If it does not, but its
   incoming edge is [/] and its first column is the ID of a join
   descendant, its two handles are siblings with disjoint subtrees and
   that descendant's two IDs decide the same way. A [/] root has a single
   candidate, so it never differs at all. Candidates are enumerated in
   document order with the first child outermost, so when every node of a
   level is keyed its tuples come out distinct and sorted. *)
let rec compile ~root (t : Pattern.tree) : node =
  let n = t.node in
  let attrs = Array.of_list (Pattern.stored_attrs n) in
  let own = Array.to_list (Array.map (fun a -> Rel.atom (Pattern.attr_col n.nid a)) attrs) in
  let at = ref (Array.length attrs) in
  let cols = ref [ own ] in
  let children =
    List.filter_map
      (fun (ct : Pattern.tree) ->
        let c = compile ~root:false ct in
        let optional = Pattern.optional_edge ct.edge in
        let place use width sub =
          let ch = { node = c; use; at = !at } in
          at := !at + width;
          cols := sub :: !cols;
          Some ch
        in
        match ct.edge.sem with
        | Pattern.Semi -> Some { node = c; use = Exists; at = 0 }
        | _ when c.width = 0 ->
            (* No columns: a mandatory child filters, an optional one is
               inert. *)
            if optional then None else Some { node = c; use = Exists; at = 0 }
        | Pattern.Join | Pattern.Outer -> place (Flat optional) c.width c.schema
        | Pattern.Nest_join | Pattern.Nest_outer ->
            place (Nest optional) 1 [ Rel.nested (Pattern.nest_col ct.node.nid) c.schema ])
      t.children
  in
  let placed = List.filter (fun ch -> ch.use <> Exists) children in
  let leads_with_id =
    n.id_scheme <> None
    || attrs = [||]
       &&
       match placed with
       | { use = Flat false; node; _ } :: _ -> node.leads_with_id
       | _ -> false
  in
  let keyed =
    n.id_scheme <> None
    || t.edge.axis = Pattern.Child && (root || leads_with_id)
  in
  let schema = List.concat (List.rev !cols) in
  { nid = n.nid;
    test = test_of_label n.label;
    axis = t.edge.axis;
    formula = (if Formula.is_true n.formula then None else Some n.formula);
    attrs;
    scheme = n.id_scheme;
    width = !at;
    schema;
    null = Rel.null_tuple schema;
    leads_with_id;
    distinct =
      keyed
      && List.for_all
           (fun ch -> match ch.use with Flat _ -> ch.node.distinct | _ -> true)
           placed;
    exact = keyed && List.for_all (fun ch -> ch.node.exact) placed;
    children = Array.of_list children;
    through =
      (match placed with
      | [ { use = Flat false; at = 0; _ } ] -> attrs = [||]
      | _ -> false) }

(* --- Evaluation ----------------------------------------------------------
   Candidates are walked over [Doc]'s columns without building lists:
   children by hopping subtree ends, descendants as the handle range of
   the subtree. A child that only filters stops at its first embedding. *)

let doc_value doc h = Value.of_string_literal (Doc.value doc h)

let label_ok doc (n : node) h =
  match (n.test, Doc.kind doc h) with
  | Any_element, Doc.Element | Any_attribute, Doc.Attribute | Any_text, Doc.Text -> true
  | Element_named l, Doc.Element | Attribute_named l, Doc.Attribute ->
      String.equal (Doc.label doc h) l
  | _ -> false

let matches doc n h =
  label_ok doc n h
  && match n.formula with None -> true | Some f -> Formula.holds f (doc_value doc h)

let next_candidate doc (n : node) j =
  match n.axis with Pattern.Child -> Doc.subtree_end doc j | Pattern.Descendant -> j + 1

(* Does [n] embed at some candidate below [h]? *)
let rec exists doc n h =
  let stop = Doc.subtree_end doc h in
  let j = ref (h + 1) and found = ref false in
  while (not !found) && !j < stop do
    if embeds doc n !j then found := true else j := next_candidate doc n !j
  done;
  !found

and embeds doc n h =
  matches doc n h
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length n.children do
    let ch = n.children.(!i) in
    (match ch.use with
    | Exists | Flat false | Nest false -> ok := exists doc ch.node h
    | Flat true | Nest true -> ());
    incr i
  done;
  !ok

let own_field doc (n : node) h = function
  | Pattern.ID -> (
      match n.scheme with
      | Some scheme -> Rel.A (Value.Id (Doc.id scheme doc h))
      | None -> assert false)
  | Pattern.L -> Rel.A (Value.Str (Doc.label doc h))
  | Pattern.V -> Rel.A (doc_value doc h)
  | Pattern.C -> Rel.A (Value.Str (Doc.content doc h))

(* The tuples of [n] embedded at [h], pushed onto [acc] (a reversed list)
   in order: the product of the flattened children's tuples with the first
   child outermost, which is the order of the reference semantics. *)
let rec emit doc n h acc =
  if not (matches doc n h) then acc
  else if n.through then pass doc n h acc
  else
    let buf = Array.make n.width (Rel.A Value.Null) in
    Array.iteri (fun i a -> buf.(i) <- own_field doc n h a) n.attrs;
    (* Flattened children with more than one tuple, last child first. *)
    let spread = ref [] in
    let ok = ref true and i = ref 0 in
    while !ok && !i < Array.length n.children do
      let ch = n.children.(!i) in
      (match ch.use with
      | Exists -> ok := exists doc ch.node h
      | Flat optional -> (
          match collect doc ch.node h with
          | [] ->
              if optional then Array.blit ch.node.null 0 buf ch.at ch.node.width
              else ok := false
          | [ t ] -> Array.blit t 0 buf ch.at ch.node.width
          | ts -> spread := (ch.at, ts) :: !spread)
      | Nest optional -> (
          match collect doc ch.node h with
          | [] -> if optional then buf.(ch.at) <- Rel.N [] else ok := false
          | ts ->
              buf.(ch.at) <- Rel.N (if ch.node.distinct then ts else Rel.dedup_tuples ts)));
      incr i
    done;
    if not !ok then acc
    else
      match !spread with
      | [] -> buf :: acc
      | spread ->
          let rec product parts acc =
            match parts with
            | [] -> Array.copy buf :: acc
            | (at, ts) :: rest ->
                List.fold_left
                  (fun acc t ->
                    Array.blit t 0 buf at (Array.length t);
                    product rest acc)
                  acc ts
          in
          product (List.rev spread) acc

(* [emit] for a pass-through node, taking the children in order as [emit]
   does, so an empty child or a failing filter stops the node just as
   early. The flattened child pushes its tuples straight onto [acc]; it
   pushed none when the list is still [acc] itself. *)
and pass doc n h acc =
  let out = ref acc and ok = ref true and i = ref 0 in
  while !ok && !i < Array.length n.children do
    let ch = n.children.(!i) in
    (match ch.use with
    | Exists -> ok := exists doc ch.node h
    | Flat _ | Nest _ ->
        out := push_all doc ch.node h acc;
        ok := !out != acc);
    incr i
  done;
  if !ok then !out else acc

(* All tuples of [n] over its candidates below [h], in document order,
   pushed onto [acc]. *)
and push_all doc n h acc =
  let stop = Doc.subtree_end doc h in
  let acc = ref acc and j = ref (h + 1) in
  while !j < stop do
    acc := emit doc n !j !acc;
    j := next_candidate doc n !j
  done;
  !acc

and collect doc n h = List.rev (push_all doc n h [])

(* Root candidates: the document root under [/]; under [//], the label
   index for a named test and every handle for a wildcard. *)
let fold_roots doc (n : node) f acc =
  match (n.axis, n.test) with
  | Pattern.Child, _ -> f (Doc.root doc) acc
  | Pattern.Descendant, (Element_named l | Attribute_named l) ->
      List.fold_left (fun acc h -> f h acc) acc (Doc.nodes_with_label doc l)
  | Pattern.Descendant, (Any_element | Any_attribute | Any_text) ->
      let acc = ref acc in
      for h = 0 to Doc.size doc - 1 do
        acc := f h !acc
      done;
      !acc

let eval doc (pat : Pattern.t) =
  let roots = List.map (compile ~root:true) pat.roots in
  (* Multiple roots are structurally unrelated: their results combine by
     cartesian product (the ⊤ node joins them only at the document root);
     a root without columns only filters. *)
  let tuples =
    List.fold_left
      (fun ts (r : node) ->
        match ts with
        | [] -> []
        | _ when r.width = 0 ->
            if fold_roots doc r (fun h found -> found || embeds doc r h) false then ts
            else []
        | [ [||] ] -> List.rev (fold_roots doc r (emit doc r) [])
        | _ ->
            let sub = List.rev (fold_roots doc r (emit doc r) []) in
            List.concat_map (fun t -> List.map (fun u -> Rel.concat_tuples t u) sub) ts)
      [ [||] ] roots
  in
  let with_columns = List.filter (fun (r : node) -> r.width > 0) roots in
  (* Where every node is keyed (see [compile]) the tuples are distinct and
     come out in [Rel.compare_tuple] order, because [Nid.compare] is
     document order for every scheme: deduplicating or sorting them would
     not change them. *)
  let tuples =
    if List.for_all (fun (r : node) -> r.distinct) with_columns then tuples
    else Rel.dedup_tuples tuples
  in
  let result = Rel.make (List.concat_map (fun (r : node) -> r.schema) roots) tuples in
  if pat.Pattern.ordered && not (List.for_all (fun (r : node) -> r.exact) with_columns) then
    Rel.sort_doc_order result
  else result

let pass_through (pat : Pattern.t) =
  let rec go (n : node) acc =
    let acc = Array.fold_right (fun ch acc -> go ch.node acc) n.children acc in
    if n.through then n.nid :: acc else acc
  in
  List.fold_right (fun r acc -> go (compile ~root:true r) acc) pat.roots []
