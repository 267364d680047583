(* Flattened documents: structural labels and navigation. *)

module Doc = Xdm.Doc
module T = Xdm.Xml_tree

let sample = "<lib><book y=\"1\"><t>A</t><a>X</a><a>Y</a></book><book><t>B</t></book></lib>"

let doc () = Doc.of_string sample

let test_shape () =
  let d = doc () in
  Alcotest.(check int) "size" 12 (Doc.size d);
  Alcotest.(check int) "elements" 7 (Doc.element_size d);
  Alcotest.(check string) "root label" "lib" (Doc.label d (Doc.root d));
  Alcotest.(check int) "root depth" 1 (Doc.depth d 0);
  Alcotest.(check int) "root parent" (-1) (Doc.parent d 0)

let test_navigation () =
  let d = doc () in
  let books = Doc.nodes_with_label d "book" in
  Alcotest.(check int) "two books" 2 (List.length books);
  let b1 = List.hd books in
  Alcotest.(check int) "book children (attr + 3 elements)" 4
    (List.length (Doc.children d b1));
  Alcotest.(check bool) "lib ancestor of book" true (Doc.is_ancestor d 0 b1);
  Alcotest.(check bool) "lib parent of book" true (Doc.is_parent d 0 b1);
  let texts = Doc.descendants_with_label d b1 "#text" in
  Alcotest.(check int) "text descendants of book1" 3 (List.length texts)

let test_values () =
  let d = doc () in
  let b1 = List.hd (Doc.nodes_with_label d "book") in
  Alcotest.(check string) "element value concatenates texts" "AXY" (Doc.value d b1);
  let attr = List.hd (Doc.nodes_with_label d "@y") in
  Alcotest.(check string) "attribute value" "1" (Doc.value d attr);
  Alcotest.(check string) "content serializes subtree"
    "<book y=\"1\"><t>A</t><a>X</a><a>Y</a></book>" (Doc.content d b1)

let test_pre_post_invariants () =
  let d = doc () in
  Doc.iter
    (fun i ->
      let p = Doc.parent d i in
      if p >= 0 then (
        Alcotest.(check bool) "parent pre smaller" true (p < i);
        Alcotest.(check bool) "parent post larger" true (Doc.post d p > Doc.post d i);
        Alcotest.(check int) "depth chain" (Doc.depth d p + 1) (Doc.depth d i));
      let last = Doc.subtree_end d i in
      Alcotest.(check bool) "descendants contiguous" true
        (List.for_all (fun j -> i < j && j < last) (Doc.descendants d i)))
    d

let test_ids () =
  let d = doc () in
  Doc.iter
    (fun i ->
      List.iter
        (fun scheme ->
          let id = Doc.id scheme d i in
          Alcotest.(check (option int))
            (Printf.sprintf "handle_of_id roundtrip %d" i)
            (Some i) (Doc.handle_of_id d id))
        [ Xdm.Nid.Simple; Xdm.Nid.Ordinal; Xdm.Nid.Structural; Xdm.Nid.Parental ])
    d

let test_to_tree () =
  let d = doc () in
  let rebuilt = Doc.to_tree d 0 in
  Alcotest.(check bool) "to_tree rebuilds the document" true
    (T.equal (T.parse sample) rebuilt)

(* Property: flattening then rebuilding is the identity. *)
let tree_gen =
  let open QCheck2.Gen in
  let label = oneofl [ "a"; "b"; "c" ] in
  fix
    (fun self depth ->
      if depth = 0 then map (fun s -> T.text s) (oneofl [ "x"; "y z" ])
      else
        frequency
          [ (1, map (fun s -> T.text s) (oneofl [ "x"; "y z" ]));
            ( 3,
              map2
                (fun tag children -> T.elt tag children)
                label
                (list_size (int_bound 3) (self (depth - 1))) ) ])
    3

let rebuild_prop =
  QCheck2.Test.make ~name:"of_tree/to_tree roundtrip" ~count:200 tree_gen (fun t ->
      let t = match t with T.Text _ -> T.elt "root" [ t ] | e -> e in
      let d = Doc.of_tree t in
      T.equal t (Doc.to_tree d 0))

let children_prop =
  QCheck2.Test.make ~name:"children partition descendants" ~count:100 tree_gen (fun t ->
      let t = match t with T.Text _ -> T.elt "root" [ t ] | e -> e in
      let d = Doc.of_tree t in
      let ok = ref true in
      Doc.iter
        (fun i ->
          let via_children =
            List.concat_map (fun c -> c :: Doc.descendants d c) (Doc.children d i)
          in
          if List.sort compare via_children <> Doc.descendants d i then ok := false)
        d;
      !ok)

(* --- mutations ---------------------------------------------------------- *)

let serialize d = T.serialize (Doc.to_tree d (Doc.root d))

(* [pack]/[unpack ~name] re-checks the flattened invariants (pre/post
   consistency, parent links, subtree extents, ordinals); running a
   mutated document through it is the structural oracle for every edit. *)
let repack d =
  let packed = Doc_pack.pack d in
  let d' = Doc_pack.unpack ~name:(Doc.name d) packed in
  Alcotest.(check bool) "pack/unpack stable" true (Doc_pack.pack d' = packed);
  d

let test_insert_subtree () =
  let d = doc () in
  let b2 = List.nth (Doc.nodes_with_label d "book") 1 in
  let d1 = repack (Doc.insert_subtree d ~parent:b2 (T.parse "<t>C</t>")) in
  Alcotest.(check string) "appended"
    "<lib><book y=\"1\"><t>A</t><a>X</a><a>Y</a></book><book><t>B</t><t>C</t></book></lib>"
    (serialize d1);
  let before = List.hd (Doc.children d (Doc.root d)) in
  let d2 = repack (Doc.insert_subtree d ~parent:(Doc.root d) ~before (T.parse "<new/>")) in
  Alcotest.(check string) "inserted before first book"
    "<lib><new/><book y=\"1\"><t>A</t><a>X</a><a>Y</a></book><book><t>B</t></book></lib>"
    (serialize d2);
  (* the source document is immutable *)
  Alcotest.(check string) "original untouched" sample (serialize d)

let test_delete_subtree () =
  let d = doc () in
  let b1 = List.hd (Doc.nodes_with_label d "book") in
  let d1 = repack (Doc.delete_subtree d b1) in
  Alcotest.(check string) "first book gone" "<lib><book><t>B</t></book></lib>"
    (serialize d1);
  Alcotest.(check int) "size shrank" (Doc.size d - 8) (Doc.size d1)

let test_update_value () =
  let d = doc () in
  let attr =
    List.find (fun h -> Doc.kind d h = Doc.Attribute) (Doc.descendants d 0)
  in
  let d1 = repack (Doc.update_value d attr "9") in
  Alcotest.(check string) "attribute rewritten"
    "<lib><book y=\"9\"><t>A</t><a>X</a><a>Y</a></book><book><t>B</t></book></lib>"
    (serialize d1);
  let txt = List.find (fun h -> Doc.kind d h = Doc.Text) (Doc.descendants d 0) in
  let d2 = repack (Doc.update_value d txt "Z") in
  Alcotest.(check string) "text rewritten"
    "<lib><book y=\"1\"><t>Z</t><a>X</a><a>Y</a></book><book><t>B</t></book></lib>"
    (serialize d2)

let test_mutation_errors () =
  let d = doc () in
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  let txt = List.find (fun h -> Doc.kind d h = Doc.Text) (Doc.descendants d 0) in
  rejects "delete root" (fun () -> Doc.delete_subtree d 0);
  rejects "insert under a text node" (fun () ->
      Doc.insert_subtree d ~parent:txt (T.parse "<x/>"));
  rejects "insert before a non-child" (fun () ->
      Doc.insert_subtree d ~parent:0 ~before:txt (T.parse "<x/>"));
  rejects "update an element" (fun () -> Doc.update_value d 0 "v");
  rejects "out-of-range handle" (fun () -> Doc.delete_subtree d 99);
  (* a batch stops at the first edit that fails, before taking the next *)
  let taken = ref false in
  rejects "batch with an out-of-range handle" (fun () ->
      Doc.apply_edits d
        (Seq.append (Seq.return (Doc.Delete 99)) (fun () -> taken := true; Seq.Nil)));
  Alcotest.(check bool) "no edit taken past the failing one" false !taken

(* A batch grows its working copy as inserts need it and cuts the result
   when most of it is spare, so what a batch returns weighs about what
   the same document built afresh does: grafting and deleting twenty
   times the document leaves no room for what it grafted, and twenty
   grafts keep under twice the columns they need. *)
let test_batch_spare_room () =
  let d = doc () in
  let big = T.parse ("<big>" ^ String.concat "" (List.init 100 (fun _ -> "<x>t</x>")) ^ "</big>") in
  let graft = Doc.Insert { parent = Doc.root d; before = None; tree = big } in
  let words x = Obj.reachable_words (Obj.repr x) in
  let fresh x = Doc.of_tree (Doc.to_tree x (Doc.root x)) in
  let churn =
    Doc.apply_edits d (Seq.concat_map (fun _ -> List.to_seq [ graft; Doc.Delete (Doc.size d) ])
                         (Seq.init 20 Fun.id))
  in
  Alcotest.(check string) "churn leaves the document" sample (serialize churn);
  Alcotest.(check bool) "churn keeps no room for what it grafted" true
    (words churn <= 2 * words (fresh churn));
  let grown = Doc.apply_edits d (Seq.init 20 (fun _ -> graft)) in
  ignore (repack grown);
  Alcotest.(check int) "twenty grafts" (Doc.size d + (20 * T.node_count big)) (Doc.size grown);
  Alcotest.(check bool) "growth keeps under twice the columns" true
    (words grown <= 2 * words (fresh grown))

(* --- unpack rejects inconsistent structure ------------------------------ *)

let test_unpack_rejects () =
  let p = Doc_pack.pack (Doc.of_string "<a><b><c/></b><d/></a>") in
  (* handles: a = 0, b = 1, c = 2, d = 3 *)
  Alcotest.(check bool) "the untouched array loads" true
    (Doc_pack.pack (Doc_pack.unpack ~name:"x" p) = p);
  let rejects what f =
    let q = Array.copy p in
    f q;
    Alcotest.(check bool) what true
      (match Doc_pack.unpack ~name:"x" q with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "c's subtree swallows its parent's sibling d" (fun q ->
      q.(2) <- { (q.(2)) with Doc_pack.p_subtree_end = 4 });
  rejects "... even with the matching post" (fun q ->
      q.(2) <- { (q.(2)) with Doc_pack.p_subtree_end = 4; p_post = 2 });
  rejects "duplicate post" (fun q -> q.(3) <- { (q.(3)) with Doc_pack.p_post = 1 });
  rejects "parent is not the innermost open node" (fun q ->
      q.(3) <- { (q.(3)) with Doc_pack.p_parent = 1; p_depth = 3 });
  rejects "ordinal is not the rank among siblings" (fun q ->
      q.(3) <- { (q.(3)) with Doc_pack.p_ordinal = 1 });
  rejects "text node with a child" (fun q -> q.(1) <- { (q.(1)) with Doc_pack.p_kind = Doc.Text });
  rejects "attribute after an element sibling" (fun q ->
      q.(3) <- { (q.(3)) with Doc_pack.p_kind = Doc.Attribute; p_label = "@d" });
  rejects "element carrying a stored value" (fun q ->
      q.(1) <- { (q.(1)) with Doc_pack.p_value = "v" })

(* --- splice vs. the tree-level oracle ------------------------------------ *)

module O = Doc_oracle

(* Apply [edit] both ways: the spliced document must equal the rebuilt
   one record for record and pass [unpack]. *)
let check_agrees what d edit =
  let packed = Doc_pack.pack (O.splice d edit) in
  Alcotest.(check bool) (what ^ ": splice = oracle") true (packed = Doc_pack.pack (O.apply d edit));
  ignore (Doc_pack.unpack ~name:(Doc.name d) packed)

let test_splice_shapes () =
  let d =
    Doc.of_string
      "<lib a=\"1\" b=\"2\"><book y=\"1\"><t>A</t><e/></book><empty/><o z=\"1\"/>tail\
       <x k=\"v\">m<e/></x></lib>"
  in
  let first lbl = List.hd (Doc.nodes_with_label d lbl) in
  let last lbl = List.hd (List.rev (Doc.nodes_with_label d lbl)) in
  let book = first "book" and x = first "x" in
  let first_kid i = List.find (fun j -> Doc.kind d j <> Doc.Attribute) (Doc.children d i) in
  let graft = T.parse "<n q=\"3\"><m>new</m><v/></n>" in
  List.iter
    (fun (what, edit) -> check_agrees what d edit)
    [ ("delete the first attribute", O.Drop (first "@a"));
      ("delete the last attribute", O.Drop (first "@b"));
      ("delete a text node", O.Drop (first "#text"));
      ("delete a first child", O.Drop (first "@y"));
      ("delete a first element child", O.Drop book);
      ("delete the last node", O.Drop (last "e"));
      ("insert before the first child", O.Graft { parent = 0; before = Some book; tree = graft });
      ("insert before a text node", O.Graft { parent = x; before = Some (first_kid x); tree = graft });
      ("append to an empty element", O.Graft { parent = first "empty"; before = None; tree = graft });
      ("append to an attribute-only element",
       O.Graft { parent = first "o"; before = None; tree = graft });
      ("append to the root", O.Graft { parent = 0; before = None; tree = graft });
      ("graft a bare text node", O.Graft { parent = x; before = None; tree = T.text "t" });
      ("graft a bare text node first",
       O.Graft { parent = book; before = Some (first_kid book); tree = T.text "" });
      ("update an attribute", O.Set_value (first "@k", "w"));
      ("update a text node", O.Set_value (last "#text", "n"));
      ("empty a text node", O.Set_value (first "#text", "")) ];
  (* An update keeps handles and labels: the label index carries over. *)
  let before = Doc.nodes_with_label d "e" in
  let d' = Doc.update_value d (first "#text") "Z" in
  Alcotest.(check (list int)) "label index after update" before (Doc.nodes_with_label d' "e")

(* Random documents: workload generators at small sizes, and a tree
   generator with attributes, text (possibly empty) and empty elements. *)
let attr_tree_gen =
  let open QCheck2.Gen in
  let label = oneofl [ "a"; "b"; "c" ] in
  let attrs =
    map
      (fun names -> List.map (fun n -> (n, "v" ^ n)) (List.sort_uniq compare names))
      (list_size (int_bound 2) (oneofl [ "p"; "q"; "r" ]))
  in
  let leaf =
    oneof
      [ map T.text (oneofl [ "x"; ""; "y z" ]);
        map2 (fun tag attrs -> T.elt ~attrs tag []) label attrs ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (1, leaf);
            ( 3,
              map3
                (fun tag attrs children -> T.elt ~attrs tag children)
                label attrs
                (list_size (int_bound 3) (self (depth - 1))) ) ])
    3

let doc_tree_gen =
  let open QCheck2.Gen in
  let module W = Xworkload in
  oneof
    [ map (function T.Text _ as t -> T.elt "root" [ t ] | e -> e) attr_tree_gen;
      map (fun seed -> W.Gen_bib.generate ~seed ~books:2 ~theses:1 ()) nat;
      map (fun seed -> W.Gen_dblp.generate ~seed ~entries:3 ()) nat;
      map (fun seed -> W.Gen_sci.nasa ~seed ~datasets:1 ()) nat;
      map (fun seed -> W.Gen_sci.swissprot ~seed ~entries:1 ()) nat ]

(* An edit step names its shape and picks its target from the candidates
   the current document offers; a step with no candidate is skipped. *)
type shape =
  | Del_attr | Del_text | Del_first_child | Del_any
  | Ins_first | Ins_before | Ins_empty | Ins_append | Ins_text
  | Upd_attr | Upd_text

let shape_name = function
  | Del_attr -> "delete attribute" | Del_text -> "delete text"
  | Del_first_child -> "delete first child" | Del_any -> "delete"
  | Ins_first -> "insert before first child" | Ins_before -> "insert before"
  | Ins_empty -> "append to empty element" | Ins_append -> "append"
  | Ins_text -> "graft text" | Upd_attr -> "update attribute" | Upd_text -> "update text"

let step_gen =
  let open QCheck2.Gen in
  triple
    (oneofl
       [ Del_attr; Del_text; Del_first_child; Del_any; Ins_first; Ins_before; Ins_empty;
         Ins_append; Ins_text; Upd_attr; Upd_text ])
    nat attr_tree_gen

let edit_of_step d (shape, pick, tree) =
  let handles = List.init (Doc.size d) Fun.id in
  let where p = List.filter p handles in
  let is k j = Doc.kind d j = k in
  let kids j = List.filter (fun c -> not (is Doc.Attribute c)) (Doc.children d j) in
  let elements = where (is Doc.Element) in
  let choose = function [] -> None | l -> Some (List.nth l (pick mod List.length l)) in
  let before_some j = match kids j with [] -> None | l -> Some (j, l) in
  let graft parent before tree = O.Graft { parent; before; tree } in
  match shape with
  | Del_attr -> Option.map (fun j -> O.Drop j) (choose (where (is Doc.Attribute)))
  | Del_text -> Option.map (fun j -> O.Drop j) (choose (where (fun j -> j > 0 && is Doc.Text j)))
  | Del_first_child ->
      Option.map (fun j -> O.Drop (List.hd (Doc.children d j)))
        (choose (List.filter (fun j -> Doc.children d j <> []) elements))
  | Del_any -> Option.map (fun j -> O.Drop j) (choose (List.tl handles))
  | Ins_first ->
      Option.map (fun (j, l) -> graft j (Some (List.hd l)) tree)
        (choose (List.filter_map before_some elements))
  | Ins_before ->
      Option.map (fun (j, l) -> graft j (Some (List.nth l (pick mod List.length l))) tree)
        (choose (List.filter_map before_some elements))
  | Ins_empty ->
      Option.map (fun j -> graft j None tree)
        (choose (List.filter (fun j -> Doc.children d j = []) elements))
  | Ins_append -> Option.map (fun j -> graft j None tree) (choose elements)
  | Ins_text -> Option.map (fun j -> graft j None (T.text "g")) (choose elements)
  | Upd_attr ->
      Option.map (fun j -> O.Set_value (j, "u" ^ string_of_int pick))
        (choose (where (is Doc.Attribute)))
  | Upd_text ->
      Option.map (fun j -> O.Set_value (j, "u" ^ string_of_int pick)) (choose (where (is Doc.Text)))

let print_case (tree, steps) =
  T.serialize tree ^ "\n"
  ^ String.concat "; "
      (List.map (fun (shape, pick, t) ->
           Printf.sprintf "%s #%d %s" (shape_name shape) pick (T.serialize t))
         steps)

let splice_prop =
  QCheck2.Test.make ~name:"splice = of_tree of the tree-level edit" ~count:300 ~print:print_case
    QCheck2.Gen.(pair doc_tree_gen (list_size (int_range 1 8) step_gen))
    (fun (tree, steps) ->
      let step (spliced, rebuilt) s =
        match edit_of_step spliced s with
        | None -> (spliced, rebuilt)
        | Some edit ->
            (* Build the label index first so an update has one to carry. *)
            ignore (Doc.nodes_with_label spliced "#text");
            let spliced = O.splice spliced edit and rebuilt = O.apply rebuilt edit in
            let packed = Doc_pack.pack spliced in
            if packed <> Doc_pack.pack rebuilt then QCheck2.Test.fail_report "pack differs";
            ignore (Doc_pack.unpack ~name:"check" packed);
            List.iter
              (fun l ->
                if Doc.nodes_with_label spliced l <> Doc.nodes_with_label rebuilt l then
                  QCheck2.Test.fail_reportf "label index differs on %s" l)
              (Doc.labels rebuilt);
            (spliced, rebuilt)
      in
      let d = Doc.of_tree tree in
      ignore (List.fold_left step (d, d) steps);
      true)

(* A batch is the fold of its edits: [Doc.apply_edits] on one working
   copy must give, record for record, what the tree-level reference
   gives for the same edits one at a time, and a batch whose last edit
   does not apply must fail with the message a single edit fails with. *)
let batch_prop =
  let to_edit = function
    | O.Drop i -> Doc.Delete i
    | O.Set_value (i, v) -> Doc.Update (i, v)
    | O.Graft { parent; before; tree } -> Doc.Insert { parent; before; tree }
  in
  let failure f = match f () with _ -> None | exception Invalid_argument m -> Some m in
  QCheck2.Test.make ~name:"apply_edits = the fold of single edits" ~count:300
    ~print:print_case
    QCheck2.Gen.(pair doc_tree_gen (list_size (int_range 0 8) step_gen))
    (fun (tree, steps) ->
      let d = Doc.of_tree tree in
      let folded, edits =
        List.fold_left
          (fun (cur, acc) s ->
            match edit_of_step cur s with
            | None -> (cur, acc)
            | Some e -> (O.apply cur e, to_edit e :: acc))
          (d, []) steps
      in
      let edits = List.rev edits in
      let batched = Doc.apply_edits d (List.to_seq edits) in
      if Doc_pack.pack batched <> Doc_pack.pack folded then
        QCheck2.Test.fail_report "batch differs from the fold";
      ignore (Doc_pack.unpack ~name:"check" (Doc_pack.pack batched));
      (* a batch's result may keep spare room: single edits on it must
         still agree *)
      let graft d = Doc.insert_subtree d ~parent:(Doc.root d) (T.parse "<z>t</z>") in
      if Doc_pack.pack (graft batched) <> Doc_pack.pack (graft folded) then
        QCheck2.Test.fail_report "a single edit after the batch differs";
      List.iter
        (fun l ->
          if Doc.nodes_with_label batched l <> Doc.nodes_with_label folded l then
            QCheck2.Test.fail_reportf "label index differs on %s" l)
        (Doc.labels folded);
      (* an edit that does not apply, after the valid ones: a handle past
         the end, and a value on the root element *)
      List.iter
        (fun (e, single) ->
          let single = failure single in
          if single = None || failure (fun () -> Doc.apply_edits d (List.to_seq (edits @ [ e ]))) <> single then
            QCheck2.Test.fail_report "the batch reports an invalid edit unlike the fold")
        [ (Doc.Delete (Doc.size folded), fun () -> Doc.delete_subtree folded (Doc.size folded));
          (Doc.Update (0, "v"), fun () -> Doc.update_value folded 0 "v") ];
      true)

(* An element's value is the concatenation of its text descendants, in
   document order, however many there are. *)
let value_prop =
  QCheck2.Test.make ~name:"element value = its texts concatenated" ~count:200
    ~print:T.serialize doc_tree_gen
    (fun tree ->
      let d = Doc.of_tree tree in
      List.for_all
        (fun i ->
          Doc.kind d i <> Doc.Element
          || String.equal (Doc.value d i)
               (String.concat ""
                  (List.filter_map
                     (fun j -> if Doc.kind d j = Doc.Text then Some (Doc.value d j) else None)
                     (Doc.descendants d i))))
        (List.init (Doc.size d) Fun.id))

let () =
  Alcotest.run "doc"
    [ ( "doc",
        [ Alcotest.test_case "shape" `Quick test_shape;
          Alcotest.test_case "navigation" `Quick test_navigation;
          Alcotest.test_case "values and content" `Quick test_values;
          Alcotest.test_case "pre/post invariants" `Quick test_pre_post_invariants;
          Alcotest.test_case "id roundtrips" `Quick test_ids;
          Alcotest.test_case "to_tree" `Quick test_to_tree ] );
      ( "mutations",
        [ Alcotest.test_case "insert_subtree" `Quick test_insert_subtree;
          Alcotest.test_case "delete_subtree" `Quick test_delete_subtree;
          Alcotest.test_case "update_value" `Quick test_update_value;
          Alcotest.test_case "invalid mutations are rejected" `Quick
            test_mutation_errors;
          Alcotest.test_case "a batch keeps little spare room" `Quick test_batch_spare_room;
          Alcotest.test_case "splice matches the tree oracle" `Quick test_splice_shapes;
          Alcotest.test_case "unpack rejects inconsistent structure" `Quick
            test_unpack_rejects ] );
      ( "props",
        [ QCheck_alcotest.to_alcotest rebuild_prop;
          QCheck_alcotest.to_alcotest children_prop;
          QCheck_alcotest.to_alcotest splice_prop;
          QCheck_alcotest.to_alcotest batch_prop;
          QCheck_alcotest.to_alcotest value_prop ] ) ]
