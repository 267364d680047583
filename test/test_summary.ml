(* Path summaries and their integrity-constraint annotations. *)

module Summary = Xsummary.Summary
module Doc = Xdm.Doc

let bib = Xworkload.Gen_bib.bib_doc

let test_structure () =
  let s, paths = Summary.build (bib ()) in
  Alcotest.(check int) "13 paths in bib.xml" 13 (Summary.size s);
  Alcotest.(check string) "root is library" "library" (Summary.label s 0);
  (* All nodes on the same rooted path map to the same summary node. *)
  let d = bib () in
  Doc.iter
    (fun i ->
      let p = Doc.parent d i in
      if p >= 0 then (
        Alcotest.(check string) "φ preserves labels" (Doc.label d i)
          (Summary.label s paths.(i));
        Alcotest.(check int) "φ preserves edges" paths.(p)
          (Summary.parent s paths.(i))))
    d;
  let authors = Doc.nodes_with_label d "author" in
  let author_paths = List.sort_uniq compare (List.map (fun i -> paths.(i)) authors) in
  Alcotest.(check int) "authors land on two paths (book, phdthesis)" 2
    (List.length author_paths)

let test_cards () =
  let s = Summary.of_doc (bib ()) in
  let path labels = Option.get (Summary.find_path s labels) in
  Alcotest.(check bool) "every book has exactly one title" true
    (Summary.card s (path [ "library"; "book"; "title" ]) = Summary.One);
  Alcotest.(check bool) "every book has at least one author" true
    (let c = Summary.card s (path [ "library"; "book"; "author" ]) in
     c = Summary.Plus || c = Summary.One);
  Alcotest.(check bool) "year attribute is optional on books" true
    (Summary.card s (path [ "library"; "book"; "@year" ]) = Summary.Star);
  Alcotest.(check bool) "the single thesis has a 1-edge year" true
    (Summary.card s (path [ "library"; "phdthesis"; "@year" ]) = Summary.One)

let test_lookup () =
  let s = Summary.of_doc (bib ()) in
  Alcotest.(check (option int)) "find_path root" (Some 0) (Summary.find_path s [ "library" ]);
  Alcotest.(check (option int)) "find_path missing" None
    (Summary.find_path s [ "library"; "article" ]);
  let book = Option.get (Summary.find_path s [ "library"; "book" ]) in
  Alcotest.(check string) "path_string" "/library/book" (Summary.path_string s book);
  Alcotest.(check int) "book has 3 child paths" 3 (List.length (Summary.children s book));
  Alcotest.(check bool) "is_ancestor" true (Summary.is_ancestor s 0 book);
  Alcotest.(check int) "two title paths" 2
    (List.length (Summary.nodes_with_label s "title"))

let test_conformance () =
  let d = bib () in
  let s = Summary.of_doc d in
  Alcotest.(check bool) "document conforms to own summary" true (Summary.conforms s d);
  (* A structurally different document does not. *)
  let d2 = Doc.of_string "<library><book><title>t</title></book></library>" in
  Alcotest.(check bool) "smaller document does not conform" false (Summary.conforms s d2)

let test_of_edges () =
  let s =
    Summary.of_edges
      [ (-1, "a", Summary.One); (0, "b", Summary.Plus); (1, "c", Summary.One);
        (0, "d", Summary.Star) ]
  in
  Alcotest.(check int) "size" 4 (Summary.size s);
  Alcotest.(check string) "labels" "/a/b/c" (Summary.path_string s 2);
  Alcotest.(check bool) "subtree_end" true (Summary.subtree_end s 1 = 3);
  Alcotest.(check bool) "one_to_one_chain through 1-edges" true
    (Summary.one_to_one_chain s 0 2 = false);
  Alcotest.(check bool) "one_to_one_chain b→c" true (Summary.one_to_one_chain s 1 2)

let test_one_to_one_chain () =
  let s = Summary.of_doc (bib ()) in
  let thesis = Option.get (Summary.find_path s [ "library"; "phdthesis" ]) in
  let ttitle = Option.get (Summary.find_path s [ "library"; "phdthesis"; "title" ]) in
  Alcotest.(check bool) "reflexive" true (Summary.one_to_one_chain s thesis thesis);
  Alcotest.(check bool) "thesis→title all 1-edges" true
    (Summary.one_to_one_chain s thesis ttitle)

let test_growth () =
  (* Summaries change little as documents grow (Fig 4.13). *)
  let small = Summary.of_doc (Xworkload.Gen_dblp.generate_doc ~entries:200 ()) in
  let large = Summary.of_doc (Xworkload.Gen_dblp.generate_doc ~entries:2000 ()) in
  Alcotest.(check bool) "summary growth is sublinear" true
    (Summary.size large <= Summary.size small + 10)

(* Shape is (label, parent, card) per path: a value edit keeps it, a
   book without an author weakens book→author from + to *, and a new
   element adds a path. Counts never enter. *)
let test_same_shape () =
  let d = bib () in
  let s = Summary.of_doc d in
  let library = Doc.root d in
  let book = List.hd (Doc.nodes_with_label d "book") in
  let text = List.hd (Doc.children d (List.hd (Doc.nodes_with_label d "title"))) in
  let shape_of d = Summary.same_shape s (Summary.of_doc d) in
  Alcotest.(check bool) "a value edit keeps the shape" true
    (shape_of (Doc.update_value d text "Another title"));
  Alcotest.(check bool) "a complete book keeps the shape (counts differ)" true
    (shape_of
       (Doc.insert_subtree d ~parent:library ~before:book
          (Xdm.Xml_tree.parse "<book year=\"2001\"><title>t</title><author>a</author></book>")));
  Alcotest.(check bool) "a book without an author weakens a card" false
    (shape_of
       (Doc.insert_subtree d ~parent:library ~before:book
          (Xdm.Xml_tree.parse "<book><title>t</title></book>")));
  Alcotest.(check bool) "a new element adds a path" false
    (shape_of
       (Doc.insert_subtree d ~parent:book (Xdm.Xml_tree.parse "<isbn>1</isbn>")));
  let s' = Summary.of_doc d in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Summary.same_shape s s'))
  done;
  Alcotest.(check bool) "the comparison allocates nothing" true
    (Gc.minor_words () -. w0 < 100.0)

let () =
  Alcotest.run "summary"
    [ ( "summary",
        [ Alcotest.test_case "structure and φ" `Quick test_structure;
          Alcotest.test_case "1/+ cardinalities" `Quick test_cards;
          Alcotest.test_case "lookups" `Quick test_lookup;
          Alcotest.test_case "conformance" `Quick test_conformance;
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "one-to-one chains" `Quick test_one_to_one_chain;
          Alcotest.test_case "summary growth" `Quick test_growth;
          Alcotest.test_case "same shape ignores counts" `Quick test_same_shape ] ) ]
