(* The iterator-based physical engine: StackTreeDesc/StackTreeAnc
   correctness and ordering, and agreement with the set-at-a-time engine
   on whole plans. *)

module Rel = Xalgebra.Rel
module L = Xalgebra.Logical
module E = Xalgebra.Eval
module Ph = Xalgebra.Physical
module V = Xalgebra.Value
module Nid = Xdm.Nid
module Doc = Xdm.Doc

let doc = Xworkload.Gen_bib.generate_doc ~seed:3 ~books:25 ~theses:10 ()

let keyed label =
  List.map
    (fun h ->
      let id = Doc.id Nid.Structural doc h in
      (id, [| Rel.A (V.Id id) |]))
    (Doc.nodes_with_label doc label)
  |> Array.of_list

let naive axis ancs descs =
  List.concat_map
    (fun (a, at) ->
      List.filter_map
        (fun (d, dt) ->
          let ok =
            match axis with
            | L.Descendant -> Nid.is_ancestor a d = Some true
            | L.Child -> Nid.is_parent a d = Some true
          in
          if ok then Some (at, dt) else None)
        (Array.to_list descs))
    (Array.to_list ancs)

let id_of t = match t.(0) with Rel.A (V.Id id) -> id | _ -> assert false

let test_stack_tree_correct () =
  List.iter
    (fun (al, dl, axis) ->
      let ancs = keyed al and descs = keyed dl in
      let expected = List.length (naive axis ancs descs) in
      Alcotest.(check int)
        (Printf.sprintf "desc pairs %s->%s" al dl)
        expected
        (List.length (Ph.stack_tree_desc ~axis ancs descs));
      Alcotest.(check int)
        (Printf.sprintf "anc pairs %s->%s" al dl)
        expected
        (List.length (Ph.stack_tree_anc ~axis ancs descs)))
    [ ("book", "author", L.Child); ("book", "#text", L.Descendant);
      ("library", "title", L.Descendant); ("book", "title", L.Child);
      ("author", "book", L.Child) (* empty result *) ]

let test_stack_tree_order () =
  let ancs = keyed "book" and descs = keyed "#text" in
  let by_desc = Ph.stack_tree_desc ~axis:L.Descendant ancs descs in
  let rec sorted f = function
    | a :: b :: rest -> Nid.compare (f a) (f b) <= 0 && sorted f (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "StackTreeDesc output ordered by descendant" true
    (sorted (fun (_, d) -> id_of d) by_desc);
  let by_anc = Ph.stack_tree_anc ~axis:L.Descendant ancs descs in
  Alcotest.(check bool) "StackTreeAnc output ordered by ancestor" true
    (sorted (fun (a, _) -> id_of a) by_anc);
  Alcotest.(check int) "same multiset" (List.length by_desc) (List.length by_anc)

(* Agreement: physical = logical evaluation over compiled patterns and
   hand-built plans. *)
let check_agreement name env plan =
  let a = E.run env plan and b = Ph.run env plan in
  Alcotest.(check bool) name true (Rel.equal_unordered a b)

let test_agreement_patterns () =
  let summary_doc = Xworkload.Gen_xmark.generate_doc Xworkload.Gen_xmark.tiny in
  let s = Xsummary.Summary.of_doc summary_doc in
  let params =
    { Xworkload.Pattern_gen.default with size = 5; return_labels = [ "item"; "name" ];
      value_pred_p = 0.0 }
  in
  let pats = Xworkload.Pattern_gen.generate_many ~seed:8 s params ~count:15 in
  let env = Compile.env summary_doc in
  List.iteri
    (fun i p ->
      check_agreement (Printf.sprintf "pattern %d" i) env (Compile.plan p))
    pats

let test_agreement_operators () =
  let sch = [ Rel.atom "K"; Rel.atom "W" ] in
  let r1 =
    Rel.make sch
      (List.init 20 (fun i -> [| Rel.A (V.Int (i mod 7)); Rel.A (V.Str (string_of_int i)) |]))
  in
  let r2 =
    Rel.make [ Rel.atom "J" ] (List.init 10 (fun i -> [| Rel.A (V.Int i) |]))
  in
  (* Equal tuples, one whose fields share a string and one holding two
     copies: duplicate elimination must see them as one. *)
  let shared =
    let s = String.make 3 'a' in
    Rel.make [ Rel.atom "A"; Rel.atom "B" ]
      [ [| Rel.A (V.Str s); Rel.A (V.Str s) |];
        [| Rel.A (V.Str (String.make 3 'a')); Rel.A (V.Str (String.make 3 'a')) |] ]
  in
  (* Two equal right tuples: each joins, as under nested loops. *)
  let twins = Rel.make [ Rel.atom "J" ] [ [| Rel.A (V.Int 1) |]; [| Rel.A (V.Int 1) |] ] in
  let env = E.env_of_list [ ("r1", r1); ("r2", r2); ("shared", shared); ("twins", twins) ] in
  let eq = Xalgebra.Pred.Cmp (Xalgebra.Pred.Col [ "K" ], Xalgebra.Pred.Eq, Xalgebra.Pred.Col [ "J" ]) in
  List.iter
    (fun (name, plan) -> check_agreement name env plan)
    [ ("hash join", L.Join { kind = L.Inner; pred = eq; nest_as = ""; left = L.Scan "r1"; right = L.Scan "r2" });
      ("left outer", L.Join { kind = L.LeftOuter; pred = eq; nest_as = ""; left = L.Scan "r1"; right = L.Scan "r2" });
      ("semi", L.Join { kind = L.Semi; pred = eq; nest_as = ""; left = L.Scan "r1"; right = L.Scan "r2" });
      ("hash join, equal right tuples",
       L.Join { kind = L.Inner; pred = eq; nest_as = ""; left = L.Scan "r1"; right = L.Scan "twins" });
      ("left outer, equal right tuples",
       L.Join { kind = L.LeftOuter; pred = eq; nest_as = ""; left = L.Scan "r1"; right = L.Scan "twins" });
      ("dedup ignores physical sharing",
       L.Project { cols = [ [ "A" ]; [ "B" ] ]; dedup = true; input = L.Scan "shared" });
      ("select+project",
       L.Project { cols = [ [ "W" ] ]; dedup = true;
                   input = L.Select (Xalgebra.Pred.Cmp (Xalgebra.Pred.Col [ "K" ], Xalgebra.Pred.Gt, Xalgebra.Pred.Const (V.Int 3)), L.Scan "r1") });
      ("union", L.Union (L.Scan "r1", L.Scan "r1"));
      ("diff", L.Diff (L.Scan "r1", L.Scan "r1"));
      ("product", L.Product (L.Scan "r2", L.Scan "r2"));
      ("sort", L.Sort ([ "K" ], L.Scan "r1"));
      ("rename", L.Rename ([ ("K", "K2") ], L.Scan "r1"));
      ("reorder", L.Reorder ([ 1; 0 ], L.Scan "r1")) ]

let test_struct_join_plan () =
  let books =
    Rel.make [ Rel.atom "B" ]
      (List.map (fun h -> [| Rel.A (V.Id (Doc.id Nid.Structural doc h)) |])
         (Doc.nodes_with_label doc "book"))
  in
  let titles =
    Rel.make [ Rel.atom "T" ]
      (List.map (fun h -> [| Rel.A (V.Id (Doc.id Nid.Structural doc h)) |])
         (Doc.nodes_with_label doc "title"))
  in
  let env = E.env_of_list [ ("books", books); ("titles", titles) ] in
  let plan =
    L.Struct_join
      { kind = L.Inner; axis = L.Child; lpath = [ "B" ]; rpath = [ "T" ]; nest_as = "";
        left = L.Scan "books"; right = L.Scan "titles" }
  in
  check_agreement "struct join plan" env plan;
  (* The physical output honours the StackTreeDesc order descriptor. *)
  let p = Ph.compile env plan in
  Alcotest.(check bool) "order descriptor is the descendant column" true
    (p.Ph.order = Some [ "T" ])

let test_scan_order_detection () =
  let sorted =
    Rel.make [ Rel.atom "I" ]
      (List.init 5 (fun i -> [| Rel.A (V.Id (Nid.Pre_post { pre = i; post = 100 - i; depth = 1 })) |]))
  in
  let env = E.env_of_list [ ("sorted", sorted) ] in
  let p = Ph.compile env (L.Scan "sorted") in
  Alcotest.(check bool) "sorted scan advertises its order" true (p.Ph.order = Some [ "I" ]);
  let shuffled = Rel.make sorted.Rel.schema (List.rev sorted.Rel.tuples) in
  let env2 = E.env_of_list [ ("shuffled", shuffled) ] in
  let p2 = Ph.compile env2 (L.Scan "shuffled") in
  Alcotest.(check bool) "unsorted scan advertises none" true (p2.Ph.order = None)

(* Edge cases: empty inputs, duplicate identifiers (runs through
   group_runs), and LeftOuter null padding. *)
let test_stack_tree_empty () =
  let books = keyed "book" in
  let empty = [||] in
  List.iter
    (fun (name, ancs, descs) ->
      Alcotest.(check int) (name ^ " (desc)") 0
        (List.length (Ph.stack_tree_desc ~axis:L.Descendant ancs descs));
      Alcotest.(check int) (name ^ " (anc)") 0
        (List.length (Ph.stack_tree_anc ~axis:L.Descendant ancs descs)))
    [ ("empty ancestors", empty, books);
      ("empty descendants", books, empty);
      ("both empty", empty, empty) ]

let test_stack_tree_duplicates () =
  (* The same ancestor identifier carried by several tuples — a run for
     group_runs: every copy must pair with every structural match. *)
  let dup k arr =
    let a =
      Array.concat
        (List.init k (fun i ->
             Array.map
               (fun (id, t) -> (id, Array.append t [| Rel.A (V.Int i) |]))
               arr))
    in
    Array.sort (fun (x, _) (y, _) -> Nid.compare x y) a;
    a
  in
  let books = keyed "book" and descs = keyed "title" in
  let expected = 3 * List.length (naive L.Child books descs) in
  let ancs = dup 3 books in
  Alcotest.(check int) "duplicated ancestors multiply pairs (desc)" expected
    (List.length (Ph.stack_tree_desc ~axis:L.Child ancs descs));
  Alcotest.(check int) "duplicated ancestors multiply pairs (anc)" expected
    (List.length (Ph.stack_tree_anc ~axis:L.Child ancs descs))

let test_struct_outer_padding () =
  let rel_of label col =
    Rel.make [ Rel.atom col ]
      (List.map
         (fun h -> [| Rel.A (V.Id (Doc.id Nid.Structural doc h)) |])
         (Doc.nodes_with_label doc label))
  in
  (* No author has a title child: LeftOuter keeps every left tuple and
     pads the right side with null. *)
  let authors = rel_of "author" "A" and titles = rel_of "title" "T" in
  let env = E.env_of_list [ ("authors", authors); ("titles", titles) ] in
  let plan =
    L.Struct_join
      { kind = L.LeftOuter; axis = L.Child; lpath = [ "A" ]; rpath = [ "T" ];
        nest_as = ""; left = L.Scan "authors"; right = L.Scan "titles" }
  in
  check_agreement "outer struct join agreement" env plan;
  let out = Ph.run env plan in
  Alcotest.(check int) "all left tuples survive" (Rel.cardinality authors)
    (Rel.cardinality out);
  List.iter
    (fun t ->
      Alcotest.(check bool) "right side null-padded" true (t.(1) = Rel.A V.Null))
    out.Rel.tuples

(* Property: stack join = naive join on random subsets of a document's
   nodes. *)
let stack_prop =
  let all = Array.init (Doc.size doc) (fun h -> h) in
  QCheck2.Test.make ~name:"stack joins match naive pairs" ~count:100
    QCheck2.Gen.(pair (list_size (int_bound 25) (int_bound (Array.length all - 1)))
                   (list_size (int_bound 25) (int_bound (Array.length all - 1))))
    (fun (hs1, hs2) ->
      let mk hs =
        List.sort_uniq compare hs
        |> List.map (fun h ->
               let id = Doc.id Nid.Structural doc h in
               (id, [| Rel.A (V.Id id) |]))
        |> Array.of_list
      in
      let ancs = mk hs1 and descs = mk hs2 in
      let expected = List.length (naive L.Descendant ancs descs) in
      List.length (Ph.stack_tree_desc ~axis:L.Descendant ancs descs) = expected
      && List.length (Ph.stack_tree_anc ~axis:L.Descendant ancs descs) = expected)

let () =
  Alcotest.run "physical"
    [ ( "stack-tree",
        [ Alcotest.test_case "correctness" `Quick test_stack_tree_correct;
          Alcotest.test_case "order guarantees" `Quick test_stack_tree_order;
          Alcotest.test_case "empty inputs" `Quick test_stack_tree_empty;
          Alcotest.test_case "duplicate ancestors" `Quick test_stack_tree_duplicates;
          Alcotest.test_case "outer join null padding" `Quick
            test_struct_outer_padding ] );
      ( "engine",
        [ Alcotest.test_case "agreement on compiled patterns" `Quick
            test_agreement_patterns;
          Alcotest.test_case "agreement on operators" `Quick test_agreement_operators;
          Alcotest.test_case "structural join plan" `Quick test_struct_join_plan;
          Alcotest.test_case "scan order detection" `Quick test_scan_order_detection ] );
      ("props", [ QCheck_alcotest.to_alcotest stack_prop ]) ]
