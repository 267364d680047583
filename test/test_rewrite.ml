(* View-based rewriting (Ch. 5). Every rewriting the engine emits is
   executed against the materialized views and compared with the direct
   evaluation of the query — end-to-end correctness, not just the
   equivalence test's own opinion. *)

module P = Xam.Pattern
module R = Xam.Rewrite
module F = Xam.Formula
module S = Xsummary.Summary
module Rel = Xalgebra.Rel
module V = Xalgebra.Value
module Eval = Xalgebra.Eval

let bib = Xworkload.Gen_bib.bib_doc
let sid = Xdm.Nid.Structural
let dewey = Xdm.Nid.Parental

let view name pattern = { R.vname = name; vpattern = pattern }

let materialize doc views = Eval.env_of_list
    (List.map (fun (v : R.view) -> (v.R.vname, Xam.Embed.eval doc v.R.vpattern)) views)

(* Execute every rewriting and compare (as sets, up to column order the
   projection fixed) with the direct evaluation. *)
let check_rewritings doc s query views ~expect_some =
  let rws = R.rewrite s ~query ~views in
  if expect_some then
    Alcotest.(check bool) "at least one rewriting" true (rws <> []);
  let env = materialize doc views in
  let direct = Xam.Embed.eval doc query in
  List.iter
    (fun (r : R.rewriting) ->
      let out = Xalgebra.Physical.run env r.R.plan in
      Alcotest.(check bool)
        ("plan equals direct: " ^ Xalgebra.Logical.to_string r.R.plan)
        true
        (Rel.cardinality out = Rel.cardinality direct
        && List.for_all
             (fun t -> List.exists (Rel.equal_tuple t) direct.Rel.tuples)
             out.Rel.tuples))
    rws;
  rws

let test_structural_join_rewriting () =
  let doc = bib () in
  let s = S.of_doc doc in
  let query =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:sid "book")
          [ P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]
  in
  let views =
    [ view "Vbook" (P.make [ P.v "book" ~node:(P.mk_node ~id:sid "book") [] ]);
      view "Vtitle"
        (P.make [ P.v "title" ~node:(P.mk_node ~id:sid ~value:true "title") [] ]) ]
  in
  let rws = check_rewritings doc s query views ~expect_some:true in
  Alcotest.(check bool) "uses both views" true
    (List.exists (fun (r : R.rewriting) -> List.length r.R.views_used = 2) rws)

let test_single_view () =
  let doc = bib () in
  let s = S.of_doc doc in
  let query = P.make [ P.v "book" ~node:(P.mk_node ~id:sid "book") [] ] in
  (* The view stores more (title semijoin is implied by the 1-edge). *)
  let views =
    [ view "V"
        (P.make
           [ P.v "book" ~node:(P.mk_node ~id:sid "book")
               [ P.v ~axis:P.Child ~sem:P.Semi "title" [] ] ]) ]
  in
  ignore (check_rewritings doc s query views ~expect_some:true)

let test_selection_compensation () =
  let doc = bib () in
  let s = S.of_doc doc in
  let query =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:sid "book")
          [ P.v ~axis:P.Child "@year"
              ~node:(P.mk_node ~formula:(F.eq (V.Int 1999)) "@year")
              [] ] ]
  in
  (* The view stores all years; a compensating σ is needed. *)
  let views =
    [ view "Vyear"
        (P.make
           [ P.v "book" ~node:(P.mk_node ~id:sid "book")
               [ P.v ~axis:P.Child "@year" ~node:(P.mk_node ~value:true "@year") [] ] ]) ]
  in
  let rws = check_rewritings doc s query views ~expect_some:true in
  Alcotest.(check bool) "plan contains a selection" true
    (List.exists
       (fun (r : R.rewriting) ->
         let rec has_select = function
           | Xalgebra.Logical.Select _ -> true
           | Xalgebra.Logical.Project { input; _ } -> has_select input
           | Xalgebra.Logical.Rename (_, i) -> has_select i
           | _ -> false
         in
         has_select r.R.plan)
       rws)

let test_extract_compensation () =
  let doc = bib () in
  let s = S.of_doc doc in
  (* Query wants author values; the only view stores book contents. *)
  let query =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:sid "book")
          [ P.v ~axis:P.Child "author" ~node:(P.mk_node ~value:true "author") [] ] ]
  in
  let views =
    [ view "Vcont"
        (P.make [ P.v "book" ~node:(P.mk_node ~id:sid ~cont:true "book") [] ]) ]
  in
  ignore (check_rewritings doc s query views ~expect_some:true)

let test_derive_parent_ids () =
  let doc = bib () in
  let s = S.of_doc doc in
  (* Query wants the (Dewey) IDs of books with a title; the view stores
     the title's Dewey ID, from which the parent book's is derivable. *)
  let query =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:dewey "book")
          [ P.v ~axis:P.Child ~sem:P.Semi "title" [] ] ]
  in
  let views =
    [ view "Vtid"
        (P.make
           [ P.v "book" [ P.v ~axis:P.Child "title" ~node:(P.mk_node ~id:dewey "title") [] ] ]) ]
  in
  let rws = check_rewritings doc s query views ~expect_some:true in
  Alcotest.(check bool) "plan derives the parent id" true
    (List.exists
       (fun (r : R.rewriting) ->
         let rec has_derive = function
           | Xalgebra.Logical.Derive _ -> true
           | Xalgebra.Logical.Project { input; _ } -> has_derive input
           | Xalgebra.Logical.Select (_, i) | Xalgebra.Logical.Rename (_, i) ->
               has_derive i
           | _ -> false
         in
         has_derive r.R.plan)
       rws)

let test_no_unsound_rewriting () =
  let doc = bib () in
  let s = S.of_doc doc in
  (* Query: phdthesis IDs. The only view stores book IDs — no rewriting
     should be produced. *)
  let query = P.make [ P.v "phdthesis" ~node:(P.mk_node ~id:sid "phdthesis") [] ] in
  let views = [ view "Vbook" (P.make [ P.v "book" ~node:(P.mk_node ~id:sid "book") [] ]) ] in
  Alcotest.(check int) "no rewriting from the wrong view" 0
    (List.length (R.rewrite s ~query ~views));
  (* A *-view is not equivalent either (it also returns theses). *)
  let star = [ view "Vstar" (P.make [ P.v "*" ~node:(P.mk_node ~id:sid "*") [] ]) ] in
  let query_book = P.make [ P.v "book" ~node:(P.mk_node ~id:sid "book") [] ] in
  Alcotest.(check int) "star view alone is not equivalent" 0
    (List.length (R.rewrite s ~query:query_book ~views:star))

let test_nested_view_rewriting () =
  let doc = bib () in
  let s = S.of_doc doc in
  (* V1-style view: books with nested optional authors — matches the query
     exactly. *)
  let pat =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:sid "book")
          [ P.v ~axis:P.Child ~sem:P.Nest_outer "author"
              ~node:(P.mk_node ~value:true "author") [] ] ]
  in
  let views = [ view "Vnested" pat ] in
  ignore (check_rewritings doc s pat views ~expect_some:true)

let test_index_views () =
  let doc = bib () in
  let s = S.of_doc doc in
  (* The booksByYearTitle index as a view: required year and title values. *)
  let idx_pattern =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:sid "book")
          [ P.v ~axis:P.Child "@year"
              ~node:(P.mk_node ~value:true ~val_required:true "@year") [];
            P.v ~axis:P.Child "title"
              ~node:(P.mk_node ~value:true ~val_required:true "title") [] ] ]
  in
  let views = [ view "idxYT" idx_pattern ] in
  (* A query pinning both keys: the index is usable. *)
  let pinned =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:sid "book")
          [ P.v ~axis:P.Child "@year"
              ~node:(P.mk_node ~formula:(F.eq (V.Int 1999)) "@year") [];
            P.v ~axis:P.Child "title"
              ~node:(P.mk_node ~formula:(F.eq (V.Str "Data on the Web")) "title") [] ] ]
  in
  let rws = check_rewritings doc s pinned views ~expect_some:true in
  Alcotest.(check bool) "index usable with pinned keys" true (rws <> []);
  (* A query leaving the title key free: the index cannot serve it. *)
  let unpinned =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:sid "book")
          [ P.v ~axis:P.Child "@year"
              ~node:(P.mk_node ~formula:(F.eq (V.Int 1999)) "@year") [] ] ]
  in
  Alcotest.(check int) "index unusable without all keys" 0
    (List.length (R.rewrite s ~query:unpinned ~views))

let test_best_is_minimal () =
  let doc = bib () in
  let s = S.of_doc doc in
  let query = P.make [ P.v "book" ~node:(P.mk_node ~id:sid "book") [] ] in
  let views =
    [ view "Vexact" (P.make [ P.v "book" ~node:(P.mk_node ~id:sid "book") [] ]);
      view "Vtitle"
        (P.make [ P.v "title" ~node:(P.mk_node ~id:sid "title") [] ]) ]
  in
  let rws = check_rewritings doc s query views ~expect_some:true in
  match R.best rws with
  | Some r -> Alcotest.(check int) "best uses one view" 1 (List.length r.R.views_used)
  | None -> Alcotest.fail "no rewriting"

let () =
  Alcotest.run "rewrite"
    [ ( "rewrite",
        [ Alcotest.test_case "structural join of two views" `Quick
            test_structural_join_rewriting;
          Alcotest.test_case "single view" `Quick test_single_view;
          Alcotest.test_case "selection compensation" `Quick test_selection_compensation;
          Alcotest.test_case "navigation into stored content" `Quick
            test_extract_compensation;
          Alcotest.test_case "parent-ID derivation (Dewey)" `Quick test_derive_parent_ids;
          Alcotest.test_case "unsound candidates rejected" `Quick test_no_unsound_rewriting;
          Alcotest.test_case "nested optional views" `Quick test_nested_view_rewriting;
          Alcotest.test_case "index views (required keys)" `Quick test_index_views;
          Alcotest.test_case "minimal plan chosen" `Quick test_best_is_minimal ] ) ]
