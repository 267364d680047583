(* XAM semantics: the embedding-based evaluation (§4.1) must agree with
   the algebraic structural-join evaluation (§2.2.2), and both must
   reproduce the thesis's worked examples. *)

module P = Xam.Pattern
module F = Xam.Formula
module Rel = Xalgebra.Rel
module V = Xalgebra.Value
module Nid = Xdm.Nid

let doc () = Xworkload.Gen_bib.bib_doc ()

let sid = Nid.Structural

(* χ1 of Fig 2.8: //book{ID, Tag}. *)
let chi1 () = P.make [ P.v "book" ~node:(P.mk_node ~id:sid ~tag:true "book") [] ]

(* χ2: //book{ID, Tag}[@year] — semijoin on the year attribute. *)
let chi2 () =
  P.make
    [ P.v "book" ~node:(P.mk_node ~id:sid ~tag:true "book")
        [ P.v ~axis:P.Child ~sem:P.Semi "@year" [] ] ]

(* χ3: χ2 with the nested title (ID, Tag, Val). *)
let chi3 () =
  P.make
    [ P.v "book" ~node:(P.mk_node ~id:sid ~tag:true "book")
        [ P.v ~axis:P.Child ~sem:P.Semi "@year" [];
          P.v ~axis:P.Child ~sem:P.Nest_join "title"
            ~node:(P.mk_node ~id:sid ~tag:true ~value:true "title")
            [] ] ]

let test_fig_2_8 () =
  let d = doc () in
  let r1 = Xam.Embed.eval d (chi1 ()) in
  Alcotest.(check int) "χ1: both books" 2 (Rel.cardinality r1);
  let r2 = Xam.Embed.eval d (chi2 ()) in
  Alcotest.(check int) "χ2: only the 1999 book has a year" 1 (Rel.cardinality r2);
  let r3 = Xam.Embed.eval d (chi3 ()) in
  (match r3.Rel.tuples with
  | [ t ] ->
      let titles = Rel.atoms_of_path r3.Rel.schema t [ "N2"; "V2" ] in
      Alcotest.(check bool) "χ3 nests the title" true (titles = [ V.Str "Data on the Web" ])
  | _ -> Alcotest.fail "χ3 cardinality")

let test_optional_edges () =
  let d = doc () in
  let p =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:sid "book")
          [ P.v ~axis:P.Child ~sem:P.Outer "@year"
              ~node:(P.mk_node ~value:true "@year") [] ] ]
  in
  let r = Xam.Embed.eval d p in
  Alcotest.(check int) "both books kept" 2 (Rel.cardinality r);
  let nulls =
    List.length (List.filter (fun t -> Rel.atom_field t 1 = V.Null) r.Rel.tuples)
  in
  Alcotest.(check int) "book without year gets ⊥" 1 nulls

let test_formulas () =
  let d = doc () in
  let p =
    P.make
      [ P.v "*" ~node:(P.mk_node ~id:sid ~tag:true "*")
          [ P.v ~axis:P.Child "@year" ~node:(P.mk_node ~formula:(F.eq (V.Int 2004)) "@year") [] ] ]
  in
  let r = Xam.Embed.eval d p in
  (match r.Rel.tuples with
  | [ t ] ->
      Alcotest.(check bool) "only the 2004 thesis matches" true
        (Rel.atom_field t 1 = V.Str "phdthesis")
  | _ -> Alcotest.fail "formula filtering");
  (* wildcard with no match *)
  let none =
    P.make
      [ P.v "title" ~node:(P.mk_node ~id:sid "title")
          [ P.v "@year" ~sem:P.Semi [] ] ]
  in
  Alcotest.(check int) "titles have no year attribute" 0
    (Rel.cardinality (Xam.Embed.eval d none))

let test_multi_root () =
  let d = doc () in
  let p =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:sid "book") [];
        P.v "phdthesis" ~node:(P.mk_node ~id:sid "phdthesis") [] ]
  in
  let r = Xam.Embed.eval d p in
  Alcotest.(check int) "cartesian product of roots" 2 (Rel.cardinality r)

let test_child_vs_descendant () =
  let d = Xdm.Doc.of_string "<a><b><a><c/></a></b><c/></a>" in
  let via_child =
    P.make [ P.v ~axis:P.Child "a" ~node:(P.mk_node ~id:sid "a")
               [ P.v ~axis:P.Child "c" ~node:(P.mk_node ~id:sid "c") [] ] ]
  in
  Alcotest.(check int) "root edge restricts to document root" 1
    (Rel.cardinality (Xam.Embed.eval d via_child));
  let via_desc =
    P.make [ P.v "a" ~node:(P.mk_node ~id:sid "a")
               [ P.v ~axis:P.Child "c" ~node:(P.mk_node ~id:sid "c") [] ] ]
  in
  Alcotest.(check int) "descendant root edge reaches the inner a" 2
    (Rel.cardinality (Xam.Embed.eval d via_desc))

(* Agreement of the two semantics on generated documents and random
   patterns. *)
let agreement_prop =
  let summary_doc = Xworkload.Gen_xmark.generate_doc Xworkload.Gen_xmark.tiny in
  let s = Xsummary.Summary.of_doc summary_doc in
  let params =
    { Xworkload.Pattern_gen.default with
      size = 5;
      return_labels = [ "item"; "name" ];
      value_pred_p = 0.0 (* value predicates rarely hold on random text *) }
  in
  let patterns = Xworkload.Pattern_gen.generate_many ~seed:23 s params ~count:30 in
  QCheck2.Test.make ~name:"Embed and Compile agree" ~count:30
    QCheck2.Gen.(int_bound (List.length patterns - 1))
    (fun i ->
      let p = List.nth patterns i in
      let embed = Xam.Embed.eval summary_doc p in
      let compiled = Compile.eval summary_doc p in
      Rel.equal_unordered embed compiled)

(* --- The compiled evaluator against the reference ---------------------
   [Embed.eval] must return exactly what [Embed_oracle.eval] returns: the
   same schema, the same tuples, in the same order. *)

module Doc = Xdm.Doc
module T = Xdm.Xml_tree

let same_rel (a : Rel.t) (b : Rel.t) =
  a.Rel.schema = b.Rel.schema
  && List.length a.Rel.tuples = List.length b.Rel.tuples
  && List.for_all2 Rel.equal_tuple a.Rel.tuples b.Rel.tuples

let agree_on d p =
  let got = Xam.Embed.eval d p and want = Embed_oracle.eval d p in
  if same_rel got want then None
  else
    Some
      (Format.asprintf "pattern %s@.on %s@.compiled:@.%a@.reference:@.%a" (P.to_string p)
         (T.serialize (Doc.to_tree d (Doc.root d)))
         Rel.pp got Rel.pp want)

(* Small random documents: few labels, repeated at every depth so that
   elements nest in themselves, with attributes and texts some of which
   parse as integers. *)
let random_tree rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let rec go depth =
    if depth = 0 || Random.State.int rng 4 = 0 then
      if Random.State.bool rng then T.text (pick [ "1"; "2"; "x"; "" ])
      else T.elt (pick [ "a"; "b"; "c" ]) []
    else
      let attrs =
        List.filter_map
          (fun n ->
            if Random.State.int rng 3 = 0 then Some (n, pick [ "1"; "2"; "x" ]) else None)
          [ "p"; "q" ]
      in
      T.elt ~attrs (pick [ "a"; "b"; "c" ])
        (List.init (Random.State.int rng 4) (fun _ -> go (depth - 1)))
  in
  T.elt "r" (List.init (1 + Random.State.int rng 3) (fun _ -> go 3))

let random_doc rng =
  let seed = Random.State.bits rng in
  let module W = Xworkload in
  match Random.State.int rng 5 with
  | 0 -> Doc.of_tree (W.Gen_bib.generate ~seed ~books:3 ~theses:2 ())
  | 1 -> Doc.of_tree (W.Gen_dblp.generate ~seed ~entries:4 ())
  | 2 -> Doc.of_tree (W.Gen_sci.nasa ~seed ~datasets:1 ())
  | 3 -> Doc.of_tree (W.Gen_sci.swissprot ~seed ~entries:1 ())
  | _ -> Doc.of_tree (random_tree rng)

(* One random edit through the library's column splice. *)
let random_edit rng d =
  let n = Doc.size d in
  let handles k = List.filter (fun h -> Doc.kind d h = k) (List.init n Fun.id) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  match Random.State.int rng 3 with
  | 0 when n > 1 -> Doc.delete_subtree d (1 + Random.State.int rng (n - 1))
  | 1 -> (
      match List.filter (fun h -> Doc.kind d h <> Doc.Element) (List.init n Fun.id) with
      | [] -> d
      | leaves -> Doc.update_value d (pick leaves) (pick [ "1"; "2"; "x"; "" ]))
  | _ ->
      let parent = pick (handles Doc.Element) in
      let kids = List.filter (fun c -> Doc.kind d c <> Doc.Attribute) (Doc.children d parent) in
      let before = if kids = [] || Random.State.bool rng then None else Some (pick kids) in
      Doc.insert_subtree d ~parent ?before (random_tree rng)

(* Redecorate a pattern: random edge semantics (every kind), ID schemes
   (all four), stored attributes, wildcards of each kind, root axes and
   the ordered flag. Stored attributes come in three modes: an ID on every
   node; an ID or nothing (the nodes the elision may key by a descendant);
   or any mix. *)
let decorate rng (roots : P.tree list) =
  let chance k = Random.State.int rng k = 0 in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let mode = pick [ `All_ids; `Id_or_nothing; `Mixed ] in
  let schemes = [ Nid.Simple; Nid.Ordinal; Nid.Structural; Nid.Parental ] in
  let rec go ~top (t : P.tree) : P.tree =
    let n = t.node in
    let label =
      if not (chance 6) then n.label
      else if P.label_is_attribute n.label then "@*"
      else if String.equal n.label "#text" then n.label
      else "*"
    in
    let id_scheme = if mode = `All_ids || chance 2 then Some (pick schemes) else None in
    let others = mode = `Mixed in
    let node =
      { n with label; id_scheme; tag_stored = others && chance 4;
        val_stored = others && chance 3; cont_stored = others && chance 12 }
    in
    let edge =
      { P.axis = (if chance (if top then 4 else 5) then P.Child else t.edge.axis);
        sem =
          (if top then P.Join
           else pick [ P.Join; P.Join; P.Outer; P.Semi; P.Nest_join; P.Nest_outer ]) }
    in
    { P.node; edge; children = List.map (go ~top:false) t.children }
  in
  P.make ~ordered:(not (chance 4)) (List.map (go ~top:true) roots)

let generated_roots rng d =
  let s = Xsummary.Summary.of_doc d in
  let labels = List.filter (fun l -> l <> "#text") (Doc.labels d) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let params =
    { Xworkload.Pattern_gen.default with
      size = 1 + Random.State.int rng 5;
      return_labels =
        List.sort_uniq compare (List.init (1 + Random.State.int rng 2) (fun _ -> pick labels));
      wildcard_p = 0.2;
      value_pred_p = 0.2;
      distinct_values = 3 }
  in
  match Xworkload.Pattern_gen.generate rng s params with
  | Some p -> p.P.roots
  | None -> []

let pattern_of rng d =
  let roots =
    List.concat (List.init (1 + Random.State.int rng 2) (fun _ -> generated_roots rng d))
  in
  decorate rng (if roots = [] then [ P.v "*" [] ] else roots)

(* [d] followed by up to three random edits of it, each on the last. *)
let edit_versions rng d =
  List.rev
    (List.fold_left
       (fun acc _ -> random_edit rng (List.hd acc) :: acc)
       [ d ]
       (List.init (Random.State.int rng 4) Fun.id))

let oracle_prop =
  QCheck2.Test.make ~name:"Embed = reference, before and after edits" ~count:300
    ~long_factor:20 QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d = random_doc rng in
      let patterns = List.init 4 (fun _ -> pattern_of rng d) in
      let versions = edit_versions rng d in
      List.iter
        (fun v ->
          List.iter
            (fun p ->
              match agree_on v p with
              | None -> ()
              | Some msg -> QCheck2.Test.fail_reportf "seed %d: %s" seed msg)
            patterns)
        versions;
      true)

(* The boundary of the dedup/sort elision, case by case, each on a
   document before and after one edit of each kind. *)
let elision_doc () =
  Doc.of_string
    "<r><x p=\"1\"><y>1</y><x q=\"2\"><y>2</y><y>2</y></x><y>3</y></x>\
     <x><z>x</z><y>1</y></x><w>t</w><x><y>5</y></x></r>"

let elision_versions () =
  let d = elision_doc () in
  ignore (Doc.nodes_with_label d "y");
  let inner_x = List.nth (Doc.nodes_with_label d "x") 1 in
  let inner_y = List.find (fun c -> Doc.kind d c = Doc.Element) (Doc.children d inner_x) in
  [ ("unedited", d);
    ( "insert",
      Doc.insert_subtree d ~parent:inner_x ~before:inner_y (T.parse "<x><y>4</y><y>1</y></x>") );
    ("delete", Doc.delete_subtree d inner_x);
    ("update", Doc.update_value d (List.hd (Doc.nodes_with_label d "#text")) "9") ]

let id ?(scheme = sid) ?value label = P.mk_node ~id:scheme ?value label

let elision_cases () =
  [ ("//* root", P.make [ P.v "*" ~node:(id "*") [] ]);
    ("//@* root", P.make [ P.v "@*" ~node:(P.mk_node ~id:Nid.Simple ~value:true "@*") [] ]);
    ("//#text root", P.make [ P.v "#text" ~node:(P.mk_node ~value:true "#text") [] ]);
    ( "descendant sub-edges",
      P.make [ P.v "x" ~node:(id "x") [ P.v "y" ~node:(id ~scheme:Nid.Parental "y") [] ] ] );
    ( "outer edge without a match",
      P.make
        [ P.v "x" ~node:(id "x") [ P.v ~axis:P.Child ~sem:P.Outer "z" ~node:(id "z") [] ] ] );
    ( "nest-outer edge without a match",
      P.make
        [ P.v "x" ~node:(id "x")
            [ P.v ~axis:P.Child ~sem:P.Nest_outer "z" ~node:(id ~value:true "z") [] ] ] );
    ( "multi-root product",
      P.make [ P.v "w" ~node:(id "w") []; P.v "y" ~node:(id ~scheme:Nid.Ordinal "y") [] ] );
    ( "unordered",
      P.make ~ordered:false
        [ P.v "r" ~axis:P.Child ~node:(P.mk_node "r")
            [ P.v "x" [ P.v ~axis:P.Child "y" ~node:(P.mk_node ~value:true "y") [] ] ] ] );
    ( "dedup needed: a non-ID node, two embeddings, one tuple",
      P.make [ P.v "x" [ P.v ~axis:P.Child "y" ~node:(P.mk_node ~value:true "y") [] ] ] );
    ( "sort needed: /r//x/y{ID} over nested x",
      P.make
        [ P.v ~axis:P.Child "r" ~node:(P.mk_node "r")
            [ P.v "x" [ P.v ~axis:P.Child "y" ~node:(id "y") [] ] ] ] );
    ( "sort needed: a value before the leading ID",
      P.make
        [ P.v ~axis:P.Child "r" ~node:(P.mk_node "r")
            [ P.v ~axis:P.Child "x" ~node:(P.mk_node ~value:true "x")
                [ P.v ~axis:P.Child "y" ~node:(id "y") [] ] ] ] );
    ( "dedup and sort needed: an optional leading ID",
      P.make
        [ P.v ~axis:P.Child "r" ~node:(P.mk_node "r")
            [ P.v ~axis:P.Child "x"
                [ P.v ~axis:P.Child ~sem:P.Outer "z" ~node:(id "z") [] ] ] ] );
    ( "keyed by a child: /r/x/y{ID}",
      P.make
        [ P.v ~axis:P.Child "r" ~node:(P.mk_node "r")
            [ P.v ~axis:P.Child "x" [ P.v ~axis:P.Child "y" ~node:(id "y") [] ] ] ] );
    ( "nested level without IDs",
      P.make
        [ P.v "x" ~node:(id "x")
            [ P.v "y" ~sem:P.Nest_join ~node:(P.mk_node ~value:true "y") [] ] ] ) ]

let test_elision_boundary () =
  List.iter
    (fun (version, d) ->
      List.iter
        (fun (case, p) ->
          match agree_on d p with
          | None -> ()
          | Some msg -> Alcotest.failf "%s, %s: %s" case version msg)
        (elision_cases ()))
    (elision_versions ())

(* The two cases the elision must not take: their reference results are
   deduplicated and re-sorted, visibly. *)
let test_elision_needed () =
  let d = elision_doc () in
  let cases = elision_cases () in
  let case name = List.assoc name cases in
  let dedup = Xam.Embed.eval d (case "dedup needed: a non-ID node, two embeddings, one tuple") in
  Alcotest.(check int) "values y under x, deduplicated" 4 (Rel.cardinality dedup);
  let sorted = Xam.Embed.eval d (case "sort needed: /r//x/y{ID} over nested x") in
  let ids = List.map (fun t -> Rel.atom_field t 0) sorted.Rel.tuples in
  Alcotest.(check bool) "y IDs in document order" true (List.sort V.compare ids = ids);
  Alcotest.(check int) "every y once" 6 (List.length ids);
  Option.iter Alcotest.fail (agree_on d (case "sort needed: /r//x/y{ID} over nested x"))

(* Pass-through nodes: where a node hands its one flattened child's tuples
   up unchanged, and the shapes that must not take that shortcut. Each
   case names the labels expected to pass through, and must agree with
   the reference on every elision version. *)
let pass_through_cases () =
  let r children = P.v ~axis:P.Child "r" ~node:(P.mk_node "r") children in
  [ ( "a path chain /r/x/y{ID}",
      [ "r"; "x" ],
      P.make [ r [ P.v ~axis:P.Child "x" [ P.v ~axis:P.Child "y" ~node:(id "y") [] ] ] ] );
    ( "a chain with a semi sibling /r/x[@p]/y{ID}",
      [ "r"; "x" ],
      P.make
        [ r
            [ P.v ~axis:P.Child "x"
                [ P.v ~axis:P.Child ~sem:P.Semi "@p" [];
                  P.v ~axis:P.Child "y" ~node:(id "y") [] ] ] ] );
    ( "a chain with a filtering child //x[z]/y{V}",
      [ "x" ],
      P.make
        [ P.v "x"
            [ P.v ~axis:P.Child "z" [];
              P.v ~axis:P.Child "y" ~node:(P.mk_node ~value:true "y") [] ] ] );
    ( "an optional flat child",
      [],
      P.make [ P.v "x" [ P.v ~axis:P.Child ~sem:P.Outer "y" ~node:(id "y") [] ] ] );
    ( "own stored attributes",
      [],
      P.make [ P.v "x" ~node:(id "x") [ P.v ~axis:P.Child "y" ~node:(id "y") [] ] ] );
    ( "two placed children",
      [],
      P.make
        [ P.v "x"
            [ P.v ~axis:P.Child "y" ~node:(id "y") [];
              P.v ~axis:P.Child "z" ~node:(id "z") [] ] ] );
    ( "a nest child",
      [],
      P.make [ P.v "x" [ P.v ~axis:P.Child ~sem:P.Nest_join "y" ~node:(id "y") [] ] ] ) ]

let test_pass_through () =
  List.iter
    (fun (case, labels, p) ->
      let label_of nid = (List.find (fun (n : P.node) -> n.P.nid = nid) (P.nodes p)).P.label in
      Alcotest.(check (list string)) (case ^ ": pass-through nodes") labels
        (List.map label_of (Xam.Embed.pass_through p));
      List.iter
        (fun (version, d) ->
          match agree_on d p with
          | None -> ()
          | Some msg -> Alcotest.failf "%s, %s: %s" case version msg)
        (elision_versions ()))
    (pass_through_cases ())

(* --- The one-pass summary against the hash-table reference --------------
   [Summary.build] must give [Summary_oracle.build]'s export rows (labels,
   parents, cardinalities, counts) and its φ, on random documents before
   and after edits and on a document of each workload generator. *)

let summary_agrees d =
  let s, phi = Xsummary.Summary.build d and s', phi' = Summary_oracle.build d in
  Xsummary.Summary.export s = Xsummary.Summary.export s' && phi = phi'

let generator_doc seed =
  let module W = Xworkload in
  match seed land max_int mod 6 with
  | 0 -> W.Gen_bib.generate_doc ~seed ~books:6 ~theses:3 ()
  | 1 -> W.Gen_dblp.generate_doc ~seed ~entries:8 ()
  | 2 -> W.Gen_xmark.generate_doc ~seed W.Gen_xmark.tiny
  | 3 -> W.Gen_sci.nasa_doc ~seed ~datasets:2 ()
  | 4 -> W.Gen_sci.swissprot_doc ~seed ~entries:2 ()
  | _ -> W.Gen_shakespeare.generate_doc ~seed ~plays:1 ()

let summary_prop =
  QCheck2.Test.make ~name:"Summary.build = reference, before and after edits" ~count:300
    ~long_factor:20 QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.iter
        (fun d ->
          if not (summary_agrees d) then
            QCheck2.Test.fail_reportf "seed %d: summaries differ on %s" seed
              (T.serialize (Doc.to_tree d (Doc.root d))))
        (generator_doc seed :: edit_versions rng (random_doc rng));
      true)

(* --- Snapshot codecs are the identity ------------------------------------
   The version 3 document layout stores no parent, depth, ordinal or post
   and derives them on decode; extents go through the same codec under
   both integer encodings. On the same documents as the summary property,
   with each version's path-partitioned catalog. *)

let roundtrip ints w r x =
  let b = Xpersist.Binio.writer ~ints () in
  w b x;
  let rd = Xpersist.Binio.reader ~ints (Xpersist.Binio.contents b) in
  let got = r rd in
  Xpersist.Binio.expect_end rd;
  got

let codec_identity d =
  let module Codec = Xpersist.Codec in
  let module Store = Xstorage.Store in
  let d' = roundtrip Xpersist.Binio.Varint Codec.w_doc Codec.r_doc d in
  let rels (m : Store.module_) =
    m.Store.extent
    :: (match m.Store.parts with
       | None -> []
       | Some p -> List.map (fun (q : Store.partition) -> q.Store.p_rel) p.Store.pt_parts)
  in
  let rel_ok rel =
    List.for_all
      (fun ints -> roundtrip ints Codec.w_rel Codec.r_rel rel = rel)
      [ Xpersist.Binio.Fixed; Xpersist.Binio.Varint ]
  in
  let catalog = Store.catalog_of d (Xstorage.Models.path_partitioned (Xsummary.Summary.of_doc d)) in
  String.equal (Doc.name d') (Doc.name d)
  && Doc_pack.pack d' = Doc_pack.pack d
  && List.for_all (fun m -> List.for_all rel_ok (rels m)) catalog.Store.modules

let codec_prop =
  QCheck2.Test.make ~name:"v3 document and extent codecs are the identity" ~count:50
    ~long_factor:20 QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.iter
        (fun d ->
          if not (codec_identity d) then
            QCheck2.Test.fail_reportf "seed %d: codecs do not round-trip %s" seed
              (T.serialize (Doc.to_tree d (Doc.root d))))
        (generator_doc seed :: edit_versions rng (random_doc rng));
      true)

let () =
  Alcotest.run "semantics"
    [ ( "semantics",
        [ Alcotest.test_case "Fig 2.8 examples" `Quick test_fig_2_8;
          Alcotest.test_case "optional edges" `Quick test_optional_edges;
          Alcotest.test_case "value formulas" `Quick test_formulas;
          Alcotest.test_case "multiple roots" `Quick test_multi_root;
          Alcotest.test_case "child vs descendant root edges" `Quick test_child_vs_descendant;
          Alcotest.test_case "elision boundary agrees with the reference" `Quick
            test_elision_boundary;
          Alcotest.test_case "dedup and sort where they are needed" `Quick
            test_elision_needed;
          Alcotest.test_case "pass-through nodes agree with the reference" `Quick
            test_pass_through ] );
      ( "props",
        [ QCheck_alcotest.to_alcotest agreement_prop;
          QCheck_alcotest.to_alcotest oracle_prop ] );
      ("summary", [ QCheck_alcotest.to_alcotest summary_prop ]);
      ("codec", [ QCheck_alcotest.to_alcotest codec_prop ]) ]
