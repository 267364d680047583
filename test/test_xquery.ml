(* The XQuery subset: parsing, pattern extraction (Ch. 3), and the
   correctness property that the extraction-based evaluation agrees with a
   direct navigational interpreter. *)

module Ast = Xquery.Ast
module Parse = Xquery.Parse
module Extract = Xquery.Extract
module Translate = Xquery.Translate
module P = Xam.Pattern

let bib = Xworkload.Gen_bib.bib_doc

let test_parse_paths () =
  let p = Parse.path "doc(\"bib\")//book/title" in
  Alcotest.(check int) "two steps" 2 (List.length p.Ast.steps);
  (match p.Ast.steps with
  | [ s1; s2 ] ->
      Alcotest.(check bool) "first is //book" true
        (s1.Ast.axis = Ast.Descendant && s1.Ast.test = "book");
      Alcotest.(check bool) "second is /title" true
        (s2.Ast.axis = Ast.Child && s2.Ast.test = "title")
  | _ -> Alcotest.fail "steps");
  let p2 = Parse.path "$x/@year" in
  Alcotest.(check bool) "variable source" true (p2.Ast.source = Ast.Var "x");
  (match p2.Ast.steps with
  | [ s ] -> Alcotest.(check string) "attribute test" "@year" s.Ast.test
  | _ -> Alcotest.fail "attr step");
  let p3 = Parse.path "doc(\"d\")//a[b/text() = 5]/c[d]" in
  (match p3.Ast.steps with
  | [ s1; s2 ] ->
      Alcotest.(check int) "value predicate" 1 (List.length s1.Ast.preds);
      Alcotest.(check int) "exists predicate" 1 (List.length s2.Ast.preds)
  | _ -> Alcotest.fail "pred steps")

let test_parse_queries () =
  let q =
    Parse.query
      "for $x in doc(\"bib\")//book where $x/@year = 1999 return <r>{$x/title}</r>"
  in
  (match q with
  | Ast.For { bindings; where; ret } ->
      Alcotest.(check int) "one binding" 1 (List.length bindings);
      Alcotest.(check int) "one condition" 1 (List.length where);
      (match ret with
      | Ast.Elem ("r", [ Ast.Path _ ]) -> ()
      | _ -> Alcotest.fail "return clause")
  | _ -> Alcotest.fail "for query");
  (match Parse.query "for $x in doc(\"d\")//a, $y in $x/b return $y/c" with
  | Ast.For { bindings = [ _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "two bindings");
  Alcotest.(check bool) "syntax error reported" true
    (match Parse.query_result "for $x where" with Error _ -> true | Ok _ -> false)

let test_extraction_spans_blocks () =
  (* One pattern spans the nested block — the §3.1 claim. *)
  let q =
    Parse.query
      "for $x in doc(\"bib\")/library return <all>{for $y in $x/book return <b>{$y/author}</b>}</all>"
  in
  let e = Extract.extract q in
  Alcotest.(check int) "a single pattern" 1 (List.length e.Extract.patterns);
  let p = List.hd e.Extract.patterns in
  Alcotest.(check int) "library, book, author" 3 (P.node_count p);
  (* The nested for hangs under a nest-outerjoin edge. *)
  (match P.incoming_edge p 1 with
  | Some edge -> Alcotest.(check bool) "book edge is no" true (edge.P.sem = P.Nest_outer)
  | None -> Alcotest.fail "book edge")

let test_extraction_independent_roots () =
  let q =
    Parse.query
      "for $x in doc(\"d\")//book, $y in doc(\"d\")//phdthesis return <r>{$x/title}{$y/title}</r>"
  in
  let e = Extract.extract q in
  Alcotest.(check int) "two independent patterns" 2 (List.length e.Extract.patterns)

let test_extraction_where () =
  let q =
    Parse.query "for $x in doc(\"d\")//book where $x/@year = 1999 return $x/title"
  in
  let e = Extract.extract q in
  let p = List.hd e.Extract.patterns in
  (* book + @year (semi) + title. *)
  Alcotest.(check int) "three nodes" 3 (P.node_count p);
  let has_formula =
    List.exists (fun (n : P.node) -> not (Xam.Formula.is_true n.P.formula)) (P.nodes p)
  in
  Alcotest.(check bool) "where condition became a formula" true has_formula

let test_value_join_extraction () =
  let q =
    Parse.query
      "for $x in doc(\"d\")//book, $y in doc(\"d\")//phdthesis where $x/title = $y/title return $x/author"
  in
  let e = Extract.extract q in
  Alcotest.(check int) "cross-pattern join recorded" 1 (List.length e.Extract.value_joins)

let test_adaptation () =
  (* A hole anchored at the outer variable inside a nested block → the
     §3.1 view-adaptation selection. *)
  let q =
    Parse.query
      "for $y in doc(\"d\")//book return <r>{for $z in $y/author return <s>{$y/title}</s>}</r>"
  in
  let e = Extract.extract q in
  Alcotest.(check int) "adaptation emitted" 1 (List.length e.Extract.adaptations)

let queries_for_agreement =
  [ "doc(\"bib\")//book/title";
    "doc(\"bib\")//author";
    "doc(\"bib\")//book/title/text()";
    "for $x in doc(\"bib\")//book return <info>{$x/author}{$x/title}</info>";
    "for $x in doc(\"bib\")//book where $x/@year = 1999 return <r>{$x/title/text()}</r>";
    "for $x in doc(\"bib\")//book where $x/author return $x/title";
    "for $x in doc(\"bib\")/library return <all>{for $y in $x/book return <b>{$y/author}</b>}</all>";
    "for $x in doc(\"bib\")//book, $y in doc(\"bib\")//phdthesis return <r>{$x/title}{$y/author}</r>";
    "for $x in doc(\"bib\")//book[author]/title return $x/text()";
    "for $x in doc(\"bib\")//*[@year = 2004] return $x/title";
    "for $y in doc(\"bib\")//book return <r>{$y/title, for $z in $y/author return <a>{$z/text()}</a>}</r>"
  ]

let test_agreement () =
  let d = bib () in
  List.iter
    (fun src ->
      let direct = Translate.eval_direct_string d src in
      let via_patterns = Translate.eval_string d src in
      Alcotest.(check string) ("agreement: " ^ src) direct via_patterns)
    queries_for_agreement

let test_agreement_generated () =
  (* The same property on a larger random document. *)
  let d = Xworkload.Gen_bib.generate_doc ~seed:99 ~books:30 ~theses:10 () in
  List.iter
    (fun src ->
      Alcotest.(check string) ("generated doc: " ^ src)
        (Translate.eval_direct_string d src)
        (Translate.eval_string d src))
    queries_for_agreement

let test_generated_queries () =
  (* Random Q queries over two documents: extraction-based evaluation must
     agree with the navigational interpreter on every one. *)
  let check doc name qs =
    List.iteri
      (fun i q ->
        Alcotest.(check string)
          (Printf.sprintf "%s query %d" name i)
          (Translate.eval_direct doc q) (Translate.eval doc q))
      qs
  in
  let bib = Xworkload.Gen_bib.generate_doc ~seed:2 ~books:6 ~theses:3 () in
  check bib "bib"
    (Xworkload.Query_gen.generate_many ~seed:19
       (Xsummary.Summary.of_doc bib) ~doc_name:"bib" Xworkload.Query_gen.default
       ~count:25);
  let xm = Xworkload.Gen_xmark.generate_doc ~seed:5 Xworkload.Gen_xmark.tiny in
  let pm = { Xworkload.Query_gen.default with nesting_p = 0.7; where_p = 0.7 } in
  check xm "xmark"
    (Xworkload.Query_gen.generate_many ~seed:77 (Xsummary.Summary.of_doc xm)
       ~doc_name:"xmark" pm ~count:40)

(* [Translate.eval] runs the tag plan on the engine's executor, and so does
   every engine read; perfbench's answers gate compares the two. Here the
   same plan runs on the set-at-a-time reference interpreter, over the
   same pattern materializations. *)
let eval_on_oracle doc expr =
  let e = Extract.extract expr in
  let r = Eval_oracle.run (Translate.env_for doc e) (Translate.plan e) in
  String.concat ""
    (List.map
       (fun t ->
         match t.(0) with
         | Xalgebra.Rel.A (Xalgebra.Value.Str s) -> s
         | Xalgebra.Rel.A v -> Xalgebra.Value.to_display v
         | Xalgebra.Rel.N _ -> "")
       r.Xalgebra.Rel.tuples)

(* perfbench's eight read templates, one constant each. *)
let read_templates =
  [ {|for $b in doc("bib")//book where $b/@year != 1999 return <t>{$b/title/text()}</t>|};
    {|for $b in doc("bib")//book where $b/@year = 2001 return <y>{$b/title/text()}</y>|};
    {|for $b in doc("bib")//book where $b/@year != 1995 return <b>{$b/title/text()}{for $a in $b/author return <a>{$a/text()}</a>}</b>|};
    {|for $b in doc("bib")/library/book where $b/author = "Suciu" return <s>{$b/title/text()}</s>|};
    {|for $p in doc("bib")//phdthesis where $p/@year != 2003 return <p>{$p/@year}{$p/title/text()}</p>|};
    {|for $b in doc("bib")//book[author = "Widom"] return <w>{$b/title/text()}</w>|};
    {|for $p in doc("bib")//phdthesis where $p/author != "Arion" return <a>{$p/author/text()}</a>|};
    {|for $p in doc("bib")//phdthesis where $p/@year != 2007 return <p>{$p/title/text()}{for $a in $p/author return <a>{$a/text()}</a>}</p>|} ]

let test_tag_plan_on_oracle () =
  let check doc name qs =
    List.iteri
      (fun i q ->
        Alcotest.(check string)
          (Printf.sprintf "%s query %d" name i)
          (eval_on_oracle doc q) (Translate.eval doc q))
      qs
  in
  let bib = Xworkload.Gen_bib.generate_doc ~seed:3 ~books:60 ~theses:20 () in
  check bib "read template" (List.map Parse.query read_templates);
  check bib "generated bib"
    (Xworkload.Query_gen.generate_many ~seed:19 (Xsummary.Summary.of_doc bib)
       ~doc_name:"bib" Xworkload.Query_gen.default ~count:25);
  let xm = Xworkload.Gen_xmark.generate_doc ~seed:5 Xworkload.Gen_xmark.tiny in
  let pm = { Xworkload.Query_gen.default with nesting_p = 0.7; where_p = 0.7 } in
  check xm "generated xmark"
    (Xworkload.Query_gen.generate_many ~seed:77 (Xsummary.Summary.of_doc xm)
       ~doc_name:"xmark" pm ~count:40)

(* Property: the staged XML-construction kernel ({!Xalgebra.Eval.stage_template},
   what every executed [Xml] operator runs) = the per-tuple interpreter
   of the reference ({!Eval_oracle.eval_template}), on the tagging plans
   of generated queries over generated bibliographies. Each tuple of the
   [Xml] input is expanded by both, the staged side reusing one buffer as
   the executor does; the whole plan is then run on both engines. *)
let staged_template_prop =
  QCheck2.Test.make ~name:"staged template = interpreter on generated queries" ~count:30
    ~long_factor:20 QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d =
        Xworkload.Gen_bib.generate_doc ~seed ~books:(1 + Random.State.int rng 12)
          ~theses:(Random.State.int rng 5) ()
      in
      let params =
        { Xworkload.Query_gen.default with
          nesting_p = Random.State.float rng 1.0;
          where_p = Random.State.float rng 1.0 }
      in
      let qs =
        Xworkload.Query_gen.generate_many ~seed (Xsummary.Summary.of_doc d) ~doc_name:"bib"
          params ~count:3
      in
      List.for_all
        (fun q ->
          let e = Extract.extract q in
          let env = Translate.env_for d e and plan = Translate.plan e in
          let template, input =
            match plan with
            | Xalgebra.Logical.Xml (template, input) -> (template, input)
            | _ -> QCheck2.Test.fail_report "a tagging plan without an Xml root"
          in
          let r = Eval_oracle.run env input in
          let staged = Xalgebra.Eval.stage_template r.Xalgebra.Rel.schema template in
          let buf = Buffer.create 16 in
          let kernel_agrees t =
            Buffer.clear buf;
            staged buf t;
            let want = Buffer.create 16 in
            Eval_oracle.eval_template want r.Xalgebra.Rel.schema t template;
            Buffer.contents buf = Buffer.contents want
            || QCheck2.Test.fail_reportf "query %s@.tuple %a@.staged:      %s@.interpreted: %s"
                 (Ast.to_string q) Xalgebra.Rel.pp_tuple t (Buffer.contents buf)
                 (Buffer.contents want)
          in
          List.for_all kernel_agrees r.Xalgebra.Rel.tuples
          &&
          let got = Xalgebra.Physical.run env plan and want = Eval_oracle.run env plan in
          List.equal Xalgebra.Rel.equal_tuple got.Xalgebra.Rel.tuples want.Xalgebra.Rel.tuples
          || QCheck2.Test.fail_reportf "query %s: executor and reference differ" (Ast.to_string q))
        qs)

let () =
  Alcotest.run "xquery"
    [ ( "parse",
        [ Alcotest.test_case "paths" `Quick test_parse_paths;
          Alcotest.test_case "queries" `Quick test_parse_queries ] );
      ( "extract",
        [ Alcotest.test_case "patterns span nested blocks" `Quick
            test_extraction_spans_blocks;
          Alcotest.test_case "independent roots split" `Quick
            test_extraction_independent_roots;
          Alcotest.test_case "where conditions" `Quick test_extraction_where;
          Alcotest.test_case "value joins" `Quick test_value_join_extraction;
          Alcotest.test_case "view adaptations" `Quick test_adaptation ] );
      ( "evaluation",
        [ Alcotest.test_case "extraction-based = direct" `Quick test_agreement;
          Alcotest.test_case "on a generated document" `Quick test_agreement_generated;
          Alcotest.test_case "random queries agree" `Quick test_generated_queries;
          Alcotest.test_case "tag plan: executor = reference" `Quick
            test_tag_plan_on_oracle ] );
      ("props", [ QCheck_alcotest.to_alcotest staged_template_prop ]) ]
