(* Bibliography example: the full Ch. 3 pipeline on a generated library —
   parse an XQuery, extract its maximal patterns, evaluate it both through
   the patterns and navigationally, then reuse the extracted patterns as
   materialized views for a second query.

   Run with: dune exec examples/bibliography.exe *)

module P = Xam.Pattern

let () =
  let doc = Xworkload.Gen_bib.generate_doc ~seed:12 ~books:8 ~theses:3 () in
  Printf.printf "library with %d entries (%d nodes)\n\n"
    (List.length (Xdm.Doc.children doc (Xdm.Doc.root doc)))
    (Xdm.Doc.size doc);

  (* A nested-FLWR query: books after 1995 with their titles and authors
     grouped. *)
  let src =
    {|for $b in doc("bib")//book
      where $b/@year >= 1995
      return <entry>{$b/title/text(),
                     for $a in $b/author return <by>{$a/text()}</by>}</entry>|}
  in
  let query = Xquery.Parse.query src in
  Format.printf "query:@.%a@.@." Xquery.Ast.pp query;

  (* Pattern extraction (Ch. 3): one maximal pattern spans the nested
     block. *)
  let extraction = Xquery.Extract.extract query in
  Printf.printf "extracted %d pattern(s):\n" (List.length extraction.Xquery.Extract.patterns);
  List.iter (fun p -> Format.printf "%a@." P.pp p) extraction.Xquery.Extract.patterns;

  (* Both evaluation routes agree. The engine holds no views yet, so the
     extracted pattern is materialized from the base document (a
     fallback); the outer tagging plan is still instrumented. *)
  let engine0 = Xengine.Engine.of_doc doc [] in
  let direct = Xquery.Translate.eval_direct doc query in
  let r = Xengine.Xerror.get_exn (Xengine.Engine.query_ast_r engine0 query) in
  let via_patterns = r.Xengine.Engine.output in
  Printf.printf "\nresult (%d bytes):\n%s\n" (String.length via_patterns) via_patterns;
  assert (String.equal direct via_patterns);
  print_endline "(direct navigational evaluation agrees)";
  Format.printf "engine: %a@." Xengine.Engine.pp_counters
    (Xengine.Engine.counters engine0);

  (* Reuse the extracted pattern as a materialized view for a smaller
     query: titles of books with authors. *)
  let small_query =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book")
          [ P.v ~axis:P.Child ~sem:P.Semi "author" [];
            P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]
  in
  let specs =
    List.mapi
      (fun i p -> (Printf.sprintf "XQ%d" i, p))
      extraction.Xquery.Extract.patterns
  in
  (* Also offer plain storage views, so a rewriting exists even when the
     extracted view is too narrow (it only has post-1995 books). *)
  let specs =
    specs
    @ [ ( "allbooks",
          P.make
            [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book")
                [ P.v ~axis:P.Child ~sem:P.Nest_outer "author"
                    ~node:(P.mk_node ~value:true "author") [];
                  P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ] )
      ]
  in
  let engine = Xengine.Engine.of_doc doc specs in
  match Xengine.Engine.query_r engine small_query with
  | Error _ -> print_endline "no rewriting found"
  | Ok r ->
      let ex = r.Xengine.Engine.explain in
      Printf.printf "\nrewritings of the follow-up query: %d; best via %s\n"
        ex.Xengine.Explain.candidates
        (String.concat ", " ex.Xengine.Explain.views_used);
      Format.printf "executed best rewriting:@.%a@." Xalgebra.Rel.pp
        r.Xengine.Engine.rel
