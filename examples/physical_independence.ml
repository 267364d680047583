(* Physical data independence, the paper's headline: the same query over
   the same document stored five different ways. The optimizer's only
   knowledge of each store is its XAM catalog; swapping the store swaps the
   catalog, never the optimizer (§2.1.4).

   Run with: dune exec examples/physical_independence.exe *)

module P = Xam.Pattern
module Store = Xstorage.Store

let () =
  let doc = Xworkload.Gen_bib.generate_doc ~seed:31 ~books:40 ~theses:15 () in
  let summary = Xsummary.Summary.of_doc doc in
  let query =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Simple "book")
          [ P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]
  in
  Printf.printf "query: //book{ID}/title{V} over a %d-node library\n\n" (Xdm.Doc.size doc);
  let expected = Xalgebra.Rel.cardinality (Xam.Embed.eval doc query) in

  let storages =
    [ ("Edge relation [48]", Xstorage.Models.edge doc);
      ("tag-partitioned (Timber/Natix)", Xstorage.Models.tag_partitioned doc);
      ("path-partitioned (XQueC/Monet)", Xstorage.Models.path_partitioned summary);
      ("Hybrid-style inlining [105]", Xstorage.Models.inlined summary) ]
  in
  (* One engine per storage model: the engine code is identical, only the
     catalog changes — that's the independence. *)
  List.iter
    (fun (name, specs) ->
      let engine = Xengine.Engine.of_doc doc specs in
      match Xengine.Engine.query_r engine query with
      | Error _ -> Printf.printf "%-32s no plan found\n" name
      | Ok r ->
          let out = r.Xengine.Engine.rel in
          Printf.printf "%-32s %2d modules → plan over {%s}: %d tuples%s\n" name
            (List.length (Xengine.Engine.catalog engine).Store.modules)
            (String.concat ", "
               (List.sort_uniq compare
                  (Xalgebra.Logical.scans r.Xengine.Engine.explain.Xengine.Explain.plan)))
            (Xalgebra.Rel.cardinality out)
            (if Xalgebra.Rel.cardinality out = expected then "" else "  (MISMATCH!)");
          (* The same query again rides the plan cache. *)
          let again = Xengine.Xerror.get_exn (Xengine.Engine.query_r engine query) in
          assert again.Xengine.Engine.explain.Xengine.Explain.cache_hit)
    storages;

  (* Adding an index is just one more XAM in the catalog. *)
  print_newline ();
  let idx =
    Xstorage.Indexes.value_index ~name:"booksByYearTitle" doc ~target:"book"
      ~keys:[ ("@year", P.Child); ("title", P.Child) ]
  in
  Printf.printf "index booksByYearTitle: %d entries, key schema (%s)\n"
    (Xalgebra.Rel.cardinality idx.Store.extent)
    (Xalgebra.Rel.schema_to_string (Xam.Binding.binding_schema idx.Store.xam));
  let year, title =
    let ya = List.hd (Xdm.Doc.nodes_with_label doc "@year") in
    let b = Xdm.Doc.parent doc ya in
    let t = List.hd (Xdm.Doc.descendants_with_label doc b "title") in
    (Xdm.Doc.value doc ya, Xdm.Doc.value doc t)
  in
  let hits =
    Store.lookup idx
      ~bindings:
        [ [| Xalgebra.Rel.A (Xalgebra.Value.of_string_literal year);
             Xalgebra.Rel.A (Xalgebra.Value.Str title) |] ]
  in
  Printf.printf "lookup (%s, %S) → %d book(s)\n" year title
    (Xalgebra.Rel.cardinality hits)
