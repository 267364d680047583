(* Quickstart: load a document, build its summary, describe a materialized
   view as a XAM, and rewrite a query over it.

   Run with: dune exec examples/quickstart.exe *)

module P = Xam.Pattern
module Summary = Xsummary.Summary

let document =
  {|<library>
      <book year="1999"><title>Data on the Web</title><author>Abiteboul</author><author>Suciu</author></book>
      <book><title>The Syntactic Web</title><author>Tom Lerners-Bee</author></book>
      <phdthesis year="2004"><title>The Web: next generation</title><author>Jim Smith</author></phdthesis>
    </library>|}

let () =
  (* 1. Parse and flatten the document; every node gets (pre, post, depth)
     structural identifiers. *)
  let doc = Xdm.Doc.of_string ~name:"bib" document in
  Printf.printf "document: %d nodes, %d elements\n" (Xdm.Doc.size doc)
    (Xdm.Doc.element_size doc);

  (* 2. Build the enhanced path summary (a strong DataGuide with 1/+ edge
     annotations). *)
  let summary = Summary.of_doc doc in
  Printf.printf "summary: %d paths, %d strong edges\n\n" (Summary.size summary)
    (Summary.strong_edge_count summary);
  Format.printf "%a@." Summary.pp summary;

  (* 3. Describe two materialized views in the XAM language:
     V1 = //book{ID}    — all book identifiers;
     V2 = //title{ID,V} — all title identifiers with their values. *)
  let v1 = P.make [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book") [] ] in
  let v2 =
    P.make [ P.v "title" ~node:(P.mk_node ~id:Xdm.Nid.Structural ~value:true "title") [] ]
  in
  Format.printf "V1 =@.%a@.V2 =@.%a@.@." P.pp v1 P.pp v2;

  (* 4. Materialize them (the embedding semantics of §4.1). *)
  let m1 = Xam.Embed.eval doc v1 and m2 = Xam.Embed.eval doc v2 in
  Printf.printf "V1 holds %d tuples, V2 holds %d tuples\n\n"
    (Xalgebra.Rel.cardinality m1) (Xalgebra.Rel.cardinality m2);

  (* 5. The query: book identifiers with their titles. Neither view alone
     answers it — the rewriter finds the structural join. The engine packs
     rewrite → cost-based choice → streaming execution behind one call. *)
  let query =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book")
          [ P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]
  in
  let engine = Xengine.Engine.of_doc doc [ ("V1", v1); ("V2", v2) ] in
  match Xengine.Engine.query_r engine query with
  | Error _ -> print_endline "no rewriting — the views cannot answer the query"
  | Ok r ->
      Format.printf "best plan:@.%a@.@." Xalgebra.Logical.pp
        r.Xengine.Engine.explain.Xengine.Explain.plan;
      Format.printf "EXPLAIN:@.%a@." Xengine.Explain.pp r.Xengine.Engine.explain;
      Format.printf "result:@.%a@." Xalgebra.Rel.pp r.Xengine.Engine.rel;
      (* 6. Ask again: the plan cache answers, no rewriting runs. *)
      let again = Xengine.Xerror.get_exn (Xengine.Engine.query_r engine query) in
      Format.printf "repeated query: cache %s; %a@."
        (if again.Xengine.Engine.explain.Xengine.Explain.cache_hit then "HIT" else "MISS")
        Xengine.Engine.pp_counters
        (Xengine.Engine.counters engine)
