(* Auction-site example (the §5.2 scenario): an XMark-like document, two
   XAM materialized views — V1 with nested optional listitems and stored
   content, V2 with item names — and a query answered by combining them,
   including navigation inside V1's stored content for the keywords the
   views do not store.

   Run with: dune exec examples/auction_site.exe *)

module P = Xam.Pattern
module Summary = Xsummary.Summary

let () =
  let doc = Xworkload.Gen_xmark.generate_doc ~seed:21 Xworkload.Gen_xmark.tiny in
  let summary = Summary.of_doc doc in
  Printf.printf "auction site: %d nodes, summary %d paths\n\n" (Xdm.Doc.size doc)
    (Summary.size summary);

  (* V1: items with their content and nested optional descriptions —
     the thesis's V1, reduced to what this generator produces. *)
  let v1 =
    P.make
      [ P.v "item" ~node:(P.mk_node ~id:Xdm.Nid.Structural ~cont:true "item")
          [ P.v ~axis:P.Child ~sem:P.Nest_outer "description"
              ~node:(P.mk_node ~id:Xdm.Nid.Structural ~cont:true "description")
              [] ] ]
  in
  (* V2: item names. *)
  let v2 =
    P.make
      [ P.v "item" ~node:(P.mk_node ~id:Xdm.Nid.Structural "item")
          [ P.v ~axis:P.Child "name" ~node:(P.mk_node ~value:true "name") [] ] ]
  in
  let engine = Xengine.Engine.of_doc doc [ ("V1", v1); ("V2", v2) ] in

  (* Query: item names together with the keywords buried inside the
     descriptions. Keywords are stored by no view — the rewriter must
     navigate inside V1's Cont attribute (the §5.2 rewriting). *)
  let query =
    P.make
      [ P.v "item" ~node:(P.mk_node ~id:Xdm.Nid.Structural "item")
          [ P.v ~axis:P.Child "name" ~node:(P.mk_node ~value:true "name") [];
            P.v "keyword" ~node:(P.mk_node ~value:true "keyword") [] ] ]
  in
  (match Xengine.Engine.query_r engine query with
  | Error _ -> print_endline "no rewriting"
  | Ok r ->
      let ex = r.Xengine.Engine.explain in
      Printf.printf "rewritings: %d\n" ex.Xengine.Explain.candidates;
      Format.printf "EXPLAIN:@.%a@.@." Xengine.Explain.pp ex;
      let out = r.Xengine.Engine.rel in
      let direct = Xam.Embed.eval doc query in
      Printf.printf "plan result: %d tuples; direct evaluation: %d tuples; equal: %b\n"
        (Xalgebra.Rel.cardinality out)
        (Xalgebra.Rel.cardinality direct)
        (Xalgebra.Rel.cardinality out = Xalgebra.Rel.cardinality direct));

  (* The same document through the engine's XQuery front door: the
     extracted pattern is answered from the views when possible, from the
     base document otherwise (the fallbacks counter shows which). *)
  print_newline ();
  let src =
    {|for $i in doc("xmark")//item
      where $i/name
      return <res>{$i/name/text()}</res>|}
  in
  Printf.printf "XQuery: %s\n" src;
  let r = Xengine.Xerror.get_exn (Xengine.Engine.query_string_r engine src) in
  let out = r.Xengine.Engine.output in
  Printf.printf "first 200 bytes of the result:\n%s...\n"
    (String.sub out 0 (min 200 (String.length out)));
  Format.printf "engine: %a@." Xengine.Engine.pp_counters
    (Xengine.Engine.counters engine)
