(* Every logical operator, with expected values worked out by hand and the
   structural join family checked against a naive reference
   implementation. Each case runs on the engine's executor
   ({!Xalgebra.Physical}) and on the set-at-a-time reference interpreter
   ({!Eval_oracle}). *)

module Rel = Xalgebra.Rel
module Pred = Xalgebra.Pred
module V = Xalgebra.Value
module L = Xalgebra.Logical
module E = Xalgebra.Eval
module Ph = Xalgebra.Physical
module Nid = Xdm.Nid

let a v = Rel.A v

(* A small document-shaped id space: node k spans [k, 2n-k]. *)
let doc = Xdm.Doc.of_string "<a><b><c>x</c><c>y</c></b><b><d/></b><e>z</e></a>"

let ids label =
  List.map (fun h -> Xdm.Doc.id Nid.Structural doc h) (Xdm.Doc.nodes_with_label doc label)

let rel_of label =
  Rel.make [ Rel.atom ("I" ^ label) ]
    (List.map (fun i -> [| a (V.Id i) |]) (ids label))

let engines = [ ("physical", Ph.run (E.env_of_list [])); ("oracle", Eval_oracle.run_closed) ]

(* A test case run once per engine; the engine's name is printed first, so
   a failing check's output says which engine it ran on. *)
let on_engines case () =
  List.iter
    (fun (name, run) ->
      Printf.printf "engine: %s\n%!" name;
      case run)
    engines

let table r = L.Table r

let test_struct_join_inner run =
  let out =
    run
      (L.Struct_join
         { kind = L.Inner; axis = L.Descendant; lpath = [ "Ia" ]; rpath = [ "Ic" ];
           nest_as = ""; left = table (rel_of "a"); right = table (rel_of "c") })
  in
  Alcotest.(check int) "a has two c descendants" 2 (Rel.cardinality out);
  let out_child =
    run
      (L.Struct_join
         { kind = L.Inner; axis = L.Child; lpath = [ "Ia" ]; rpath = [ "Ic" ];
           nest_as = ""; left = table (rel_of "a"); right = table (rel_of "c") })
  in
  Alcotest.(check int) "c nodes are not children of a" 0 (Rel.cardinality out_child)

let test_struct_join_variants run =
  let b = table (rel_of "b") and c = table (rel_of "c") in
  let outer =
    run
      (L.Struct_join
         { kind = L.LeftOuter; axis = L.Child; lpath = [ "Ib" ]; rpath = [ "Ic" ];
           nest_as = ""; left = b; right = c })
  in
  (* First b has two c children → 2 tuples; second b has none → padded. *)
  Alcotest.(check int) "outer join cardinality" 3 (Rel.cardinality outer);
  Alcotest.(check int) "outer join pads with null" 1
    (List.length
       (List.filter (fun t -> Rel.atom_field t 1 = V.Null) outer.Rel.tuples));
  let semi =
    run
      (L.Struct_join
         { kind = L.Semi; axis = L.Child; lpath = [ "Ib" ]; rpath = [ "Ic" ];
           nest_as = ""; left = b; right = c })
  in
  Alcotest.(check int) "semi join keeps matching b" 1 (Rel.cardinality semi);
  let nest =
    run
      (L.Struct_join
         { kind = L.NestOuter; axis = L.Child; lpath = [ "Ib" ]; rpath = [ "Ic" ];
           nest_as = "CS"; left = b; right = c })
  in
  Alcotest.(check int) "nest outer keeps all b" 2 (Rel.cardinality nest);
  (match nest.Rel.tuples with
  | [ t1; t2 ] ->
      Alcotest.(check int) "first group has 2" 2 (List.length (Rel.nested_field t1 1));
      Alcotest.(check int) "second group empty" 0 (List.length (Rel.nested_field t2 1))
  | _ -> Alcotest.fail "arity");
  let nestj =
    run
      (L.Struct_join
         { kind = L.NestJoin; axis = L.Child; lpath = [ "Ib" ]; rpath = [ "Ic" ];
           nest_as = "CS"; left = b; right = c })
  in
  Alcotest.(check int) "nest join drops empty groups" 1 (Rel.cardinality nestj)

(* Reference nested-loop structural join compared against both engines
   (the executor runs StackTreeDesc, the reference probes the sorted-run
   matcher) on randomized id sets. *)
let struct_join_prop =
  let open QCheck2 in
  let gen =
    Gen.(
      pair
        (list_size (int_bound 15) (int_bound 30))
        (list_size (int_bound 15) (int_bound 30)))
  in
  Test.make ~name:"struct join matches naive reference" ~count:200 gen
    (fun (ls, rs) ->
      (* Chain-shaped identifier space: node k spans [k, 100-k]. *)
      let mk k = Nid.Pre_post { pre = k; post = 100 - k; depth = k + 1 } in
      let lrel =
        Rel.make [ Rel.atom "L" ] (List.map (fun k -> [| a (V.Id (mk k)) |]) ls)
      in
      let rrel =
        Rel.make [ Rel.atom "R" ] (List.map (fun k -> [| a (V.Id (mk k)) |]) rs)
      in
      let plan =
        L.Struct_join
          { kind = L.Inner; axis = L.Descendant; lpath = [ "L" ]; rpath = [ "R" ];
            nest_as = ""; left = table lrel; right = table rrel }
      in
      (* In the chain document, node k spans [k, 100-k], so k1 is a proper
         ancestor of k2 iff k1 < k2. *)
      let expected =
        List.concat_map (fun l -> List.filter (fun r -> l < r) rs) ls |> List.length
      in
      List.for_all (fun (_, run) -> Rel.cardinality (run plan) = expected) engines)

let test_value_joins run =
  let sch1 = [ Rel.atom "K" ] and sch2 = [ Rel.atom "J"; Rel.atom "W" ] in
  let r1 = Rel.make sch1 [ [| a (V.Int 1) |]; [| a (V.Int 2) |]; [| a (V.Int 2) |] ] in
  let r2 =
    Rel.make sch2
      [ [| a (V.Int 2); a (V.Str "x") |]; [| a (V.Int 3); a (V.Str "y") |] ]
  in
  let join kind =
    run
      (L.Join
         { kind;
           pred = Pred.Cmp (Pred.Col [ "K" ], Pred.Eq, Pred.Col [ "J" ]);
           nest_as = "G"; left = table r1; right = table r2 })
  in
  Alcotest.(check int) "hash join" 2 (Rel.cardinality (join L.Inner));
  Alcotest.(check int) "left outer pads" 3 (Rel.cardinality (join L.LeftOuter));
  Alcotest.(check int) "semi" 2 (Rel.cardinality (join L.Semi));
  Alcotest.(check int) "nest outer one group per left" 3 (Rel.cardinality (join L.NestOuter))

let test_select_project_etc run =
  let sch = [ Rel.atom "X"; Rel.atom "Y" ] in
  let r =
    Rel.make sch
      [ [| a (V.Int 1); a (V.Str "u") |]; [| a (V.Int 5); a (V.Str "v") |] ]
  in
  let sel =
    run (L.Select (Pred.Cmp (Pred.Col [ "X" ], Pred.Gt, Pred.Const (V.Int 2)), table r))
  in
  Alcotest.(check int) "select" 1 (Rel.cardinality sel);
  let proj = run (L.Project { cols = [ [ "Y" ] ]; dedup = false; input = table r }) in
  Alcotest.(check string) "project schema" "Y" (Rel.schema_to_string proj.Rel.schema);
  let ren = run (L.Rename ([ ("X", "Z") ], table r)) in
  Alcotest.(check bool) "rename" true (Rel.mem_path ren.Rel.schema [ "Z" ]);
  let uni = run (L.Union (table r, table r)) in
  Alcotest.(check int) "union keeps duplicates" 4 (Rel.cardinality uni);
  let dif = run (L.Diff (table r, table (Rel.make sch [ [| a (V.Int 1); a (V.Str "u") |] ]))) in
  Alcotest.(check int) "difference" 1 (Rel.cardinality dif);
  let nested = run (L.Nest { cname = "G"; input = table r }) in
  Alcotest.(check int) "nest packs all tuples" 1 (Rel.cardinality nested);
  let unnested = run (L.Unnest ([ "G" ], L.Nest { cname = "G"; input = table r })) in
  Alcotest.(check int) "unnest restores" 2 (Rel.cardinality unnested);
  let prod = run (L.Product (table r, table r)) in
  Alcotest.(check int) "product" 4 (Rel.cardinality prod)

let test_xml_construct run =
  let sch = [ Rel.atom "N"; Rel.nested "KS" [ Rel.atom "K" ] ] in
  let r =
    Rel.make sch
      [ [| a (V.Str "bicycle"); Rel.N [ [| a (V.Str "red") |]; [| a (V.Str "fast") |] ] |] ]
  in
  let out =
    run
      (L.Xml
         ( L.T_tag
             ( "item",
               [ L.T_col [ "N" ];
                 L.T_foreach ([ "KS" ], L.T_tag ("kw", [ L.T_col [ "K" ] ])) ] ),
           table r ))
  in
  match out.Rel.tuples with
  | [ [| Rel.A (V.Str s) |] ] ->
      Alcotest.(check string) "template expansion"
        "<item>bicycle<kw>red</kw><kw>fast</kw></item>" s
  | _ -> Alcotest.fail "xml output shape"

let test_extract run =
  let sch = [ Rel.atom "C" ] in
  let r =
    Rel.make sch
      [ [| a (V.Str "<item><name>chair</name><par><kw>old</kw><kw>oak</kw></par></item>") |];
        [| a (V.Str "<item><name>stool</name></item>") |] ]
  in
  let extract kind =
    run
      (L.Extract
         { src = [ "C" ]; steps = [ (L.Descendant, "kw") ]; mode = `Value; kind;
           out = "K"; input = table r })
  in
  Alcotest.(check int) "inner extract: one tuple per hit" 2
    (Rel.cardinality (extract L.Inner));
  Alcotest.(check int) "outer extract pads missing" 3
    (Rel.cardinality (extract L.LeftOuter));
  Alcotest.(check int) "semi extract filters" 1 (Rel.cardinality (extract L.Semi));
  let attr =
    run
      (L.Extract
         { src = [ "C" ]; steps = [ (L.Child, "name") ]; mode = `Content;
           kind = L.Inner; out = "N"; input = table r })
  in
  Alcotest.(check int) "content extraction" 2 (Rel.cardinality attr)

let test_derive run =
  let sch = [ Rel.atom "D" ] in
  let r = Rel.make sch [ [| a (V.Id (Nid.Dewey [ 1; 2; 3 ])) |] ] in
  let out = run (L.Derive { src = [ "D" ]; levels = 2; out = "P"; input = table r }) in
  (match out.Rel.tuples with
  | [ t ] ->
      Alcotest.(check bool) "derived grandparent" true
        (Rel.atom_field t 1 = V.Id (Nid.Dewey [ 1 ]))
  | _ -> Alcotest.fail "derive shape");
  let too_far = run (L.Derive { src = [ "D" ]; levels = 5; out = "P"; input = table r }) in
  (match too_far.Rel.tuples with
  | [ t ] -> Alcotest.(check bool) "over-derivation yields ⊥" true (Rel.atom_field t 1 = V.Null)
  | _ -> Alcotest.fail "derive shape")

let test_unknown_scan run =
  Alcotest.check_raises "unknown relation" (E.Unknown_relation "nope") (fun () ->
      ignore (run (L.Scan "nope")))

let () =
  Alcotest.run "eval"
    [ ( "struct-joins",
        [ Alcotest.test_case "inner" `Quick (on_engines test_struct_join_inner);
          Alcotest.test_case "outer/semi/nest" `Quick (on_engines test_struct_join_variants) ] );
      ( "operators",
        [ Alcotest.test_case "value joins" `Quick (on_engines test_value_joins);
          Alcotest.test_case "select/project/set ops" `Quick (on_engines test_select_project_etc);
          Alcotest.test_case "xml construction" `Quick (on_engines test_xml_construct);
          Alcotest.test_case "extract (content navigation)" `Quick (on_engines test_extract);
          Alcotest.test_case "derive (parent ids)" `Quick (on_engines test_derive);
          Alcotest.test_case "unknown scan" `Quick (on_engines test_unknown_scan) ] );
      ("props", [ QCheck_alcotest.to_alcotest struct_join_prop ]) ]
