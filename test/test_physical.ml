(* The iterator-based physical engine: StackTreeDesc correctness and
   ordering, one compilation per plan node, and agreement with the
   set-at-a-time reference interpreter ({!Eval_oracle}) on whole plans. *)

module Rel = Xalgebra.Rel
module L = Xalgebra.Logical
module E = Xalgebra.Eval
module Ph = Xalgebra.Physical
module V = Xalgebra.Value
module Pred = Xalgebra.Pred
module P = Xam.Pattern
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
        (List.length (Ph.stack_tree_desc ~axis ancs descs)))
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
    (sorted (fun (_, d) -> id_of d) by_desc)

(* Agreement: the executor = the reference interpreter, over compiled
   patterns and hand-built plans. *)
let check_agreement name env plan =
  let a = Eval_oracle.run env plan and b = Ph.run env plan in
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
      Alcotest.(check int) name 0
        (List.length (Ph.stack_tree_desc ~axis:L.Descendant ancs descs)))
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
  Alcotest.(check int) "duplicated ancestors multiply pairs" expected
    (List.length (Ph.stack_tree_desc ~axis:L.Child ancs descs))

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

(* Nested data for the map-semantics operators: each book with its authors
   as a nested collection of (identifier, value) tuples, and each book's
   serialized content. *)
let struct_id h = V.Id (Doc.id Nid.Structural doc h)

let nested_books =
  Rel.make
    [ Rel.atom "B"; Rel.nested "AS" [ Rel.atom "A"; Rel.atom "N" ] ]
    (List.map
       (fun h ->
         let authors =
           List.filter (fun c -> Doc.label doc c = "author") (Doc.children doc h)
         in
         [| Rel.A (struct_id h);
            Rel.N
              (List.map
                 (fun a' ->
                   [| Rel.A (struct_id a'); Rel.A (V.of_string_literal (Doc.value doc a')) |])
                 authors) |])
       (Doc.nodes_with_label doc "book"))

let column label col scheme =
  Rel.make [ Rel.atom col ]
    (List.map (fun h -> [| Rel.A (V.Id (Doc.id scheme doc h)) |]) (Doc.nodes_with_label doc label))

let test_agreement_every_operator () =
  let contents =
    Rel.make [ Rel.atom "C" ]
      (List.map
         (fun h -> [| Rel.A (V.Str (Doc.content doc h)) |])
         (Doc.nodes_with_label doc "book"))
  in
  let r1 =
    Rel.make [ Rel.atom "K" ] (List.init 12 (fun i -> [| Rel.A (V.Int (i mod 5)) |]))
  in
  let r2 =
    Rel.make [ Rel.atom "J"; Rel.atom "W" ]
      (List.init 8 (fun i -> [| Rel.A (V.Int (i mod 3)); Rel.A (V.Int i) |]))
  in
  let env =
    E.env_of_list
      [ ("nested", nested_books); ("contents", contents); ("r1", r1); ("r2", r2);
        ("books", column "book" "B" Nid.Structural);
        ("titles", column "title" "T" Nid.Structural);
        ("texts", column "#text" "X" Nid.Structural);
        ("library", column "library" "L" Nid.Structural);
        ("dewey", column "title" "D" Nid.Parental) ]
  in
  let kinds = [ L.Inner; L.LeftOuter; L.Semi; L.NestJoin; L.NestOuter ] in
  let kind_name = function
    | L.Inner -> "inner"
    | L.LeftOuter -> "outer"
    | L.Semi -> "semi"
    | L.NestJoin -> "nest"
    | L.NestOuter -> "nest-outer"
  in
  let struct_join ?(axis = L.Child) kind lpath rpath left right =
    L.Struct_join { kind; axis; lpath; rpath; nest_as = "G"; left; right }
  in
  let eq l r = Pred.Cmp (Pred.Col l, Pred.Eq, Pred.Col r) in
  (* One author's name: the selections on it reduce the nested
     collections they keep. *)
  let author =
    let name = Doc.value doc (List.hd (Doc.nodes_with_label doc "author")) in
    Pred.Cmp (Pred.Col [ "AS"; "N" ], Pred.Eq, Pred.Const (V.of_string_literal name))
  in
  List.iter
    (fun (name, plan) -> check_agreement name env plan)
    (List.concat_map
       (fun k ->
         let n = kind_name k in
         [ ("value join " ^ n, L.Join { kind = k; pred = eq [ "K" ] [ "J" ]; nest_as = "G";
                                        left = L.Scan "r1"; right = L.Scan "r2" });
           ("struct join / " ^ n, struct_join k [ "B" ] [ "T" ] (L.Scan "books") (L.Scan "titles"));
           ("struct join // " ^ n,
            struct_join ~axis:L.Descendant k [ "L" ] [ "X" ] (L.Scan "library") (L.Scan "texts"));
           ("struct join, unsorted inputs " ^ n,
            struct_join k [ "B" ] [ "T" ] (L.Sort ([ "B" ], L.Scan "books"))
              (L.Reorder ([ 0 ], L.Scan "titles")));
           ("extract " ^ n,
            L.Extract { src = [ "C" ]; steps = [ (L.Descendant, "author") ]; mode = `Value;
                        kind = k; out = "E"; input = L.Scan "contents" }) ])
       kinds
    @ List.map
        (fun k ->
          ("nested lpath " ^ kind_name k,
           struct_join k [ "AS"; "A" ] [ "X" ] (L.Scan "nested") (L.Scan "texts")))
        [ L.Semi; L.NestJoin; L.NestOuter ]
    @ [ ("extract content",
         L.Extract { src = [ "C" ]; steps = [ (L.Child, "title") ]; mode = `Content;
                     kind = L.Inner; out = "E"; input = L.Scan "contents" });
        ("derive parent",
         L.Derive { src = [ "D" ]; levels = 1; out = "P"; input = L.Scan "dewey" });
        ("derive past the root",
         L.Derive { src = [ "D" ]; levels = 9; out = "P"; input = L.Scan "dewey" });
        ("nest", L.Nest { cname = "G"; input = L.Scan "r2" });
        ("unnest", L.Unnest ([ "AS" ], L.Scan "nested"));
        ("nest then unnest", L.Unnest ([ "G" ], L.Nest { cname = "G"; input = L.Scan "r2" }));
        ("nested select", L.Select (author, L.Scan "nested"));
        ("nested select, two paths",
         L.Select (Pred.And (author, Pred.Not_null [ "B" ]), L.Scan "nested"));
        ("nested project",
         L.Project { cols = [ [ "B" ]; [ "AS"; "N" ] ]; dedup = false; input = L.Scan "nested" });
        ("nested project, dedup",
         L.Project { cols = [ [ "AS"; "N" ] ]; dedup = true; input = L.Scan "nested" });
        ("nested select under a nest join",
         L.Select
           ( Pred.Cmp (Pred.Col [ "G"; "T" ], Pred.Ne, Pred.Const V.Null),
             struct_join L.NestOuter [ "B" ] [ "T" ] (L.Scan "books") (L.Scan "titles") )) ]);
  (* The nest kinds keep one tuple per (surviving) left tuple, in left
     order: the executor's output is the reference's, tuple for tuple. *)
  List.iter
    (fun k ->
      let plan = struct_join k [ "AS"; "A" ] [ "X" ] (L.Scan "nested") (L.Scan "texts") in
      let a = Eval_oracle.run env plan and b = Ph.run env plan in
      Alcotest.(check bool) ("same order: nested lpath " ^ kind_name k) true
        (List.equal Rel.equal_tuple a.Rel.tuples b.Rel.tuples))
    [ L.NestJoin; L.NestOuter ];
  (* A flat join on a nested key is ill-formed on both engines. *)
  List.iter
    (fun k ->
      let plan = struct_join k [ "AS"; "A" ] [ "X" ] (L.Scan "nested") (L.Scan "texts") in
      let raises run = match run env plan with _ -> false | exception Invalid_argument _ -> true in
      Alcotest.(check bool) ("nested key rejected by both: " ^ kind_name k) true
        (raises Ph.run && raises Eval_oracle.run))
    [ L.Inner; L.LeftOuter ]

(* Every plan node is compiled once, however deeply nested-path operators
   nest: twelve nested-path selections over one scan look the scan up
   once (compiling each input again for every enclosing operator would
   look it up 2^13 - 1 times), and each plan node gets its own stats node,
   in the plan's shape. *)
let test_one_compile_per_node () =
  let lookups = ref 0 in
  let env name =
    incr lookups;
    if name = "nested" then Some nested_books else None
  in
  let plan =
    List.fold_left
      (fun acc k ->
        L.Select (Pred.Cmp (Pred.Col [ "AS"; "N" ], Pred.Ne, Pred.Const (V.Int k)), acc))
      (L.Scan "nested") (List.init 12 Fun.id)
  in
  let _, stats = Ph.run_instrumented env plan in
  Alcotest.(check int) "one env lookup" 1 !lookups;
  let seen = ref [] in
  let rec walk plan (st : Ph.op_stats) =
    Alcotest.(check bool) ("own stats node: " ^ st.Ph.op) false (List.memq st !seen);
    seen := st :: !seen;
    Alcotest.(check string) "operator"
      (match plan with L.Scan n -> "scan " ^ n | _ -> "select")
      st.Ph.op;
    Alcotest.(check bool) ("runs: " ^ st.Ph.op) true (st.Ph.nexts > 0);
    Alcotest.(check int) "one stats child per input" (List.length (L.inputs plan))
      (List.length st.Ph.children);
    List.iter2 walk (L.inputs plan) st.Ph.children
  in
  walk plan stats;
  Alcotest.(check int) "a stats node per plan node" (L.size plan) (List.length !seen)

(* A run's stats fold into the registry's physical series: the counters on
   every run, the per-operator latency histogram on timed runs only. *)
let test_run_metrics () =
  let reg = Xobs.Metrics.create () in
  let m = Ph.metrics reg in
  let env name = if name = "nested" then Some nested_books else None in
  let plan = L.Select (Pred.Cmp (Pred.Col [ "AS"; "N" ], Pred.Ne, Pred.Const (V.Int 0)), L.Scan "nested") in
  let counter name = Xobs.Metrics.counter_value (Xobs.Metrics.counter reg name) in
  let op_seconds () =
    (Xobs.Metrics.snapshot (Xobs.Metrics.histogram reg "physical_op_seconds")).Xobs.Metrics.count
  in
  let _, untimed = Ph.run_instrumented ~metrics:m env plan in
  Alcotest.(check bool) "untimed stats" false untimed.Ph.timed;
  Alcotest.(check int) "operators counted" 2 (counter "physical_operators_total");
  Alcotest.(check int) "nexts counted"
    (untimed.Ph.nexts + (List.hd untimed.Ph.children).Ph.nexts)
    (counter "physical_nexts_total");
  Alcotest.(check int) "no latency observed untimed" 0 (op_seconds ());
  let _, timed = Ph.run_instrumented ~clock:Unix.gettimeofday ~metrics:m env plan in
  Alcotest.(check bool) "timed stats" true timed.Ph.timed;
  Alcotest.(check int) "operators counted again" 4 (counter "physical_operators_total");
  Alcotest.(check int) "one latency per operator timed" 2 (op_seconds ())

(* XML construction on the template shapes generated queries do not
   reach: each expansion is checked against a literal and against the
   reference's per-tuple interpreter. *)
let test_xml_templates () =
  let str s = Rel.A (V.Str s) in
  let schema =
    [ Rel.atom "T"; Rel.atom "Y"; Rel.nested "AS" [ Rel.atom "A"; Rel.nested "PS" [ Rel.atom "P" ] ] ]
  in
  let shelf =
    Rel.make schema
      [ [| str "t1"; Rel.A (V.Int 3);
           Rel.N [ [| str "a1"; Rel.N [ [| str "p1" |]; [| str "p2" |] ] |]; [| str "a2"; Rel.N [] |] ] |];
        [| str "t2"; Rel.A V.Null; Rel.N [] |] ]
  in
  let run template input =
    let plan = L.Xml (template, L.Table input) in
    let strings (r : Rel.t) =
      List.map (fun t -> match t.(0) with Rel.A (V.Str s) -> s | _ -> "?") r.Rel.tuples
    in
    let got = strings (Ph.run (fun _ -> None) plan) in
    Alcotest.(check (list string)) "executor = reference" (strings (Eval_oracle.run_closed plan)) got;
    got
  in
  let check what want template input = Alcotest.(check (list string)) what want (run template input) in
  check "a multi-step for iterates each level"
    [ "<r><p>p1</p><p>p2</p></r>"; "<r></r>" ]
    (L.T_tag ("r", [ L.T_foreach ([ "AS"; "PS" ], L.T_tag ("p", [ L.T_col [ "P" ] ])) ]))
    shelf;
  check "a for body reads the outer columns beside the inner ones"
    [ "<a>t1/a1:p1</a><a>t1/a1:p2</a>"; "" ]
    (L.T_foreach
       ( [ "AS" ],
         L.T_foreach
           ( [ "PS" ],
             L.T_tag
               ( "a",
                 [ L.T_col [ "T" ]; L.T_text "/"; L.T_col [ "A" ]; L.T_text ":"; L.T_col [ "P" ] ] ) ) ))
    shelf;
  check "a hole on a nested path lists every atom it reaches"
    [ "<n>a1a2|p1p2</n>"; "<n>|</n>" ]
    (L.T_tag ("n", [ L.T_col [ "AS"; "A" ]; L.T_text "|"; L.T_col [ "AS"; "PS"; "P" ] ]))
    shelf;
  check "atoms print as text, null as nothing" [ "<y>3</y>"; "<y></y>" ]
    (L.T_tag ("y", [ L.T_col [ "Y" ] ]))
    shelf;
  check "anonymous grouping emits the children only" [ "t1t1"; "t2t2" ]
    (L.T_tag ("", [ L.T_col [ "T" ]; L.T_col [ "T" ] ]))
    shelf;
  check "a name in both scopes reads the outer column, as in the extended schema"
    [ "oo" ]
    (L.T_foreach ([ "NS" ], L.T_col [ "A" ]))
    (Rel.make
       [ Rel.atom "A"; Rel.nested "NS" [ Rel.atom "A" ] ]
       [ [| str "o"; Rel.N [ [| str "i1" |]; [| str "i2" |] ] |] ]);
  check "empty input, no output" []
    (L.T_foreach ([ "AS" ], L.T_tag ("a", [ L.T_col [ "T" ] ])))
    (Rel.empty schema);
  (* A name out of scope is an ill-formed plan: it fails to compile. *)
  Alcotest.(check bool) "unknown hole rejected at compile" true
    (match Ph.compile (fun _ -> None) (L.Xml (L.T_col [ "P" ], L.Table shelf)) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Property: the executor = the reference on the lowering of generated
   patterns, their edges redrawn among all five semantics (optional and
   nested edges included). *)
let pattern_prop =
  let docs =
    [ Xworkload.Gen_xmark.generate_doc Xworkload.Gen_xmark.tiny;
      Xworkload.Gen_bib.generate_doc ~seed:5 ~books:6 ~theses:3 () ]
    |> List.map (fun d -> (d, Xsummary.Summary.of_doc d, Compile.env d))
  in
  QCheck2.Test.make ~name:"executor = reference on generated patterns" ~count:60
    ~long_factor:20 QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d, s, env = List.nth docs (Random.State.int rng (List.length docs)) in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let labels = List.filter (fun l -> l <> "#text") (Doc.labels d) in
      let params =
        { Xworkload.Pattern_gen.default with
          size = 1 + Random.State.int rng 5;
          return_labels = List.sort_uniq compare [ pick labels; pick labels ];
          value_pred_p = 0.1 }
      in
      match Xworkload.Pattern_gen.generate rng s params with
      | None -> true
      | Some p ->
          let rec redraw ~top (t : P.tree) =
            let sem =
              if top then P.Join else pick [ P.Join; P.Outer; P.Semi; P.Nest_join; P.Nest_outer ]
            in
            { t with edge = { t.edge with sem };
                     children = List.map (redraw ~top:false) t.children }
          in
          let p = P.make (List.map (redraw ~top:true) p.P.roots) in
          let plan = Compile.plan p in
          let want = Eval_oracle.run env plan and got = Ph.run env plan in
          Rel.equal_unordered want got
          || QCheck2.Test.fail_reportf "pattern %s@.plan %s@.executor:@.%a@.reference:@.%a"
               (P.to_string p) (L.to_string plan) Rel.pp got Rel.pp want)

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
      List.length (Ph.stack_tree_desc ~axis:L.Descendant ancs descs)
      = List.length (naive L.Descendant ancs descs))

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
          Alcotest.test_case "agreement on every operator kind" `Quick
            test_agreement_every_operator;
          Alcotest.test_case "one compile per plan node" `Quick test_one_compile_per_node;
          Alcotest.test_case "xml templates" `Quick test_xml_templates;
          Alcotest.test_case "run metrics" `Quick test_run_metrics;
          Alcotest.test_case "structural join plan" `Quick test_struct_join_plan;
          Alcotest.test_case "scan order detection" `Quick test_scan_order_detection ] );
      ( "props",
        [ QCheck_alcotest.to_alcotest stack_prop; QCheck_alcotest.to_alcotest pattern_prop ] ) ]
