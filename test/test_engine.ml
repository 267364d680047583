(* The unified engine: end-to-end query answering, the plan cache
   (hits, negative caching, generation-based invalidation), the EXPLAIN
   surface and the XQuery front door. *)

module P = Xam.Pattern
module Rel = Xalgebra.Rel
module Ph = Xalgebra.Physical
module Engine = Xengine.Engine
module Explain = Xengine.Explain
module Xerror = Xengine.Xerror

let doc = Xworkload.Gen_bib.generate_doc ~seed:5 ~books:20 ~theses:8 ()

let v1 = P.make [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book") [] ]

let v2 =
  P.make
    [ P.v "title" ~node:(P.mk_node ~id:Xdm.Nid.Structural ~value:true "title") [] ]

let query =
  P.make
    [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book")
        [ P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]

let fresh () = Engine.of_doc doc [ ("V1", v1); ("V2", v2) ]

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_end_to_end () =
  let e = fresh () in
  let r = Xerror.get_exn (Engine.query_r e query) in
  let direct = Xam.Embed.eval doc query in
  Alcotest.(check int) "engine result matches direct embedding"
    (Rel.cardinality direct)
    (Rel.cardinality r.Engine.rel);
  Alcotest.(check bool) "first query misses the cache" false
    r.Engine.explain.Explain.cache_hit;
  Alcotest.(check bool) "chosen rewriting reads both views" true
    (List.sort compare r.Engine.explain.Explain.views_used = [ "V1"; "V2" ])

let test_cache_hit () =
  let e = fresh () in
  let r1 = Xerror.get_exn (Engine.query_r e query) in
  Alcotest.(check int) "one rewrite after the first query" 1
    (Engine.counters e).Engine.rewrites;
  let r2 = Xerror.get_exn (Engine.query_r e query) in
  (* [counters] is a snapshot — re-fetch after the second query. *)
  let c = Engine.counters e in
  Alcotest.(check bool) "second query hits the cache" true
    r2.Engine.explain.Explain.cache_hit;
  Alcotest.(check int) "hit counter incremented" 1 c.Engine.hits;
  Alcotest.(check int) "rewrite not re-run" 1 c.Engine.rewrites;
  Alcotest.(check int) "cached plan gives the same result"
    (Rel.cardinality r1.Engine.rel)
    (Rel.cardinality r2.Engine.rel)

let test_cache_invalidation () =
  let e = fresh () in
  ignore (Xerror.get_exn (Engine.query_r e query));
  (* Any catalog swap bumps the generation; the old entry is unreachable. *)
  Xerror.get_exn (Engine.set_catalog_r e (Engine.catalog e));
  let r = Xerror.get_exn (Engine.query_r e query) in
  Alcotest.(check bool) "catalog swap invalidates the cache" false
    r.Engine.explain.Explain.cache_hit;
  Alcotest.(check int) "rewrite ran again" 2 (Engine.counters e).Engine.rewrites

let test_negative_caching () =
  let e = Engine.of_doc doc [] in
  Alcotest.(check bool) "no views, no rewriting" true
    (Result.is_error (Engine.query_r e query));
  Alcotest.(check bool) "still none" true
    (Result.is_error (Engine.query_r e query));
  let c = Engine.counters e in
  Alcotest.(check int) "the negative outcome was cached" 1 c.Engine.rewrites;
  Alcotest.(check int) "second probe was a hit" 1 c.Engine.hits

let test_explain_output () =
  let e = fresh () in
  let r = Xerror.get_exn (Engine.query_r e query) in
  let s = Explain.to_string r.Engine.explain in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "EXPLAIN mentions %S" needle) true
        (contains s needle))
    [ "tuples"; "next()"; "scan V1"; "scan V2"; "plan cache MISS" ];
  (* The stats tree carries real per-operator tuple counts. *)
  let root = r.Engine.explain.Explain.stats in
  Alcotest.(check bool) "root operator produced tuples" true (root.Ph.tuples > 0);
  Alcotest.(check bool) "root operator saw next() calls" true (root.Ph.nexts > 0);
  let rec any f (n : Ph.op_stats) = f n || List.exists (any f) n.Ph.children in
  Alcotest.(check bool) "a scan leaf is instrumented" true
    (any (fun n -> contains n.Ph.op "scan" && n.Ph.tuples > 0) root)

let test_explain_from_cache () =
  (* Regression: [from_cache] must flip on a plan-cache hit and survive the
     JSON round-trip — it used to be absent, so a recalled plan was
     indistinguishable from a fresh one in exported EXPLAINs. *)
  let e = fresh () in
  let r1 = Xerror.get_exn (Engine.query_r e query) in
  Alcotest.(check bool) "fresh plan is not from cache" false
    r1.Engine.explain.Explain.from_cache;
  let r2 = Xerror.get_exn (Engine.query_r e query) in
  Alcotest.(check bool) "recalled plan is from cache" true
    r2.Engine.explain.Explain.from_cache;
  let roundtrip (x : Explain.t) =
    match Explain.of_json_string (Explain.to_json_string x) with
    | Ok s -> s
    | Error m -> Alcotest.failf "EXPLAIN JSON did not parse back: %s" m
  in
  Alcotest.(check bool) "from_cache=false survives JSON" false
    (roundtrip r1.Engine.explain).Explain.s_from_cache;
  Alcotest.(check bool) "from_cache=true survives JSON" true
    (roundtrip r2.Engine.explain).Explain.s_from_cache;
  Alcotest.(check bool) "JSON round-trip is exact" true
    (roundtrip r2.Engine.explain = Explain.summarize r2.Engine.explain);
  Alcotest.(check bool) "pretty EXPLAIN names the recall" true
    (contains (Explain.to_string r2.Engine.explain) "recalled from cache");
  (* EXPLAIN JSON persisted before [from_cache] existed (JSONL archives,
     CI artifacts) must still parse, the field defaulting to [cache_hit]. *)
  let legacy (x : Explain.t) =
    match Explain.to_json x with
    | Xobs.Json.Obj fields ->
        Xobs.Json.Obj
          (List.filter (fun (k, _) -> not (String.equal k "from_cache")) fields)
    | j -> j
  in
  let parse_legacy x =
    match Explain.of_json (legacy x) with
    | Ok s -> s
    | Error m -> Alcotest.failf "legacy EXPLAIN JSON rejected: %s" m
  in
  Alcotest.(check bool) "legacy JSON defaults from_cache to cache_hit=true" true
    (parse_legacy r2.Engine.explain).Explain.s_from_cache;
  Alcotest.(check bool) "legacy JSON defaults from_cache to cache_hit=false"
    false
    (parse_legacy r1.Engine.explain).Explain.s_from_cache

(* --- Robustness: typed errors, budgets, quarantine ----------------------- *)

module Store = Xstorage.Store
module Faultstore = Xstorage.Faultstore

let test_query_r_classification () =
  (* No views: the failure is a classified No_rewriting, and query_r
     never raises. *)
  let e = Engine.of_doc doc [] in
  (match Engine.query_r e query with
  | Error (Xerror.No_rewriting _) -> ()
  | Error err -> Alcotest.failf "wrong class: %s" (Xerror.to_string err)
  | Ok _ -> Alcotest.fail "expected an error");
  (* Bad XQuery text: classified as a parse error by query_string_r. *)
  let e = fresh () in
  (match Engine.query_string_r e "for $x in ((( return $x" with
  | Error (Xerror.Parse_error _) -> ()
  | Error err -> Alcotest.failf "wrong class: %s" (Xerror.to_string err)
  | Ok _ -> Alcotest.fail "expected a parse error");
  (* [Xerror.get_exn] raises the classified failure as [Xerror.Error]. *)
  let e = Engine.of_doc doc [] in
  (match Xerror.get_exn (Engine.query_r e query) with
  | exception Xerror.Error (Xerror.No_rewriting _) -> ()
  | exception ex -> Alcotest.failf "wrong exception: %s" (Printexc.to_string ex)
  | _ -> Alcotest.fail "expected No_rewriting")

let test_budget_tuples_steps () =
  let e = fresh () in
  (match Engine.query_r ~budget:{ Engine.unlimited with Engine.max_tuples = Some 1 } e query with
  | Error (Xerror.Budget_exceeded { dimension = Xerror.Tuples; _ }) -> ()
  | Error err -> Alcotest.failf "wrong class: %s" (Xerror.to_string err)
  | Ok _ -> Alcotest.fail "expected a tuple-budget stop");
  (match Engine.query_r ~budget:{ Engine.unlimited with Engine.max_steps = Some 2 } e query with
  | Error (Xerror.Budget_exceeded { dimension = Xerror.Steps; _ }) -> ()
  | Error err -> Alcotest.failf "wrong class: %s" (Xerror.to_string err)
  | Ok _ -> Alcotest.fail "expected a step-budget stop");
  (* A generous budget does not disturb the answer. *)
  let budget =
    { Engine.deadline_ms = Some 60_000.0; max_tuples = Some 1_000_000;
      max_steps = Some 10_000_000 }
  in
  (match Engine.query_r ~budget e query with
  | Ok r ->
      Alcotest.(check int) "budgeted answer unchanged"
        (Rel.cardinality (Xam.Embed.eval doc query))
        (Rel.cardinality r.Engine.rel)
  | Error err -> Alcotest.failf "unexpected: %s" (Xerror.to_string err));
  (* The budget stops left the engine answering. *)
  Alcotest.(check bool) "query_r still answers" true
    (Result.is_ok (Engine.query_r e query))

let test_budget_deadline () =
  let e = fresh () in
  match
    Engine.query_r ~budget:{ Engine.unlimited with Engine.deadline_ms = Some 0.0 } e
      query
  with
  | Error (Xerror.Budget_exceeded { dimension = Xerror.Deadline; _ }) -> ()
  | Error err -> Alcotest.failf "wrong class: %s" (Xerror.to_string err)
  | Ok _ -> Alcotest.fail "expected a deadline stop"

let bogus =
  P.make
    [ P.v "no_such_label" ~node:(P.mk_node ~id:Xdm.Nid.Structural "no_such_label") [] ]

let test_catalog_validation () =
  (match Store.catalog_of doc [ ("BAD", bogus) ] with
  | exception Store.Invalid_module { name; _ } ->
      Alcotest.(check string) "offending module named" "BAD" name
  | _ -> Alcotest.fail "expected Invalid_module");
  let e = fresh () in
  let cat = Engine.catalog e in
  let bad_module = Store.materialize doc "BAD" bogus in
  let broken_catalog =
    { cat with Store.modules = cat.Store.modules @ [ bad_module ] }
  in
  (match Engine.set_catalog_r e broken_catalog with
  | Error (Xerror.Catalog_invalid { module_name = "BAD"; _ }) -> ()
  | Error err -> Alcotest.failf "wrong class: %s" (Xerror.to_string err)
  | Ok () -> Alcotest.fail "expected rejection");
  (* The engine kept its previous catalog and still answers. *)
  Alcotest.(check bool) "engine still answers after rejected swap" true
    (Result.is_ok (Engine.query_r e query))

let test_quarantine_and_degraded () =
  let fs = Faultstore.create ~broken:[ "V1" ] () in
  let e =
    Engine.of_doc ~env_wrap:(Faultstore.wrap fs) doc [ ("V1", v1); ("V2", v2) ]
  in
  (* V1 faults on first touch; V2 alone cannot answer, so the engine
     degrades to the base document — same answer, flagged. *)
  (match Engine.query_r e query with
  | Ok r ->
      Alcotest.(check int) "degraded answer matches direct embedding"
        (Rel.cardinality (Xam.Embed.eval doc query))
        (Rel.cardinality r.Engine.rel);
      Alcotest.(check bool) "flagged degraded" true r.Engine.explain.Explain.degraded;
      Alcotest.(check (list string)) "quarantine visible in explain" [ "V1" ]
        r.Engine.explain.Explain.quarantined
  | Error err -> Alcotest.failf "unexpected: %s" (Xerror.to_string err));
  Alcotest.(check (list string)) "V1 quarantined" [ "V1" ]
    (List.map fst (Engine.quarantined e));
  let c = Engine.counters e in
  Alcotest.(check int) "one fault absorbed" 1 c.Engine.faults;
  Alcotest.(check int) "one degraded answer" 1 c.Engine.degraded;
  Alcotest.(check int) "one module quarantined" 1 c.Engine.quarantines;
  Alcotest.(check int) "faults counted = faults injected" (Faultstore.injected fs)
    c.Engine.faults;
  (* A catalog swap clears the quarantine; with a healthy wrap the
     engine rewrites normally again. *)
  Xerror.get_exn
    (Engine.set_catalog_r e (Store.catalog_of doc [ ("V1", v1); ("V2", v2) ]));
  Alcotest.(check (list string)) "swap clears quarantine" []
    (List.map fst (Engine.quarantined e))

let test_xquery_front_door () =
  let e = fresh () in
  let src = {|for $b in doc("bib")//book return <t>{$b/title/text()}</t>|} in
  let r = Xerror.get_exn (Engine.query_string_r e src) in
  let direct = Xquery.Translate.eval_string doc src in
  Alcotest.(check string) "front door matches direct evaluation" direct
    r.Engine.output;
  Alcotest.(check int) "one pattern was extracted" 1
    (List.length r.Engine.pattern_explains);
  Alcotest.(check bool) "the tagging plan is instrumented" true
    (r.Engine.xquery_stats.Ph.tuples > 0)

let () =
  Alcotest.run "engine"
    [ ( "pipeline",
        [ Alcotest.test_case "end to end" `Quick test_end_to_end;
          Alcotest.test_case "xquery front door" `Quick test_xquery_front_door ] );
      ( "plan-cache",
        [ Alcotest.test_case "repeat query hits" `Quick test_cache_hit;
          Alcotest.test_case "catalog swap invalidates" `Quick
            test_cache_invalidation;
          Alcotest.test_case "negative outcomes cached" `Quick
            test_negative_caching ] );
      ( "explain",
        [ Alcotest.test_case "per-operator counts" `Quick test_explain_output;
          Alcotest.test_case "from_cache flag and JSON" `Quick
            test_explain_from_cache ] );
      ( "robustness",
        [ Alcotest.test_case "typed error classification" `Quick
            test_query_r_classification;
          Alcotest.test_case "tuple and step budgets" `Quick test_budget_tuples_steps;
          Alcotest.test_case "deadline budget" `Quick test_budget_deadline;
          Alcotest.test_case "catalog validation" `Quick test_catalog_validation;
          Alcotest.test_case "quarantine and degraded re-plan" `Quick
            test_quarantine_and_degraded ] ) ]
