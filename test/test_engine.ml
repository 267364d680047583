(* The unified engine: end-to-end query answering, the plan cache
   (hits, negative caching, invalidation by planning epoch), the EXPLAIN
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
  (* Any catalog swap bumps the epoch; the old entry is unreachable. *)
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

(* The no-rewriting messages name the pattern: [query_r]'s, and the XQuery
   front door's when no base document can answer in the views' place. *)
let test_error_messages () =
  let pp = Format.asprintf "%a" P.pp in
  (match Engine.query_r (Engine.of_doc doc []) query with
  | Error (Xerror.No_rewriting m as err) ->
      Alcotest.(check string) "query_r names the pattern"
        ("no rewriting over the catalog for:\n" ^ pp query) m;
      Alcotest.(check bool) "the printed error names it too" true
        (contains (Xerror.to_string err) (pp query))
  | Error err -> Alcotest.failf "wrong class: %s" (Xerror.to_string err)
  | Ok _ -> Alcotest.fail "expected No_rewriting");
  let src = {|for $p in doc("bib")//phdthesis return <t>{$p/title/text()}</t>|} in
  let pattern =
    List.hd (Xquery.Extract.extract (Xquery.Parse.query src)).Xquery.Extract.patterns
  in
  let e = Engine.create (Xstorage.Store.catalog_of doc [ ("V1", v1) ]) in
  match Engine.query_string_r e src with
  | Error (Xerror.No_rewriting m as err) ->
      Alcotest.(check string) "the front door names the pattern"
        ("no rewriting and no base document for:\n" ^ pp pattern) m;
      Alcotest.(check bool) "the printed error names it too" true
        (contains (Xerror.to_string err) (pp pattern))
  | Error err -> Alcotest.failf "wrong class: %s" (Xerror.to_string err)
  | Ok _ -> Alcotest.fail "expected No_rewriting without a base document"

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

(* --- The planning epoch ----------------------------------------------------
   A plan is sound or not by the summary's shape and the view definitions
   alone, so it outlives an apply that changes only data, and is re-made
   after one that changes the shape, the module list or the quarantine
   set. Every answer is checked against the embedding of the pattern in
   the engine's document after the apply. *)

module Doc = Xdm.Doc
module Models = Xstorage.Models

let apply_ok e ops =
  match Engine.apply_batch_r e ops with
  | Ok r -> r
  | Error err -> Alcotest.failf "apply failed: %s" (Xerror.to_string err)

let doc_of e = Option.get (Engine.document e)

(* Column-order-independent content: equivalent rewritings may order
   their columns differently. *)
let fingerprint (r : Rel.t) =
  let order =
    List.sort compare
      (List.mapi (fun i (c : Rel.column) -> (c.Rel.cname, i)) r.Rel.schema)
  in
  List.sort_uniq compare
    (List.map (fun t -> List.map (fun (_, i) -> t.(i)) order) r.Rel.tuples)

let answer_ok e pattern =
  match Engine.query_r e pattern with
  | Ok r ->
      Alcotest.(check bool) "answer = embedding in the current document" true
        (fingerprint r.Engine.rel = fingerprint (Xam.Embed.eval (doc_of e) pattern));
      r
  | Error err -> Alcotest.failf "query failed: %s" (Xerror.to_string err)

let hit (r : Engine.result) = r.Engine.explain.Explain.cache_hit
let bumps e = (Engine.counters e).Engine.epoch_bumps
let rewrites e = (Engine.counters e).Engine.rewrites

let first_text d label =
  List.hd (Doc.children d (List.hd (Doc.nodes_with_label d label)))

(* Appended, so that no path is met earlier in document order and every
   path keeps its id: only the cards can change. *)
let insert_entry d xml =
  Engine.Insert_subtree { parent = Doc.root d; before = None; xml }

(* No view stores an author, so its pattern is the front door's
   base-document fallback, a cached [No_rewriting]. *)
let authors_src = {|for $a in doc("bib")//author return <a>{$a/text()}</a>|}

let front_door_ok e src =
  match Engine.query_string_r e src with
  | Ok r ->
      Alcotest.(check string) "front door = direct evaluation"
        (Xquery.Translate.eval_string (doc_of e) src)
        r.Engine.output
  | Error err -> Alcotest.failf "xquery failed: %s" (Xerror.to_string err)

let test_epoch_survives_data_apply () =
  let e = fresh () in
  ignore (answer_ok e query);
  front_door_ok e authors_src;
  let before = bumps e and rw = rewrites e in
  let d = doc_of e in
  let rep =
    apply_ok e
      [ Engine.Update_value { node = first_text d "title"; value = "Renamed" };
        insert_entry d
          {|<book year="2001"><title>Fresh</title><author>Anon</author></book>|} ]
  in
  Alcotest.(check (list string)) "no path added" [] rep.Engine.ap_paths_added;
  Alcotest.(check int) "a shape-preserving apply moves no epoch" before (bumps e);
  Alcotest.(check bool) "the view-answered plan is recalled" true
    (hit (answer_ok e query));
  front_door_ok e authors_src;
  Alcotest.(check int) "neither query re-planned" rw (rewrites e);
  Alcotest.(check bool) "the new book is in the answer" true
    (List.exists
       (fun t -> Array.exists (fun f -> f = Rel.A (Xalgebra.Value.Str "Fresh")) t)
       (Xerror.get_exn (Engine.query_r e query)).Engine.rel.Rel.tuples)

let check_replans name e ops =
  ignore (answer_ok e query);
  let before = bumps e in
  ignore (apply_ok e ops);
  Alcotest.(check int) (name ^ ": one epoch bump") (before + 1) (bumps e);
  Alcotest.(check bool) (name ^ ": re-planned") false (hit (answer_ok e query))

let test_epoch_moves_with_shape () =
  let e = fresh () in
  check_replans "new path" e
    [ Engine.Insert_subtree
        { parent = List.hd (Doc.nodes_with_label (doc_of e) "book"); before = None;
          xml = "<isbn>1</isbn>" } ];
  check_replans "weakened card" e
    [ insert_entry (doc_of e) "<book><title>Lonely</title></book>" ]

(* A cached rewriting that holds only because every book has an author
   (book→author is a strong + edge, used with the constraint chase):
   once a book without an author arrives, reading the book/title view
   alone would also return that book's title. *)
let test_epoch_strong_edge () =
  let vbt = query in
  let vba =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book")
          [ P.v ~axis:P.Child "author" [] ] ]
  in
  let with_author =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book")
          [ P.v ~axis:P.Child "author" [];
            P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]
  in
  let e = Engine.of_doc doc [ ("VBT", vbt); ("VBA", vba) ] in
  let r = answer_ok e with_author in
  Alcotest.(check (list string)) "the strong edge lets book/title answer alone"
    [ "VBT" ] r.Engine.explain.Explain.views_used;
  Alcotest.(check bool) "recalled before the edit" true (hit (answer_ok e with_author));
  ignore (apply_ok e [ insert_entry (doc_of e) "<book><title>Lonely</title></book>" ]);
  let d = doc_of e in
  Alcotest.(check bool) "the old rewriting would now be wrong" true
    (fingerprint (Xam.Embed.eval d vbt) <> fingerprint (Xam.Embed.eval d with_author)
     && Rel.cardinality (Xam.Embed.eval d vbt)
        > Rel.cardinality (Xam.Embed.eval d with_author));
  let r = answer_ok e with_author in
  Alcotest.(check bool) "re-planned after the card weakened" false (hit r);
  Alcotest.(check bool) "the new plan checks the author" true
    (List.mem "VBA" r.Engine.explain.Explain.views_used)

(* A module over the theses goes dormant when the last thesis goes, and
   comes back with the next one: both applies change the module list. *)
let test_epoch_drop_resurrect () =
  let d =
    Doc.of_string ~name:"bib"
      "<library><book><title>A</title><author>x</author></book>\
       <phdthesis><title>T</title><author>y</author></phdthesis></library>"
  in
  let theses =
    P.make
      [ P.v "phdthesis" ~node:(P.mk_node ~id:Xdm.Nid.Structural "phdthesis")
          [ P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]
  in
  let e = Engine.of_doc d [ ("VT", theses); ("V1", v1); ("V2", v2) ] in
  ignore (answer_ok e theses);
  let before = bumps e in
  let rep =
    apply_ok e
      [ Engine.Delete_subtree
          { node = List.hd (Doc.nodes_with_label (doc_of e) "phdthesis") } ]
  in
  Alcotest.(check (list string)) "the thesis view goes dormant" [ "VT" ]
    (List.map fst rep.Engine.ap_dropped);
  Alcotest.(check int) "drop: one epoch bump" (before + 1) (bumps e);
  let r = answer_ok e theses in
  Alcotest.(check bool) "drop: re-planned" false (hit r);
  Alcotest.(check bool) "drop: answered from the document" true
    r.Engine.explain.Explain.degraded;
  let rep =
    apply_ok e
      [ Engine.Insert_subtree
          { parent = Doc.root (doc_of e); before = None;
            xml = "<phdthesis><title>U</title><author>z</author></phdthesis>" } ]
  in
  Alcotest.(check (list string)) "the thesis view is back" [ "VT" ]
    rep.Engine.ap_resurrected;
  Alcotest.(check int) "resurrect: one epoch bump" (before + 2) (bumps e);
  let r = answer_ok e theses in
  Alcotest.(check bool) "resurrect: re-planned" false (hit r);
  Alcotest.(check (list string)) "resurrect: answered from the view" [ "VT" ]
    r.Engine.explain.Explain.views_used

(* Validation verdicts are re-used only while the shape and the built
   modules hold; a dormant module is re-validated on every apply, and
   rejoins once an edit brings its path back. *)
let test_validation_reuse () =
  let isbn =
    P.make [ P.v "isbn" ~node:(P.mk_node ~id:Xdm.Nid.Structural ~value:true "isbn") [] ]
  in
  let obs = Xobs.Obs.create ~tracing:true () in
  let e =
    Engine.of_doc ~obs
      (Doc.of_string ~name:"bib"
         "<library><book><title>A</title><author>x</author><isbn>1</isbn></book></library>")
      [ ("V1", v1); ("VI", isbn) ]
  in
  (* The [reused] tag of the last apply's [validate] span. *)
  let validate_reused () =
    let rec find sp =
      if Xobs.Trace.name sp = "validate" then Some sp
      else List.find_map find (Xobs.Trace.children sp)
    in
    match List.rev (Xobs.Slowlog.recent obs.Xobs.Obs.slowlog) with
    | [] -> Alcotest.fail "no apply trace"
    | trace :: _ -> (
        match find (Xobs.Trace.root trace) with
        | None -> Alcotest.fail "no validate span"
        | Some sp -> List.assoc_opt "reused" (Xobs.Trace.tags sp) = Some "true")
  in
  let text = first_text (doc_of e) "title" in
  ignore (apply_ok e [ Engine.Update_value { node = text; value = "B" } ]);
  Alcotest.(check bool) "same shape, same modules: verdicts re-used" true
    (validate_reused ());
  let rep =
    apply_ok e
      [ Engine.Delete_subtree { node = List.hd (Doc.nodes_with_label (doc_of e) "isbn") } ]
  in
  Alcotest.(check (list string)) "the isbn view goes dormant" [ "VI" ]
    (List.map fst rep.Engine.ap_dropped);
  Alcotest.(check bool) "shape changed: validated" false (validate_reused ());
  ignore
    (apply_ok e
       [ Engine.Update_value { node = first_text (doc_of e) "title"; value = "C" } ]);
  Alcotest.(check bool) "a dormant module is re-validated" false (validate_reused ());
  Alcotest.(check (list string)) "still dormant" [ "VI" ]
    (List.map fst (Engine.dormant_modules e));
  let rep =
    apply_ok e
      [ Engine.Insert_subtree
          { parent = List.hd (Doc.nodes_with_label (doc_of e) "book"); before = None;
            xml = "<isbn>2</isbn>" } ]
  in
  Alcotest.(check (list string)) "resurrected with its path" [ "VI" ]
    rep.Engine.ap_resurrected;
  ignore (answer_ok e isbn)

let test_epoch_quarantine_and_swap () =
  let fs = Faultstore.create ~broken:[ "V1" ] () in
  let e =
    Engine.of_doc ~env_wrap:(Faultstore.wrap fs) doc [ ("V1", v1); ("V2", v2) ]
  in
  let titles =
    P.make [ P.v "title" ~node:(P.mk_node ~value:true "title") [] ]
  in
  ignore (answer_ok e titles);
  Alcotest.(check bool) "cached" true (hit (answer_ok e titles));
  let before = bumps e in
  ignore (answer_ok e query);
  Alcotest.(check int) "the quarantine moved the epoch" (before + 1) (bumps e);
  Alcotest.(check bool) "quarantine: re-planned" false (hit (answer_ok e titles));
  ignore (answer_ok e query);
  Alcotest.(check int) "a module already quarantined moves nothing" (before + 1)
    (bumps e);
  Xerror.get_exn (Engine.set_catalog_r e (Engine.catalog e));
  Alcotest.(check int) "the swap moved the epoch" (before + 2) (bumps e);
  Alcotest.(check bool) "swap: re-planned" false (hit (answer_ok e titles))

(* Property: an engine whose plan cache lived through a run of random
   mutation batches answers generated XQuery exactly as an engine freshly
   built over the same document does. Most edits keep the summary's
   shape (value updates, deleted and appended complete entries) and so
   keep every plan; some weaken a card (an entry without an author or a
   title, or with two titles) or add a path (an [isbn]), and those must
   re-plan. *)
let mutation_batch rng d =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let handles kinds =
    let acc = ref [] in
    Doc.iter (fun h -> if List.mem (Doc.kind d h) kinds then acc := h :: !acc) d;
    !acc
  in
  let entries = Doc.children d (Doc.root d) in
  let word () = pick [ "Data"; "Web"; "Views"; "Trees"; "Storage" ] in
  let year () = string_of_int (1990 + Random.State.int rng 20) in
  let entry ~titles ~authors =
    let tag = if Random.State.int rng 4 = 0 then "phdthesis" else "book" in
    let each n f = String.concat "" (List.init n (fun _ -> f ())) in
    Printf.sprintf "<%s year=\"%s\">%s%s</%s>" tag (year ())
      (each titles (fun () -> "<title>" ^ word () ^ " " ^ word () ^ "</title>"))
      (each authors (fun () -> "<author>" ^ word () ^ "</author>"))
      tag
  in
  let append xml = Engine.Insert_subtree { parent = Doc.root d; before = None; xml } in
  match Random.State.int rng 20 with
  | n when n < 8 ->
      Engine.Update_value
        { node = pick (handles [ Doc.Text; Doc.Attribute ]); value = word () }
  | n when n < 11 && List.length entries > 2 -> Engine.Delete_subtree { node = pick entries }
  | 16 -> append (entry ~titles:1 ~authors:0)
  | 17 -> append (entry ~titles:0 ~authors:1)
  | 18 -> append (entry ~titles:2 ~authors:1)
  | 19 -> Engine.Insert_subtree { parent = pick entries; before = None; xml = "<isbn>0</isbn>" }
  | _ -> append (entry ~titles:1 ~authors:(1 + Random.State.int rng 2))

let doc_apply d = function
  | Engine.Insert_subtree { parent; before; xml } ->
      Doc.insert_subtree d ~parent ?before (Xdm.Xml_tree.parse xml)
  | Engine.Delete_subtree { node } -> Doc.delete_subtree d node
  | Engine.Update_value { node; value } -> Doc.update_value d node value

let warm_cold_prop =
  QCheck2.Test.make ~name:"warm plan cache = cold engine after mutation batches"
    ~count:12 ~long_factor:20 QCheck2.Gen.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d0 =
        Xworkload.Gen_bib.generate_doc ~seed:(seed land 0xffff) ~books:6 ~theses:2 ()
      in
      let s0 = Xsummary.Summary.of_doc d0 in
      (* Inlined views hold only while title is one-to-one below an entry:
         rewritings over them lean on the summary's cards. *)
      let specs = Models.path_partitioned s0 @ Models.inlined s0 in
      let queries =
        Xworkload.Query_gen.generate_many ~seed s0 ~doc_name:"bib"
          Xworkload.Query_gen.default ~count:4
      in
      (* Extracted XQuery patterns mostly fall back to the document;
         generated patterns are mostly rewritten over the views. *)
      let patterns =
        List.concat_map
          (fun labels ->
            Xworkload.Pattern_gen.generate_many ~seed s0
              { Xworkload.Pattern_gen.default with return_labels = labels; size = 4 }
              ~count:2)
          [ [ "title" ]; [ "author" ]; [ "title"; "author" ]; [ "book" ] ]
      in
      let outputs e =
        List.map
          (fun q ->
            match Engine.query_ast_r e q with
            | Ok r -> Ok r.Engine.output
            | Error err -> Error (Xerror.to_string err))
          queries
      in
      let extents e =
        List.map
          (fun p ->
            match Engine.query_r e p with
            | Ok r -> Ok r.Engine.rel
            | Error err -> Error (Xerror.to_string err))
          patterns
      in
      let same_extent w c =
        match (w, c) with
        | Ok w, Ok c -> fingerprint w = fingerprint c
        | w, c -> w = c
      in
      let show = function Ok r -> Format.asprintf "%a" Rel.pp r | Error m -> m in
      let warm = Engine.of_doc d0 specs in
      ignore (outputs warm, extents warm);
      let history = ref [] in
      List.for_all
        (fun _ ->
          let ops, _ =
            List.fold_left
              (fun (ops, d) _ ->
                let op = mutation_batch rng d in
                (op :: ops, doc_apply d op))
              ([], doc_of warm)
              (List.init (1 + Random.State.int rng 3) Fun.id)
          in
          let ops = List.rev ops in
          ignore (apply_ok warm ops);
          history := !history @ ops;
          (* The whole history as one batch: the same document and the
             same dormant modules, with a plan cache that never saw an
             earlier epoch. *)
          let cold = Engine.of_doc d0 specs in
          ignore (apply_ok cold !history);
          List.for_all2
            (fun w c ->
              w = c
              || QCheck2.Test.fail_reportf "warm: %s@.cold: %s"
                   (match w with Ok o | Error o -> o)
                   (match c with Ok o | Error o -> o))
            (outputs warm) (outputs cold)
          && List.for_all2
               (fun (p, w) c ->
                 same_extent w c
                 || QCheck2.Test.fail_reportf "pattern %s@.warm: %s@.cold: %s"
                      (P.to_string p) (show w) (show c))
               (List.combine patterns (extents warm))
               (extents cold))
        (List.init 4 Fun.id))

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
      ( "plan-epoch",
        [ Alcotest.test_case "plans outlive a data-only apply" `Quick
            test_epoch_survives_data_apply;
          Alcotest.test_case "a shape change re-plans" `Quick
            test_epoch_moves_with_shape;
          Alcotest.test_case "a weakened strong edge re-plans" `Quick
            test_epoch_strong_edge;
          Alcotest.test_case "dropped and resurrected modules re-plan" `Quick
            test_epoch_drop_resurrect;
          Alcotest.test_case "validation verdicts re-used" `Quick
            test_validation_reuse;
          Alcotest.test_case "quarantine and swap re-plan" `Quick
            test_epoch_quarantine_and_swap ] );
      ("props", [ QCheck_alcotest.to_alcotest warm_cold_prop ]);
      ( "explain",
        [ Alcotest.test_case "per-operator counts" `Quick test_explain_output;
          Alcotest.test_case "from_cache flag and JSON" `Quick
            test_explain_from_cache ] );
      ( "robustness",
        [ Alcotest.test_case "typed error classification" `Quick
            test_query_r_classification;
          Alcotest.test_case "no-rewriting messages name the pattern" `Quick
            test_error_messages;
          Alcotest.test_case "tuple and step budgets" `Quick test_budget_tuples_steps;
          Alcotest.test_case "deadline budget" `Quick test_budget_deadline;
          Alcotest.test_case "catalog validation" `Quick test_catalog_validation;
          Alcotest.test_case "quarantine and degraded re-plan" `Quick
            test_quarantine_and_degraded ] ) ]
