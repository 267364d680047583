(* The observability layer: histogram percentile bounds and exact merge
   (QCheck), slow-log ring eviction, fake-clock span trees, span/EXPLAIN
   agreement, Explain JSON round-trips, metric determinism under
   query_batch at 4 domains, and the Prometheus exposition surviving its
   own format validator after a chaos run. Everything is seeded. *)

module Metrics = Xobs.Metrics
module Clock = Xobs.Clock
module Trace = Xobs.Trace
module Slowlog = Xobs.Slowlog
module Obs = Xobs.Obs
module Export = Xobs.Export
module Json = Xobs.Json
module P = Xam.Pattern
module Rel = Xalgebra.Rel
module Engine = Xengine.Engine
module Explain = Xengine.Explain
module Xerror = Xengine.Xerror
module Models = Xstorage.Models
module Faultstore = Xstorage.Faultstore
module Pg = Xworkload.Pattern_gen

(* --- Histograms ------------------------------------------------------- *)

let snapshot_of values =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" in
  List.iter (Metrics.observe h) values;
  Metrics.snapshot h

(* The documented estimator contract: the reported percentile is an upper
   bound on the true quantile, within a factor 2 of it (observations are
   ≥ 1µs so none land below the first bucket bound) — except that a rank
   landing in the overflow bucket clamps to the last finite bucket bound
   instead of answering infinity. Samples range to 200s, past the ≈67s
   last finite bound, so the clamp branch is exercised. *)
let percentile_bounds_prop =
  QCheck2.Test.make ~name:"percentile within [exact, 2·exact], clamped"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 100) (float_range 1e-6 200.0))
        (float_range 0.01 1.0))
    (fun (values, q) ->
      let snap = snapshot_of values in
      let sorted = Array.of_list (List.sort compare values) in
      let n = Array.length sorted in
      let rank = min n (max 1 (int_of_float (ceil (q *. float_of_int n)))) in
      let exact = sorted.(rank - 1) in
      let est = Metrics.percentile snap q in
      let last_finite = Metrics.bucket_upper (Metrics.bucket_count - 2) in
      Float.is_finite est
      &&
      if exact > last_finite then est = last_finite
      else est >= exact -. 1e-15 && est <= (2.0 *. exact) +. 1e-15)

let merge_assoc_prop =
  QCheck2.Test.make ~name:"snapshot merge is associative and exact" ~count:100
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 50) (float_range 1e-6 60.0))
        (list_size (int_range 0 50) (float_range 1e-6 60.0))
        (list_size (int_range 0 50) (float_range 1e-6 60.0)))
    (fun (a, b, c) ->
      let sa = snapshot_of a and sb = snapshot_of b and sc = snapshot_of c in
      let l = Metrics.merge (Metrics.merge sa sb) sc in
      let r = Metrics.merge sa (Metrics.merge sb sc) in
      let all = snapshot_of (a @ b @ c) in
      l = r && l = all)

(* The bucket search as it was before the bounds were precomputed: the
   first bucket whose upper bound is >= v. Values range over every bucket,
   exact bounds and their neighbours, zero, negatives, infinities and NaN. *)
let reference_bucket v =
  let rec go i =
    if i >= Metrics.bucket_count - 1 || v <= Metrics.bucket_upper i then i else go (i + 1)
  in
  go 0

let bucket_of_prop =
  QCheck2.Test.make ~name:"bucket_of lands where the linear search does" ~count:1000
    QCheck2.Gen.(
      oneof
        [ float_range 0.0 200.0;
          map (fun e -> 10.0 ** e) (float_range (-9.0) 3.0);
          map2
            (fun i d -> Metrics.bucket_upper i +. d)
            (int_bound (Metrics.bucket_count - 2))
            (oneofl [ 0.0; -1e-12; 1e-12 ]);
          oneofl [ 0.0; -1.0; Float.infinity; Float.neg_infinity; Float.nan ] ])
    (fun v -> Metrics.bucket_of v = reference_bucket v)

(* Observing is on every read and apply path: it must not allocate. *)
let test_observe_allocates_nothing () =
  let h = Metrics.histogram (Metrics.create ()) "alloc" in
  (* A list holds its floats boxed already, so the loop boxes nothing. *)
  let values = [ 3e-7; 2.5e-3; 0.4; 90.0 ] in
  let observe = Metrics.observe h in
  List.iter observe values;
  let before = Gc.minor_words () in
  for _ = 1 to 2_500 do
    List.iter observe values
  done;
  let words = Gc.minor_words () -. before in
  (* Allocating even one word per call would show as 10k words; the
     margin covers boxing the counter readings themselves. *)
  if words > 16.0 then Alcotest.failf "observe allocated %.0f words over 10k calls" words

let test_histogram_basics () =
  let snap = snapshot_of [ 0.5e-6; 1e-6; 3e-6; 100.0 ] in
  Alcotest.(check int) "count" 4 snap.Metrics.count;
  (* 0.5µs lands in the first bucket; 100s in the overflow bucket. *)
  Alcotest.(check int) "first bucket" 2 snap.Metrics.counts.(0);
  Alcotest.(check int) "overflow" 1
    snap.Metrics.counts.(Metrics.bucket_count - 1);
  Alcotest.(check (float 1e-9)) "overflow percentile clamps to last finite bound"
    (Metrics.bucket_upper (Metrics.bucket_count - 2))
    (Metrics.percentile snap 1.0);
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0
    (Metrics.percentile Metrics.empty_snapshot 0.5);
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" in
  Metrics.observe h (-1.0);
  Metrics.observe h Float.nan;
  Alcotest.(check int) "negative and NaN dropped" 0
    (Metrics.snapshot h).Metrics.count

let test_counter_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c_total" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check int) "get-or-create shares state" 5
    (Metrics.counter_value (Metrics.counter reg "c_total"));
  let g = Metrics.gauge reg "g" in
  Metrics.set_gauge g 2.5;
  Metrics.add_gauge g 0.5;
  Alcotest.(check (float 1e-9)) "gauge" 3.0 (Metrics.gauge_value g);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: c_total already registered as another kind")
    (fun () -> ignore (Metrics.gauge reg "c_total"))

(* --- Slow-query log --------------------------------------------------- *)

let fake_trace fc ~id ~ms =
  let tr = Trace.start ~clock:(Clock.clock fc) ~id "query" in
  Clock.advance fc (ms /. 1000.0);
  Trace.finish tr;
  tr

let test_ring_eviction () =
  let fc = Clock.fake () in
  let log = Slowlog.create ~capacity:4 () in
  for id = 1 to 10 do
    Slowlog.record log (fake_trace fc ~id ~ms:1.0)
  done;
  Alcotest.(check (list int)) "last 4, oldest first" [ 7; 8; 9; 10 ]
    (List.map Trace.id (Slowlog.recent log));
  Alcotest.(check int) "recorded counts everything" 10 (Slowlog.recorded log)

let test_slow_threshold () =
  let fc = Clock.fake () in
  let log = Slowlog.create ~capacity:2 ~threshold_ms:10.0 () in
  Slowlog.record log (fake_trace fc ~id:1 ~ms:5.0);
  Slowlog.record log (fake_trace fc ~id:2 ~ms:20.0);
  Slowlog.record log (fake_trace fc ~id:3 ~ms:30.0);
  Slowlog.record log (fake_trace fc ~id:4 ~ms:1.0);
  (* ids 1 and 2 fell out of the 2-slot ring, but 2 survives as slow. *)
  Alcotest.(check (list int)) "ring" [ 3; 4 ]
    (List.map Trace.id (Slowlog.recent log));
  Alcotest.(check (list int)) "slow, oldest first" [ 2; 3 ]
    (List.map Trace.id (Slowlog.slow log))

(* --- Traces on a fake clock ------------------------------------------- *)

let test_span_nesting () =
  let fc = Clock.fake ~now:100.0 () in
  let tr = Trace.start ~clock:(Clock.clock fc) ~id:7 "root" in
  Trace.span tr (Trace.root tr) "outer" (fun outer ->
      Clock.advance fc 0.010;
      Trace.span tr outer "inner" (fun inner ->
          Trace.tag inner "k" "v";
          Clock.advance fc 0.005);
      Trace.event tr outer "tick" [ ("n", "1") ]);
  Clock.advance fc 0.002;
  Trace.finish tr;
  Alcotest.(check (float 1e-9)) "root duration" 17.0 (Trace.duration_ms tr);
  match Trace.children (Trace.root tr) with
  | [ outer ] ->
      Alcotest.(check string) "outer name" "outer" (Trace.name outer);
      Alcotest.(check (float 1e-9)) "outer covers both" 15.0
        (Trace.span_ms outer);
      (match Trace.children outer with
      | [ inner; tick ] ->
          Alcotest.(check string) "inner name" "inner" (Trace.name inner);
          Alcotest.(check (float 1e-9)) "inner duration" 5.0
            (Trace.span_ms inner);
          Alcotest.(check (list (pair string string))) "inner tags"
            [ ("k", "v") ] (Trace.tags inner);
          Alcotest.(check string) "event name" "tick" (Trace.name tick);
          Alcotest.(check (float 1e-9)) "event is instantaneous" 0.0
            (Trace.span_ms tick)
      | kids ->
          Alcotest.failf "expected [inner; tick], got %d children"
            (List.length kids));
      let json = Export.trace_jsonl tr in
      (match Json.of_string json with
      | Ok j ->
          Alcotest.(check (option bool)) "trace_id exported" (Some true)
            (Option.map (fun v -> Json.to_int v = Some 7) (Json.member "trace_id" j))
      | Error e -> Alcotest.failf "trace JSON unparseable: %s" e)
  | kids -> Alcotest.failf "expected [outer], got %d children" (List.length kids)

(* --- The engine under observation ------------------------------------- *)

let doc = Xworkload.Gen_bib.generate_doc ~seed:21 ~books:60 ~theses:25 ()
let summary = Xsummary.Summary.of_doc doc
let specs = Models.path_partitioned summary

let book_title_query =
  P.make
    [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Simple "book")
        [ P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]

(* Distinct patterns (deduplicated on the plan-cache key), so hit/miss
   accounting cannot depend on cross-domain timing. *)
let distinct_patterns () =
  let pats =
    List.concat_map
      (fun (seed, labels) ->
        Pg.generate_many ~seed summary
          { Pg.default with Pg.return_labels = labels; Pg.size = 4 }
          ~count:8)
      [ (7, [ "title" ]); (8, [ "author" ]); (9, [ "title"; "author" ]) ]
  in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      let key = Xam.Canonical.cache_key summary p in
      if Hashtbl.mem seen key then false
      else (
        Hashtbl.add seen key ();
        true))
    pats

let test_trace_covers_pipeline () =
  let obs = Obs.create ~tracing:true () in
  let e = Engine.of_doc ~obs ~max_views:4 doc specs in
  match Engine.query_r e book_title_query with
  | Error err -> Alcotest.failf "query failed: %s" (Xerror.to_string err)
  | Ok r -> (
      match r.Engine.trace with
      | None -> Alcotest.fail "tracing on but no trace attached"
      | Some tr ->
          let root = Trace.root tr in
          Alcotest.(check string) "root" "query" (Trace.name root);
          Alcotest.(check bool) "root tagged with domain" true
            (List.mem_assoc "domain" (Trace.tags root));
          let names = List.map Trace.name (Trace.children root) in
          Alcotest.(check (list string)) "pipeline stages" [ "plan"; "execute" ]
            names;
          let plan = List.nth (Trace.children root) 0 in
          Alcotest.(check (option string)) "cache miss tagged" (Some "miss")
            (List.assoc_opt "cache" (Trace.tags plan));
          Alcotest.(check (list string)) "planning substages"
            [ "rewrite"; "cost-choice" ]
            (List.map Trace.name (Trace.children plan));
          (* The execute span mirrors the EXPLAIN operator tree exactly:
             same shape, same names, same tuple/next counts. *)
          let execute = List.nth (Trace.children root) 1 in
          let rec agree sp (st : Xalgebra.Physical.op_stats) =
            Alcotest.(check string) "op name" ("op:" ^ st.Xalgebra.Physical.op)
              (Trace.name sp);
            Alcotest.(check (option string)) "tuples tag"
              (Some (string_of_int st.Xalgebra.Physical.tuples))
              (List.assoc_opt "tuples" (Trace.tags sp));
            Alcotest.(check (option string)) "nexts tag"
              (Some (string_of_int st.Xalgebra.Physical.nexts))
              (List.assoc_opt "nexts" (Trace.tags sp));
            let kids = Trace.children sp in
            Alcotest.(check int) "child count"
              (List.length st.Xalgebra.Physical.children)
              (List.length kids);
            List.iter2 agree kids st.Xalgebra.Physical.children
          in
          (match Trace.children execute with
          | [ op_root ] -> agree op_root r.Engine.explain.Explain.stats
          | kids ->
              Alcotest.failf "expected one operator root span, got %d"
                (List.length kids));
          Alcotest.(check int) "trace landed in the slow-query log" 1
            (Slowlog.recorded obs.Obs.slowlog))

let test_cache_hit_timings () =
  let e = Engine.of_doc ~max_views:4 doc specs in
  let cold = Xerror.get_exn (Engine.query_r e book_title_query) in
  let warm = Xerror.get_exn (Engine.query_r e book_title_query) in
  let cx = cold.Engine.explain and wx = warm.Engine.explain in
  Alcotest.(check bool) "cold misses" false cx.Explain.cache_hit;
  Alcotest.(check bool) "warm hits" true wx.Explain.cache_hit;
  Alcotest.(check (float 1e-9)) "hit did no rewriting" 0.0 wx.Explain.rewrite_ms;
  Alcotest.(check bool) "miss planned_ms = rewrite_ms" true
    (cx.Explain.planned_ms = cx.Explain.rewrite_ms);
  Alcotest.(check bool) "hit remembers the original planning cost" true
    (wx.Explain.planned_ms = cx.Explain.planned_ms)

let test_explain_json_roundtrip () =
  let e = Engine.of_doc ~max_views:4 doc specs in
  let cold = Xerror.get_exn (Engine.query_r e book_title_query) in
  let warm = Xerror.get_exn (Engine.query_r e book_title_query) in
  List.iter
    (fun (what, (r : Engine.result)) ->
      let ex = r.Engine.explain in
      match Explain.of_json_string (Explain.to_json_string ex) with
      | Error msg -> Alcotest.failf "%s: decode failed: %s" what msg
      | Ok s ->
          Alcotest.(check bool)
            (what ^ ": of_json ∘ to_json = summarize") true
            (s = Explain.summarize ex))
    [ ("cold", cold); ("warm", warm) ];
  (match Explain.of_json_string "{\"query\": 3}" with
  | Ok _ -> Alcotest.fail "bad JSON accepted"
  | Error _ -> ());
  match Explain.of_json_string "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let metric_fingerprint (obs : Obs.t) =
  List.filter_map
    (fun (name, _help, m) ->
      match m with
      | Metrics.Counter c -> Some (name, Metrics.counter_value c)
      | Metrics.Gauge _ -> None
      | Metrics.Histogram h ->
          (* Timings differ run to run; the observation counts may not. *)
          Some (name, (Metrics.snapshot h).Metrics.count)
      | Metrics.Counter_family f ->
          Some
            ( name,
              List.fold_left
                (fun acc (_, c) -> acc + Metrics.counter_value c)
                0 (Metrics.counter_children f) )
      | Metrics.Histogram_family f ->
          Some
            ( name,
              List.fold_left
                (fun acc (_, h) -> acc + (Metrics.snapshot h).Metrics.count)
                0 (Metrics.histogram_children f) ))
    (Metrics.metrics obs.Obs.metrics)

let test_batch_metrics_deterministic () =
  let pats = distinct_patterns () in
  let run domains =
    let obs = Obs.create () in
    let e = Engine.of_doc ~obs ~max_views:4 doc specs in
    let results = Engine.query_batch ~domains e pats in
    (metric_fingerprint obs, List.map Result.is_ok results)
  in
  let seq_metrics, seq_ok = run 1 in
  let par_metrics, par_ok = run 4 in
  Alcotest.(check (list bool)) "same outcomes" seq_ok par_ok;
  Alcotest.(check (list (pair string int)))
    "counters and histogram counts sum identically at 4 domains" seq_metrics
    par_metrics

let test_prometheus_after_chaos () =
  let obs = Obs.create ~tracing:true ~slow_threshold_ms:0.0 () in
  let fs =
    Faultstore.create ~seed:55 ~fail_rate:0.3 ~metrics:obs.Obs.metrics ()
  in
  let e = Engine.of_doc ~obs ~max_views:4 ~env_wrap:(Faultstore.wrap fs) doc specs in
  List.iter (fun p -> ignore (Engine.query_r e p)) (distinct_patterns ());
  let text = Export.prometheus obs.Obs.metrics in
  (match Export.validate_prometheus text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "exposition failed validation: %s" msg);
  let has_line prefix =
    List.exists
      (fun l -> String.length l >= String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "query histogram exported" true
    (has_line "engine_query_seconds_bucket");
  let h = Metrics.histogram obs.Obs.metrics "engine_query_seconds" in
  Alcotest.(check bool) "query histogram nonempty" true
    ((Metrics.snapshot h).Metrics.count > 0);
  Alcotest.(check bool) "every query left a trace" true
    (Slowlog.recorded obs.Obs.slowlog > 0);
  (* Every trace is over the 0 ms threshold: the slow list must have
     captured (up to its capacity bound) as many. *)
  Alcotest.(check bool) "slow list filled" true
    (List.length (Slowlog.slow obs.Obs.slowlog) > 0);
  (* The exported JSONL parses line by line. *)
  List.iter
    (fun line ->
      if line <> "" then
        match Json.of_string line with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "bad trace JSONL line: %s" e)
    (String.split_on_char '\n' (Export.slowlog_jsonl obs.Obs.slowlog))

let test_validator_rejects_garbage () =
  List.iter
    (fun (what, text) ->
      match Export.validate_prometheus text with
      | Ok () -> Alcotest.failf "validator accepted %s" what
      | Error _ -> ())
    [ ("a bare word", "justaword extra tokens here\n");
      ("a non-numeric value", "metric_a notanumber\n");
      ("a bad metric name", "9starts_with_digit 1\n");
      ( "non-cumulative buckets",
        "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
         h_sum 1\nh_count 5\n" );
      ( "+Inf disagreeing with count",
        "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n" );
      (* Malformed label sets: every one of these must be rejected. *)
      ("an unterminated label value", "m{a=\"x} 1\n");
      ("an unquoted label value", "m{a=x} 1\n");
      ("a label name starting with a digit", "m{9a=\"x\"} 1\n");
      ("a duplicate label name", "m{a=\"x\",a=\"y\"} 1\n");
      ("a trailing comma", "m{a=\"x\",} 1\n");
      ("a missing equals sign", "m{a\"x\"} 1\n");
      ("an illegal escape", "m{a=\"\\q\"} 1\n");
      ("a raw newline in a label value", "m{a=\"x\ny\"} 1\n");
      ("an unclosed label set", "m{a=\"x\" 1\n") ]

(* --- Labeled families --------------------------------------------------- *)

let test_family_basics () =
  let reg = Metrics.create () in
  let f =
    Metrics.counter_family reg ~help:"requests" "req_total"
      ~labels:[ "tenant"; "outcome" ]
  in
  Metrics.incr (Metrics.counter_in f [ "a"; "ok" ]);
  Metrics.incr (Metrics.counter_in f [ "a"; "ok" ]);
  Metrics.incr (Metrics.counter_in f [ "b"; "shed" ]);
  Alcotest.(check int) "same labels share the child" 2
    (Metrics.counter_value (Metrics.counter_in f [ "a"; "ok" ]));
  Alcotest.(check int) "two children" 2
    (List.length (Metrics.counter_children f));
  Alcotest.(check (list string)) "label names kept"
    [ "tenant"; "outcome" ]
    (Metrics.counter_family_labels f);
  (* Re-registration must agree on the label names. *)
  ignore (Metrics.counter_family reg "req_total" ~labels:[ "tenant"; "outcome" ]);
  Alcotest.check_raises "label mismatch rejected"
    (Invalid_argument
       "Metrics: req_total already registered with labels (tenant,outcome)")
    (fun () -> ignore (Metrics.counter_family reg "req_total" ~labels:[ "x" ]));
  Alcotest.check_raises "arity mismatch rejected"
    (Invalid_argument "Metrics: req_total expects 2 label value(s), got 1")
    (fun () -> ignore (Metrics.counter_in f [ "a" ]));
  let text = Export.prometheus reg in
  (match Export.validate_prometheus text with
  | Ok () -> ()
  | Error m -> Alcotest.failf "family exposition invalid: %s" m);
  Alcotest.(check bool) "labeled sample rendered" true
    (List.exists
       (fun l -> l = "req_total{tenant=\"a\",outcome=\"ok\"} 2")
       (String.split_on_char '\n' text))

let test_family_overflow () =
  let reg = Metrics.create () in
  let f =
    Metrics.counter_family reg ~max_children:3 "cap_total" ~labels:[ "t" ]
  in
  for i = 1 to 10 do
    Metrics.incr (Metrics.counter_in f [ Printf.sprintf "t%d" i ])
  done;
  let children = Metrics.counter_children f in
  Alcotest.(check int) "cap + overflow child" 4 (List.length children);
  Alcotest.(check bool) "overflow child exists" true
    (List.mem_assoc [ "other" ] children);
  Alcotest.(check int) "overflow absorbed the excess" 7
    (Metrics.counter_value (List.assoc [ "other" ] children));
  let total =
    List.fold_left (fun s (_, c) -> s + Metrics.counter_value c) 0 children
  in
  Alcotest.(check int) "no increment lost" 10 total;
  (* The all-"other" key is the overflow child, even addressed directly. *)
  Metrics.incr (Metrics.counter_in f [ "other" ]);
  Alcotest.(check int) "direct \"other\" hits the overflow child" 8
    (Metrics.counter_value (List.assoc [ "other" ] (Metrics.counter_children f)))

let test_hostile_label_values () =
  let reg = Metrics.create () in
  let f = Metrics.counter_family reg "hostile_total" ~labels:[ "tenant" ] in
  let h = Metrics.histogram_family reg "hostile_seconds" ~labels:[ "tenant" ] in
  let hostile =
    [ "back\\slash"; "quo\"te"; "new\nline"; "spa ce,comma"; "bra}ce{" ]
  in
  List.iter
    (fun t ->
      Metrics.incr (Metrics.counter_in f [ t ]);
      Metrics.observe (Metrics.histogram_in h [ t ]) 0.01)
    hostile;
  let text = Export.prometheus reg in
  match Export.validate_prometheus text with
  | Error m -> Alcotest.failf "hostile labels broke the exposition: %s" m
  | Ok () ->
      Alcotest.(check bool) "escaped newline rendered" true
        (List.exists
           (fun l -> l = "hostile_total{tenant=\"new\\nline\"} 1")
           (String.split_on_char '\n' text))

let labeled_merge_assoc_prop =
  QCheck2.Test.make ~name:"labeled merge is associative and exact" ~count:100
    QCheck2.Gen.(
      let samples = list_size (int_range 0 20) (float_range 1e-6 60.0) in
      let set = triple samples samples samples in
      triple set set set)
    (fun (a, b, c) ->
      let labeled (x, y, z) =
        [ ([ "t0" ], snapshot_of x);
          ([ "t1" ], snapshot_of y);
          ([ "t2" ], snapshot_of z) ]
      in
      let cat (x1, y1, z1) (x2, y2, z2) = (x1 @ x2, y1 @ y2, z1 @ z2) in
      let la = labeled a and lb = labeled b and lc = labeled c in
      let l = Metrics.merge_labeled (Metrics.merge_labeled la lb) lc in
      let r = Metrics.merge_labeled la (Metrics.merge_labeled lb lc) in
      l = r && l = labeled (cat (cat a b) c))

let test_family_cap_under_domains () =
  (* Four domains hammer one family with 32 distinct tenants against a
     cap of 8: the child set stays bounded and no observation is lost. *)
  let reg = Metrics.create () in
  let f =
    Metrics.histogram_family reg ~max_children:8 "conc_seconds"
      ~labels:[ "tenant" ]
  in
  let per_domain = 400 in
  let body d () =
    for i = 0 to per_domain - 1 do
      let tenant = Printf.sprintf "t%d" ((i + (d * 7)) mod 32) in
      Metrics.observe (Metrics.histogram_in f [ tenant ]) 0.001
    done
  in
  let ds = List.init 4 (fun d -> Domain.spawn (body d)) in
  List.iter Domain.join ds;
  let children = Metrics.histogram_children f in
  Alcotest.(check bool) "cardinality bounded by cap + overflow" true
    (List.length children <= 9);
  let total =
    List.fold_left
      (fun s (_, h) -> s + (Metrics.snapshot h).Metrics.count)
      0 children
  in
  Alcotest.(check int) "every observation accounted for" (4 * per_domain) total

let test_metrics_json_shape () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"a counter" "c_total" in
  Metrics.incr c;
  Metrics.set_gauge (Metrics.gauge reg "g") 2.0;
  Metrics.observe (Metrics.histogram reg "h_seconds") 0.01;
  let f = Metrics.counter_family reg "f_total" ~labels:[ "tenant" ] in
  Metrics.incr (Metrics.counter_in f [ "a" ]);
  let j = Export.metrics_json reg in
  (* The shape survives its own printer. *)
  (match Json.of_string (Json.to_string j) with
  | Error m -> Alcotest.failf "metrics_json does not round-trip: %s" m
  | Ok _ -> ());
  let member path =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  in
  Alcotest.(check (option int)) "counter value" (Some 1)
    (Option.bind (member [ "c_total"; "value" ]) Json.to_int);
  Alcotest.(check (option string)) "help kept" (Some "a counter")
    (Option.bind (member [ "c_total"; "help" ]) Json.to_str);
  Alcotest.(check (option int)) "histogram count" (Some 1)
    (Option.bind (member [ "h_seconds"; "count" ]) Json.to_int);
  Alcotest.(check bool) "family carries label_names" true
    (member [ "f_total"; "label_names" ] <> None);
  match Option.bind (member [ "f_total"; "children" ]) Json.to_list with
  | Some [ child ] ->
      Alcotest.(check (option string)) "child labels decoded" (Some "a")
        (Option.bind
           (Option.bind (Json.member "labels" child) (Json.member "tenant"))
           Json.to_str)
  | _ -> Alcotest.fail "expected one family child"

(* --- The offline analyzer (uload obs) ----------------------------------- *)

let access_line ~rid ~tenant ~outcome ~latency_ms ~queue_ms =
  Json.to_string
    (Json.Obj
       [ ("ts_s", Json.Num 1.0);
         ("request_id", Json.Str rid);
         ("tenant", Json.Str tenant);
         ( "status",
           Json.Num (match outcome with "ok" -> 200. | "shed" -> 429. | _ -> 500.)
         );
         ("outcome", Json.Str outcome);
         ("queue_ms", Json.Num queue_ms);
         ("latency_ms", Json.Num latency_ms);
         ("bytes", Json.Num 10.0) ])

let report_trace_line () =
  (* A server-shaped trace: queue_wait + dispatch + an execute wrapper
     with the engine's own execute span nested inside — the nested one
     must NOT be double-counted. *)
  let fc = Clock.fake ~now:0.0 () in
  let tr = Trace.start ~clock:(Clock.clock fc) ~id:1 "request" in
  let root = Trace.root tr in
  Trace.tag root "request_id" "req-1";
  Trace.tag root "tenant" "t1";
  ignore (Trace.add_child tr ~parent:root ~name:"queue_wait" ~t0:0.0 ~t1:0.004 ~tags:[]);
  ignore (Trace.add_child tr ~parent:root ~name:"dispatch" ~t0:0.004 ~t1:0.005 ~tags:[]);
  Clock.advance fc 0.005;
  Trace.span tr root "execute" (fun exec ->
      Clock.advance fc 0.001;
      Trace.span tr exec "execute" (fun _ -> Clock.advance fc 0.002);
      Clock.advance fc 0.001);
  Trace.finish tr;
  Export.trace_jsonl tr

let test_report_ingest () =
  let lines =
    [ access_line ~rid:"r1" ~tenant:"t1" ~outcome:"ok" ~latency_ms:10.0
        ~queue_ms:2.0;
      access_line ~rid:"r2" ~tenant:"t1" ~outcome:"ok" ~latency_ms:30.0
        ~queue_ms:4.0;
      access_line ~rid:"r3" ~tenant:"t1" ~outcome:"shed" ~latency_ms:0.0
        ~queue_ms:0.0;
      access_line ~rid:"r4" ~tenant:"t2" ~outcome:"expired" ~latency_ms:50.0
        ~queue_ms:50.0;
      "";
      report_trace_line () ]
  in
  match Xobs.Report.of_lines lines with
  | Error m -> Alcotest.failf "ingest failed: %s" m
  | Ok rep ->
      Alcotest.(check int) "lines seen" 5 (Xobs.Report.lines_seen rep);
      let j = Xobs.Report.to_json rep in
      let get path conv =
        Option.bind
          (List.fold_left
             (fun acc k -> Option.bind acc (Json.member k))
             (Some j) path)
          conv
      in
      Alcotest.(check (option int)) "total requests" (Some 4)
        (get [ "requests" ] Json.to_int);
      Alcotest.(check (option int)) "t1 ok" (Some 2)
        (get [ "tenants"; "t1"; "ok" ] Json.to_int);
      Alcotest.(check (option int)) "t1 shed" (Some 1)
        (get [ "tenants"; "t1"; "shed" ] Json.to_int);
      Alcotest.(check (option int)) "t2 expired" (Some 1)
        (get [ "tenants"; "t2"; "expired" ] Json.to_int);
      (* Exact percentiles over t1's latencies [10; 30]. *)
      Alcotest.(check (option (float 1e-9))) "t1 p50" (Some 10.0)
        (get [ "tenants"; "t1"; "p50_ms" ] Json.to_float);
      Alcotest.(check (option (float 1e-9))) "t1 p99" (Some 30.0)
        (get [ "tenants"; "t1"; "p99_ms" ] Json.to_float);
      (* The span breakdown counts the outer execute wrapper once. *)
      Alcotest.(check (option (float 1e-6))) "queue_wait total" (Some 4.0)
        (get [ "traces"; "queue_wait_ms_total" ] Json.to_float);
      Alcotest.(check (option (float 1e-6))) "dispatch total" (Some 1.0)
        (get [ "traces"; "dispatch_ms_total" ] Json.to_float);
      Alcotest.(check (option (float 1e-6))) "execute counted once" (Some 4.0)
        (get [ "traces"; "execute_ms_total" ] Json.to_float);
      (* The slowest list carries tenant + request id from root tags. *)
      match Json.member "slowest" j with
      | Some (Json.Arr (slow :: _)) ->
          Alcotest.(check (option string)) "slow trace attributed" (Some "t1")
            (Option.bind (Json.member "tenant" slow) Json.to_str);
          Alcotest.(check (option string)) "slow trace request id"
            (Some "req-1")
            (Option.bind (Json.member "request_id" slow) Json.to_str)
      | _ -> Alcotest.fail "expected a non-empty slowest list"

let test_report_strict () =
  (match Xobs.Report.of_lines [ "{\"request_id\":\"a\"}"; "not json" ] with
  | Ok _ -> Alcotest.fail "unparsable line accepted"
  | Error m ->
      Alcotest.(check bool) "error names the line" true
        (String.length m >= 7 && String.sub m 0 7 = "line 2:"));
  match Xobs.Report.of_lines [ "" ] with
  | Ok rep -> Alcotest.(check int) "blank lines skipped" 0 (Xobs.Report.lines_seen rep)
  | Error m -> Alcotest.failf "blank line rejected: %s" m

(* --- Fake clock drives the engine end to end --------------------------- *)

let test_fake_clock_engine () =
  (* With a never-advancing fake clock every measured duration is exactly
     zero — proof the engine reads time only through the injected clock. *)
  let fc = Clock.fake ~now:1000.0 () in
  let obs = Obs.create ~clock:(Clock.clock fc) ~tracing:true () in
  let e = Engine.of_doc ~obs ~max_views:4 doc specs in
  match Engine.query_r e book_title_query with
  | Error err -> Alcotest.failf "query failed: %s" (Xerror.to_string err)
  | Ok r ->
      Alcotest.(check (float 0.0)) "rewrite_ms" 0.0
        r.Engine.explain.Explain.rewrite_ms;
      Alcotest.(check (float 0.0)) "exec_ms" 0.0 r.Engine.explain.Explain.exec_ms;
      (match r.Engine.trace with
      | Some tr -> Alcotest.(check (float 0.0)) "trace" 0.0 (Trace.duration_ms tr)
      | None -> Alcotest.fail "no trace");
      let snap =
        Metrics.snapshot (Metrics.histogram obs.Obs.metrics "engine_query_seconds")
      in
      Alcotest.(check int) "observed once" 1 snap.Metrics.count

(* --- Operators are timed only under a trace ----------------------------- *)

(* A fake clock that counts its reads and moves 1 ms per read, so every
   measured span has a positive length. *)
let counting_clock () =
  let calls = ref 0 in
  (calls, fun () -> incr calls; float_of_int !calls *. 1e-3)

let nested_read =
  {|for $b in doc("bib")//book where $b/@year != 1999 return <b>{$b/title/text()}{for $a in $b/author return <a>{$a/text()}</a>}</b>|}

let bib_engine ~tracing books =
  let d = Xworkload.Gen_bib.generate_doc ~seed:4 ~books ~theses:(books / 4) () in
  let calls, clock = counting_clock () in
  let obs = Obs.create ~clock ~tracing () in
  (d, calls, Engine.of_doc ~obs d (Models.path_partitioned (Xsummary.Summary.of_doc d)))

let rec op_spans sp =
  let own = if String.starts_with ~prefix:"op:" (Trace.name sp) then [ sp ] else [] in
  own @ List.concat_map op_spans (Trace.children sp)

let test_untraced_reads_clock_bounded () =
  (* An untraced read reads the clock a fixed number of times, however
     many cursor steps its plans take: ten times the document, same
     count. *)
  let reads books =
    let d, calls, e = bib_engine ~tracing:false books in
    calls := 0;
    match Engine.query_string_r e nested_read with
    | Error err -> Alcotest.failf "read failed: %s" (Xerror.to_string err)
    | Ok r ->
        Alcotest.(check string)
          (Printf.sprintf "answer on %d books" books)
          (Xquery.Translate.eval_string d nested_read) r.Engine.output;
        Alcotest.(check bool) "tag plan untimed" false r.Engine.xquery_stats.Xalgebra.Physical.timed;
        Alcotest.(check bool) "tag plan counted" true (r.Engine.xquery_stats.Xalgebra.Physical.nexts > 0);
        !calls
  in
  let small = reads 20 and large = reads 200 in
  Alcotest.(check int) "clock reads on 20 vs 200 books" small large;
  (* Traced, the same read times its operators on the engine's clock. *)
  let _, calls, e = bib_engine ~tracing:true 200 in
  calls := 0;
  match Engine.query_string_r e nested_read with
  | Error err -> Alcotest.failf "traced read failed: %s" (Xerror.to_string err)
  | Ok r -> (
      Alcotest.(check bool) "traced read reads the clock per step" true (!calls > large);
      let st = r.Engine.xquery_stats in
      Alcotest.(check bool) "tag plan timed" true st.Xalgebra.Physical.timed;
      match r.Engine.xquery_trace with
      | None -> Alcotest.fail "tracing on but no trace"
      | Some tr ->
          let ops = op_spans (Trace.root tr) in
          Alcotest.(check bool) "op spans present" true (ops <> []);
          Alcotest.(check bool) "every op span has a clock-measured length" true
            (List.for_all (fun sp -> Trace.span_ms sp > 0.0) ops);
          Alcotest.(check bool) "the tag plan's root span is its measured time" true
            (List.exists
               (fun sp ->
                 Trace.name sp = "op:xml"
                 && Float.abs (Trace.span_ms sp -. (st.Xalgebra.Physical.elapsed *. 1000.0)) < 1e-6)
               ops))

let test_explain_timed_only_when_traced () =
  let explain ~tracing =
    let _, clock = counting_clock () in
    let obs = Obs.create ~clock ~tracing () in
    let e = Engine.of_doc ~obs ~max_views:4 doc specs in
    (Xerror.get_exn (Engine.query_r e book_title_query)).Engine.explain
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let traced = explain ~tracing:true and untraced = explain ~tracing:false in
  let rec all f (st : Xalgebra.Physical.op_stats) =
    f st && List.for_all (all f) st.Xalgebra.Physical.children
  in
  Alcotest.(check bool) "traced: every operator timed" true
    (all (fun st -> st.Xalgebra.Physical.timed) traced.Explain.stats);
  Alcotest.(check bool) "traced: the root's time is measured" true
    (traced.Explain.stats.Xalgebra.Physical.elapsed > 0.0);
  let ts = Explain.to_string traced in
  Alcotest.(check bool) "traced EXPLAIN prints operator times" true
    (contains ts " ms\n" && not (contains ts "untimed"));
  Alcotest.(check bool) "untraced: no operator timed" true
    (all (fun st -> not st.Xalgebra.Physical.timed) untraced.Explain.stats);
  let us = Explain.to_string untraced in
  Alcotest.(check bool) "untraced EXPLAIN says untimed" true (contains us "untimed");
  Alcotest.(check bool) "untraced EXPLAIN prints no measured zero" false
    (contains us "0.000 ms");
  (* An untimed operator's JSON time is null, not a NaN or a zero. *)
  List.iter
    (fun (what, ex, timed) ->
      let js = Explain.to_json_string ex in
      let root_elapsed =
        Option.bind (Result.to_option (Json.of_string js)) (fun j ->
            Option.bind (Json.member "stats" j) (Json.member "elapsed_s"))
      in
      Alcotest.(check bool) (what ^ ": root elapsed_s") true
        (match root_elapsed with
        | Some (Json.Num x) -> timed && Float.is_finite x
        | Some Json.Null -> not timed
        | _ -> false);
      match Explain.of_json_string js with
      | Error m -> Alcotest.failf "%s: JSON did not parse back: %s" what m
      | Ok s ->
          Alcotest.(check bool) (what ^ ": JSON round-trip is exact") true
            (s = Explain.summarize ex))
    [ ("traced", traced, true); ("untraced", untraced, false) ]

(* --- Apply and replay stages as spans ------------------------------------ *)

let apply_stages =
  [ "mutate"; "summary"; "materialize"; "partition"; "validate"; "splice"; "wal"; "install" ]

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The one trace in [obs]'s log is [root] with one leaf span per write
   stage, in order, laid out one after the other inside the root. *)
let check_stage_trace obs ~root ~tag =
  match Slowlog.recent obs.Obs.slowlog with
  | [ tr ] ->
      let r = Trace.root tr in
      Alcotest.(check string) "root" root (Trace.name r);
      Alcotest.(check (option string)) "root tag" (Some (snd tag))
        (List.assoc_opt (fst tag) (Trace.tags r));
      let kids = Trace.children r in
      Alcotest.(check (list string)) (root ^ " stages") apply_stages
        (List.map Trace.name kids);
      List.iter
        (fun sp ->
          Alcotest.(check int) (Trace.name sp ^ " is a leaf") 0
            (List.length (Trace.children sp));
          Alcotest.(check bool) (Trace.name sp ^ " inside the root") true
            (Trace.start_s sp >= Trace.start_s r && Trace.end_s sp <= Trace.end_s r))
        kids;
      ignore
        (List.fold_left
           (fun prev_end sp ->
             Alcotest.(check bool) (Trace.name sp ^ " after its predecessor") true
               (Trace.start_s sp >= prev_end);
             Trace.end_s sp)
           (Trace.start_s r) kids)
  | trs -> Alcotest.failf "expected one %s trace, got %d" root (List.length trs)

let test_apply_stage_spans () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "test_obs_stages_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let text = List.hd (Xdm.Doc.nodes_with_label doc "#text") in
  let ops v =
    [ Engine.Update_value { node = text; value = v ^ "1" };
      Engine.Update_value { node = text; value = v ^ "2" } ]
  in
  let obs = Obs.create () in
  let e = Engine.of_doc ~obs doc specs in
  ignore (Xerror.get_exn (Engine.attach_wal_r e dir));
  ignore (Xerror.get_exn (Engine.apply_batch_r e (ops "a")));
  Alcotest.(check int) "tracing off: no trace" 0 (Slowlog.recorded obs.Obs.slowlog);
  Obs.set_tracing obs true;
  ignore (Xerror.get_exn (Engine.apply_batch_r e (ops "b")));
  check_stage_trace obs ~root:"apply" ~tag:("ops", "2");
  Engine.detach_wal e;
  (* Recovery folds the four logged records into one write round. *)
  let robs = Obs.create ~tracing:true () in
  let r = Engine.of_doc ~obs:robs doc specs in
  Alcotest.(check int) "replayed" 4 (Xerror.get_exn (Engine.attach_wal_r r dir));
  Engine.detach_wal r;
  check_stage_trace robs ~root:"replay" ~tag:("records", "4")

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
          Alcotest.test_case "counters and gauges" `Quick test_counter_gauge;
          QCheck_alcotest.to_alcotest percentile_bounds_prop;
          QCheck_alcotest.to_alcotest merge_assoc_prop;
          QCheck_alcotest.to_alcotest bucket_of_prop;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_observe_allocates_nothing ] );
      ( "slowlog",
        [ Alcotest.test_case "ring eviction order" `Quick test_ring_eviction;
          Alcotest.test_case "slow threshold" `Quick test_slow_threshold ] );
      ( "traces",
        [ Alcotest.test_case "fake-clock span nesting" `Quick test_span_nesting ] );
      ( "engine",
        [ Alcotest.test_case "trace covers the pipeline" `Quick
            test_trace_covers_pipeline;
          Alcotest.test_case "cache-hit timings" `Quick test_cache_hit_timings;
          Alcotest.test_case "Explain JSON round-trip" `Quick
            test_explain_json_roundtrip;
          Alcotest.test_case "batch metrics deterministic at 4 domains" `Quick
            test_batch_metrics_deterministic;
          Alcotest.test_case "fake clock drives the engine" `Quick
            test_fake_clock_engine;
          Alcotest.test_case "untraced reads read the clock a bounded number of times"
            `Quick test_untraced_reads_clock_bounded;
          Alcotest.test_case "EXPLAIN times operators only when traced" `Quick
            test_explain_timed_only_when_traced;
          Alcotest.test_case "apply and replay stages as spans" `Quick
            test_apply_stage_spans ] );
      ( "export",
        [ Alcotest.test_case "prometheus after chaos" `Quick
            test_prometheus_after_chaos;
          Alcotest.test_case "validator rejects garbage" `Quick
            test_validator_rejects_garbage ] );
      ( "labeled",
        [ Alcotest.test_case "family basics" `Quick test_family_basics;
          Alcotest.test_case "cardinality cap overflow" `Quick
            test_family_overflow;
          Alcotest.test_case "hostile label values" `Quick
            test_hostile_label_values;
          QCheck_alcotest.to_alcotest labeled_merge_assoc_prop;
          Alcotest.test_case "cap holds under 4 domains" `Quick
            test_family_cap_under_domains;
          Alcotest.test_case "metrics_json shape" `Quick test_metrics_json_shape ] );
      ( "report",
        [ Alcotest.test_case "ingest and attribute" `Quick test_report_ingest;
          Alcotest.test_case "strict line errors" `Quick test_report_strict ] ) ]
