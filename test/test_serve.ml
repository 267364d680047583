(* The serving layer end to end, in process: a real server (acceptor,
   bounded admission queue, batching dispatcher) over a Unix socket in a
   temp dir, driven by real client connections. The concurrency cases —
   deadline propagation under a saturated dispatcher, backpressure
   shedding instead of unbounded queueing, tenant isolation of the
   quarantine machinery — use an env_wrap that sleeps on every storage
   lookup to make the dispatcher measurably slow without real load. *)

module Engine = Xengine.Engine
module S = Xsummary.Summary
module Store = Xstorage.Store
module Models = Xstorage.Models
module Faultstore = Xstorage.Faultstore
module Server = Xserve.Server
module Proto = Xserve.Proto
module Client = Xserve.Client
module Json = Xobs.Json

let doc = Xworkload.Gen_bib.generate_doc ~seed:51 ~books:40 ~theses:15 ()
let summary = S.of_doc doc
let specs = Models.path_partitioned summary
let catalog () = Store.catalog_of doc specs

(* Shapes the planner answers from views (through the storage lookup
   surface, where env_wrap and the faultstore bite) — a [//book]-rooted
   query would route to the base-document fallback and see neither. *)
let q_titles = {|for $t in doc("d")//title return <t>{$t/text()}</t>|}
let q_authors = {|for $a in doc("d")//author return <a>{$a/text()}</a>|}

let tmp_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xam_serve_%d_%d.sock" (Unix.getpid ()) !n)

(* A fresh server on its own socket; engines are injected directly so
   each test controls its tenants' construction. *)
let with_server ?(cfg = fun c -> c) ?obs engines f =
  let sock = tmp_sock () in
  let config = cfg (Server.default_config (Proto.Unix_sock sock)) in
  let srv = Server.create ?obs config [] in
  List.iter (fun (name, e) -> Server.add_engine srv name e) engines;
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () -> f srv (Server.bound_addr srv))

let with_client addr f =
  match Client.connect addr with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let query_ok c ~tenant q =
  match Client.query c ~tenant q with
  | Error m -> Alcotest.failf "transport: %s" m
  | Ok reply -> reply

(* A storage surface that sleeps on every module lookup: queries through
   it take a visible, roughly constant time, which is how the tests
   below saturate the dispatcher deterministically. *)
let slow_wrap delay env name =
  Thread.delay delay;
  env name

let local_output engine q =
  match Engine.query_string_r engine q with
  | Ok r -> r.Engine.output
  | Error e -> Alcotest.failf "local query failed: %s" (Xengine.Xerror.to_string e)

(* --- served answers = in-process answers, over one keep-alive conn -------- *)

let test_round_trip () =
  let engine = Engine.create ~doc (catalog ()) in
  with_server [ ("t", engine) ] @@ fun _srv addr ->
  with_client addr @@ fun c ->
  List.iter
    (fun q ->
      let reply = query_ok c ~tenant:"t" q in
      Alcotest.(check int) "status" 200 reply.Client.status;
      Alcotest.(check (option string))
        "served output = in-process output" (Some (local_output engine q))
        (Client.output reply))
    [ q_titles; q_authors; q_titles ]

(* --- error taxonomy over the wire ----------------------------------------- *)

let test_error_codes () =
  let engine = Engine.create ~doc (catalog ()) in
  with_server [ ("t", engine) ] @@ fun _srv addr ->
  with_client addr @@ fun c ->
  let r = query_ok c ~tenant:"t" "((( nonsense" in
  Alcotest.(check int) "malformed query is 400" 400 r.Client.status;
  Alcotest.(check (option string))
    "code" (Some "malformed_query") (Client.error_code r);
  let r = query_ok c ~tenant:"nobody" q_titles in
  Alcotest.(check int) "unknown tenant is 404" 404 r.Client.status;
  Alcotest.(check (option string))
    "code" (Some "unknown_tenant") (Client.error_code r);
  (* The connection survives error responses. *)
  let r = query_ok c ~tenant:"t" q_titles in
  Alcotest.(check int) "conn still usable" 200 r.Client.status

(* --- deadline propagation under a saturated dispatcher --------------------
   Three slow queries occupy the dispatcher (batch_max 1 serializes
   them); a request admitted behind them with a 40 ms deadline must come
   back 408 budget_exceeded — either expired in the queue before
   dispatch, or cut off by the remaining-deadline budget the dispatcher
   hands the engine. Both roads are the same contract: the deadline set
   at admission holds however late the request is served. *)

let test_deadline_under_saturation () =
  let slow = Engine.create ~doc ~env_wrap:(slow_wrap 0.08) (catalog ()) in
  with_server
    ~cfg:(fun c -> { c with Server.batch_max = 1; queue_depth = 32 })
    [ ("t", slow) ]
  @@ fun _srv addr ->
  let workers =
    List.init 3 (fun _ ->
        Thread.create
          (fun () -> with_client addr @@ fun c -> query_ok c ~tenant:"t" q_titles)
          ())
  in
  Thread.delay 0.02;
  (* admitted behind the slow ones *)
  let r =
    with_client addr @@ fun c ->
    match Client.query c ~tenant:"t" ~deadline_ms:40.0 q_titles with
    | Error m -> Alcotest.failf "transport: %s" m
    | Ok reply -> reply
  in
  List.iter Thread.join workers;
  Alcotest.(check int) "deadlined request is 408" 408 r.Client.status;
  Alcotest.(check (option string))
    "code" (Some "budget_exceeded") (Client.error_code r)

(* --- backpressure: bounded queue sheds, it does not queue ------------------ *)

let test_backpressure_sheds () =
  let slow = Engine.create ~doc ~env_wrap:(slow_wrap 0.1) (catalog ()) in
  with_server
    ~cfg:(fun c -> { c with Server.queue_depth = 2; batch_max = 1 })
    [ ("t", slow) ]
  @@ fun srv addr ->
  let statuses = Array.make 10 0 in
  let codes = Array.make 10 None in
  let workers =
    List.init 10 (fun i ->
        Thread.create
          (fun () ->
            with_client addr @@ fun c ->
            let r = query_ok c ~tenant:"t" q_titles in
            statuses.(i) <- r.Client.status;
            codes.(i) <- Client.error_code r)
          ())
  in
  Thread.delay 0.05;
  Alcotest.(check bool)
    "queue never exceeds its bound" true
    (Server.queue_depth srv <= 2);
  List.iter Thread.join workers;
  let ok = Array.fold_left (fun n s -> if s = 200 then n + 1 else n) 0 statuses in
  let shed =
    Array.fold_left (fun n s -> if s = 429 then n + 1 else n) 0 statuses
  in
  Alcotest.(check int) "every request got an answer" 10 (ok + shed);
  Alcotest.(check bool) "some requests completed" true (ok >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "most requests shed (ok %d, shed %d)" ok shed)
    true (shed >= 5);
  Array.iteri
    (fun i s ->
      if s = 429 then
        Alcotest.(check (option string))
          "shed code" (Some "overloaded") codes.(i))
    statuses

(* --- tenant isolation: one tenant's quarantine is invisible to the other -- *)

let test_tenant_quarantine_isolation () =
  let cat = catalog () in
  let broken = List.map (fun m -> m.Store.name) cat.Store.modules in
  let fs = Faultstore.create ~broken () in
  let faulty =
    Engine.create ~doc ~env_wrap:(Faultstore.wrap fs) (catalog ())
  in
  let clean = Engine.create ~doc (catalog ()) in
  with_server [ ("a", faulty); ("b", clean) ] @@ fun _srv addr ->
  with_client addr @@ fun c ->
  (* Drive tenant a into quarantine: every module faults on read. *)
  let ra = query_ok c ~tenant:"a" q_titles in
  let a_quarantined =
    match ra.Client.status with
    | 200 -> (
        (* doc fallback answered; the reply must still surface the
           quarantine set *)
        match Option.bind ra.Client.body (Json.member "quarantined") with
        | Some (Json.Arr (_ :: _)) -> true
        | _ -> false)
    | 503 -> Client.error_code ra = Some "quarantined"
    | _ -> false
  in
  Alcotest.(check bool) "tenant a sees its quarantine" true a_quarantined;
  Alcotest.(check bool)
    "engine a has quarantined modules" true
    (Engine.quarantined faulty <> []);
  (* Tenant b, same catalog shape, shares nothing with a. *)
  let rb = query_ok c ~tenant:"b" q_titles in
  Alcotest.(check int) "tenant b answers clean" 200 rb.Client.status;
  (match Option.bind rb.Client.body (Json.member "quarantined") with
  | Some (Json.Arr []) -> ()
  | other ->
      Alcotest.failf "tenant b reply leaks quarantine state: %s"
        (match other with Some j -> Json.to_string j | None -> "missing"));
  Alcotest.(check (list (pair string string)))
    "engine b untouched" [] (Engine.quarantined clean);
  Alcotest.(check (option string))
    "tenant b output is the clean answer" (Some (local_output clean q_titles))
    (Client.output rb)

(* --- hot swap: /admin/swap repoints a tenant without restarting ------------ *)

let test_hot_swap () =
  let snap_of tag d =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xam_serve_swap_%d_%s.snap" (Unix.getpid ()) tag)
    in
    let e = Engine.of_doc d (Models.path_partitioned (S.of_doc d)) in
    ignore (Xengine.Xerror.get_exn (Engine.save_snapshot_r e path));
    path
  in
  let doc2 = Xworkload.Gen_bib.generate_doc ~seed:52 ~books:7 ~theses:2 () in
  let snap1 = snap_of "one" doc and snap2 = snap_of "two" doc2 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ snap1; snap2 ])
    (fun () ->
      let sock = tmp_sock () in
      let srv =
        Server.create
          (Server.default_config (Proto.Unix_sock sock))
          [ ("t", snap1) ]
      in
      Server.start srv;
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          try Sys.remove sock with Sys_error _ -> ())
        (fun () ->
          with_client (Server.bound_addr srv) @@ fun c ->
          let before = query_ok c ~tenant:"t" q_titles in
          Alcotest.(check int) "pre-swap 200" 200 before.Client.status;
          (match Client.swap c ~tenant:"t" ~snapshot:snap2 with
          | Ok r -> Alcotest.(check int) "swap 200" 200 r.Client.status
          | Error m -> Alcotest.failf "swap transport: %s" m);
          let after = query_ok c ~tenant:"t" q_titles in
          Alcotest.(check int) "post-swap 200" 200 after.Client.status;
          let expect =
            local_output
              (Xengine.Xerror.get_exn (Engine.of_snapshot_r snap2))
              q_titles
          in
          Alcotest.(check (option string))
            "post-swap answers come from the new snapshot" (Some expect)
            (Client.output after);
          Alcotest.(check bool)
            "the catalog actually changed" true
            (Client.output before <> Client.output after)))

(* --- drain: stop() finishes admitted work, then refuses new ---------------- *)

let test_drain_completes_inflight () =
  let slow = Engine.create ~doc ~env_wrap:(slow_wrap 0.05) (catalog ()) in
  let sock = tmp_sock () in
  let srv =
    Server.create (Server.default_config (Proto.Unix_sock sock)) []
  in
  Server.add_engine srv "t" slow;
  Server.start srv;
  let addr = Server.bound_addr srv in
  let inflight = ref None in
  let worker =
    Thread.create
      (fun () ->
        with_client addr @@ fun c ->
        inflight := Some (query_ok c ~tenant:"t" q_titles))
      ()
  in
  Thread.delay 0.02;
  (* the request is admitted or executing *)
  Server.stop srv;
  Thread.join worker;
  (match !inflight with
  | Some r ->
      Alcotest.(check int) "in-flight request completed through drain" 200
        r.Client.status;
      Alcotest.(check (option string))
        "with the right answer" (Some (local_output slow q_titles))
        (Client.output r)
  | None -> Alcotest.fail "in-flight request lost");
  (match Client.connect addr with
  | Error _ -> ()
  | Ok c ->
      (* accept raced the shutdown: the reply, if any, must be a drain
         refusal, never a served answer *)
      (match Client.query c ~tenant:"t" q_titles with
      | Error _ -> ()
      | Ok r ->
          Alcotest.(check bool)
            "post-drain reply is a refusal" true
            (r.Client.status = 503));
      Client.close c);
  try Sys.remove sock with Sys_error _ -> ()

(* --- metrics: the exposition validates and carries the serve series -------- *)

let test_metrics_exposition () =
  let engine = Engine.create ~doc (catalog ()) in
  with_server [ ("t", engine) ] @@ fun _srv addr ->
  with_client addr @@ fun c ->
  ignore (query_ok c ~tenant:"t" q_titles);
  match Client.metrics c with
  | Error m -> Alcotest.failf "metrics: %s" m
  | Ok text ->
      (match Xobs.Export.validate_prometheus text with
      | Ok () -> ()
      | Error m -> Alcotest.failf "exposition invalid: %s" m);
      List.iter
        (fun series ->
          Alcotest.(check bool)
            (series ^ " present") true
            (let re = series in
             let found = ref false in
             String.split_on_char '\n' text
             |> List.iter (fun line ->
                    if
                      String.length line >= String.length re
                      && String.sub line 0 (String.length re) = re
                    then found := true);
             !found))
        [ "serve_requests_total"; "serve_queue_depth"; "serve_request_seconds" ]

(* --- request id: one join key across wire, traces and access log ---------- *)

let test_request_id_round_trip () =
  let alog = Filename.temp_file "xam_serve" ".access.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ alog; alog ^ ".1" ])
  @@ fun () ->
  let obs = Xobs.Obs.create ~tracing:true () in
  let engine = Engine.create ~obs ~doc (catalog ()) in
  with_server
    ~cfg:(fun c -> { c with Server.debug = true; access_log = Some alog })
    ~obs
    [ ("t", engine) ]
  @@ fun _srv addr ->
  with_client addr @@ fun c ->
  let rid = "cli-00042" in
  (match Client.query c ~tenant:"t" ~request_id:rid q_titles with
  | Error m -> Alcotest.failf "transport: %s" m
  | Ok reply ->
      Alcotest.(check int) "status" 200 reply.Client.status;
      Alcotest.(check (option string))
        "client id echoed in the response header" (Some rid)
        reply.Client.request_id;
      Alcotest.(check (option string))
        "client id echoed in the body" (Some rid)
        (Option.bind
           (Option.bind reply.Client.body (Json.member "request_id"))
           Json.to_str));
  (* A malformed id (space) is replaced by a server-assigned one. *)
  (match Client.query c ~tenant:"t" ~request_id:"not a valid id" q_titles with
  | Error m -> Alcotest.failf "transport: %s" m
  | Ok reply -> (
      match reply.Client.request_id with
      | Some id ->
          Alcotest.(check bool) "malformed id replaced" true
            (id <> "not a valid id" && Proto.valid_request_id id)
      | None -> Alcotest.fail "no request id assigned"));
  (* The trace export carries the id: /debug/traces is JSONL, every line
     parses, and one trace is tagged with the client's id. *)
  (match Client.get c "/debug/traces" with
  | Error m -> Alcotest.failf "debug/traces: %s" m
  | Ok (status, body) ->
      Alcotest.(check int) "debug/traces status" 200 status;
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
      in
      Alcotest.(check bool) "trace lines present" true (List.length lines >= 2);
      (match Xobs.Report.of_lines lines with
      | Error m -> Alcotest.failf "trace line does not parse: %s" m
      | Ok _ -> ());
      let tagged tr =
        match Option.bind (Json.member "root" tr) (Json.member "tags") with
        | Some tags -> (
            match Option.bind (Json.member "request_id" tags) Json.to_str with
            | Some id -> id = rid
            | None -> false)
        | None -> false
      in
      Alcotest.(check bool) "a trace is tagged with the client id" true
        (List.exists
           (fun l ->
             match Json.of_string l with Ok j -> tagged j | Error _ -> false)
           lines));
  (* /debug/metrics.json parses and carries the labeled family. *)
  (match Client.get c "/debug/metrics.json" with
  | Error m -> Alcotest.failf "debug/metrics.json: %s" m
  | Ok (status, body) -> (
      Alcotest.(check int) "debug/metrics.json status" 200 status;
      match Json.of_string body with
      | Error m -> Alcotest.failf "metrics.json does not parse: %s" m
      | Ok j ->
          Alcotest.(check bool) "labeled family exported" true
            (Json.member "serve_tenant_requests_total" j <> None)));
  (* /metrics with tenant labels still validates. *)
  (match Client.metrics c with
  | Error m -> Alcotest.failf "metrics: %s" m
  | Ok text -> (
      match Xobs.Export.validate_prometheus text with
      | Ok () -> ()
      | Error m -> Alcotest.failf "labeled exposition invalid: %s" m));
  (* And the access log has the same id on a flushed line. *)
  let log_lines =
    In_channel.with_open_bin alog In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  match Xobs.Report.of_lines log_lines with
  | Error m -> Alcotest.failf "access-log line does not parse: %s" m
  | Ok _ ->
      Alcotest.(check bool) "access log carries the client id" true
        (List.exists
           (fun l ->
             match Json.of_string l with
             | Ok j ->
                 Option.bind (Json.member "request_id" j) Json.to_str
                 = Some rid
                 && Option.bind (Json.member "tenant" j) Json.to_str
                    = Some "t"
             | Error _ -> false)
           log_lines)

(* --- /debug/* is opt-in ----------------------------------------------------- *)

let test_debug_gated () =
  let engine = Engine.create ~doc (catalog ()) in
  with_server [ ("t", engine) ] @@ fun _srv addr ->
  with_client addr @@ fun c ->
  List.iter
    (fun path ->
      match Client.get c path with
      | Error m -> Alcotest.failf "transport: %s" m
      | Ok (status, _) ->
          Alcotest.(check int) (path ^ " is 404 without --debug") 404 status)
    [ "/debug/traces"; "/debug/slowlog"; "/debug/metrics.json" ]

(* --- a queue-expired request still leaves a trace --------------------------
   Fake clock drives the server; a blocker occupies the batch_max=1
   dispatcher (real sleep in its storage), the victim sits in the queue
   while the fake clock jumps past its deadline. The 408 must land in
   the slowlog ring as a finished trace tagged with the victim's
   request id, outcome "expired", and a queue_wait span covering the
   (fake) time in queue. *)

let test_expired_request_traced () =
  let fc = Xobs.Clock.fake ~now:100.0 () in
  let obs = Xobs.Obs.create ~clock:(Xobs.Clock.clock fc) ~tracing:true () in
  let slow = Engine.create ~doc ~env_wrap:(slow_wrap 0.05) (catalog ()) in
  with_server
    ~cfg:(fun c -> { c with Server.batch_max = 1; queue_depth = 32 })
    ~obs
    [ ("t", slow) ]
  @@ fun srv addr ->
  let blocker =
    Thread.create
      (fun () -> with_client addr @@ fun c -> query_ok c ~tenant:"t" q_titles)
      ()
  in
  (* Wait (real time) until the blocker owns the dispatcher. *)
  let rec await_dispatch n =
    if Server.executing srv >= 1 then ()
    else if n = 0 then Alcotest.fail "blocker never dispatched"
    else (
      Thread.delay 0.005;
      await_dispatch (n - 1))
  in
  await_dispatch 400;
  let victim = ref None in
  let victim_thread =
    Thread.create
      (fun () ->
        with_client addr @@ fun c ->
        match
          Client.query c ~tenant:"t" ~deadline_ms:50.0 ~request_id:"victim-1"
            q_titles
        with
        | Ok reply -> victim := Some reply
        | Error m -> Alcotest.failf "victim transport: %s" m)
      ()
  in
  let rec await_queued n =
    if Server.queue_depth srv >= 1 then ()
    else if n = 0 then Alcotest.fail "victim never queued"
    else (
      Thread.delay 0.005;
      await_queued (n - 1))
  in
  await_queued 400;
  (* The fake clock jumps 1 s: the victim's 50 ms deadline is long gone
     by the time the dispatcher gets to it. *)
  Xobs.Clock.advance fc 1.0;
  Thread.join blocker;
  Thread.join victim_thread;
  (match !victim with
  | None -> Alcotest.fail "victim got no reply"
  | Some r ->
      Alcotest.(check int) "victim is 408" 408 r.Client.status;
      Alcotest.(check (option string))
        "code" (Some "budget_exceeded") (Client.error_code r);
      Alcotest.(check (option string))
        "victim keeps its request id" (Some "victim-1") r.Client.request_id);
  let module Trace = Xobs.Trace in
  let victim_trace =
    List.find_opt
      (fun tr -> List.assoc_opt "request_id" (Trace.tags (Trace.root tr))
                 = Some "victim-1")
      (Xobs.Slowlog.recent obs.Xobs.Obs.slowlog)
  in
  match victim_trace with
  | None -> Alcotest.fail "expired request left no trace in the slowlog"
  | Some tr ->
      let root = Trace.root tr in
      Alcotest.(check (option string))
        "outcome tagged" (Some "expired")
        (List.assoc_opt "outcome" (Trace.tags root));
      Alcotest.(check (option string))
        "status tagged" (Some "408")
        (List.assoc_opt "status" (Trace.tags root));
      (match
         List.find_opt
           (fun sp -> Trace.name sp = "queue_wait")
           (Trace.children root)
       with
      | None -> Alcotest.fail "408 trace has no queue_wait span"
      | Some qw ->
          Alcotest.(check bool)
            (Printf.sprintf "queue_wait covers the fake-clock jump (%.1f ms)"
               (Trace.span_ms qw))
            true
            (Trace.span_ms qw >= 1000.0));
      Alcotest.(check bool) "trace duration spans the queue wait" true
        (Trace.duration_ms tr >= 1000.0)

(* --- the write path: POST /apply, durability across restart ---------------- *)

(* A scratch directory per test: the snapshot plus its ".wal" sibling
   the server creates on the first write both land here. *)
let with_scratch f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xam_serve_apply_%d_%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff))
  in
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let apply_ok c ~tenant ops =
  match Client.apply c ~tenant ops with
  | Error m -> Alcotest.failf "apply transport: %s" m
  | Ok r ->
      if r.Client.status <> 200 then
        Alcotest.failf "apply answered %d: %s" r.Client.status r.Client.raw;
      r

let reply_num field (r : Client.reply) =
  Option.bind r.Client.body (fun j ->
      Option.bind (Json.member field j) Json.to_float)

let ins i =
  Engine.Insert_subtree
    { parent = Xdm.Doc.root doc;
      before = None;
      xml = Printf.sprintf "<book><title>applied %d</title></book>" i }

let test_apply_round_trip () =
  with_scratch @@ fun dir ->
  let snap = Filename.concat dir "t.snap" in
  let e0 = Engine.of_doc doc specs in
  ignore (Xengine.Xerror.get_exn (Engine.save_snapshot_r e0 snap));
  (* Three batches of four inserts, with background checkpointing
     kicking in at a replay debt of 5: writes keep landing while the
     snapshot is rewritten underneath. *)
  let sock = tmp_sock () in
  let cfg =
    { (Server.default_config (Proto.Unix_sock sock)) with
      Server.checkpoint_every = 5 }
  in
  let srv = Server.create cfg [ ("t", snap) ] in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () ->
      with_client (Server.bound_addr srv) @@ fun c ->
      List.iter
        (fun batch ->
          let ops = List.map ins batch in
          let r = apply_ok c ~tenant:"t" ops in
          Alcotest.(check (option (float 0.0)))
            "the reply's lsn is the batch's final record"
            (Some (float_of_int (List.hd (List.rev batch))))
            (reply_num "lsn" r);
          Alcotest.(check (option (float 0.0)))
            "applied counts the whole batch"
            (Some (float_of_int (List.length batch)))
            (reply_num "applied" r))
        [ [ 1; 2; 3; 4 ]; [ 5; 6; 7; 8 ]; [ 9; 10; 11; 12 ] ];
      (* An invalid op rejects its whole batch with state unchanged. *)
      (match Client.apply c ~tenant:"t" [ ins 13; Engine.Delete_subtree { node = 9_999_999 } ] with
      | Error m -> Alcotest.failf "apply transport: %s" m
      | Ok r ->
          Alcotest.(check int) "invalid op in a batch answers 400" 400
            r.Client.status);
      let r = apply_ok c ~tenant:"t" [ ins 13 ] in
      Alcotest.(check (option (float 0.0)))
        "the failed batch consumed no LSNs" (Some 13.0) (reply_num "lsn" r);
      (* Served answers now reflect every applied write. *)
      let expect =
        let e = Engine.of_doc doc specs in
        List.iter
          (fun i -> ignore (Xengine.Xerror.get_exn (Engine.apply_r e (ins i))))
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13 ];
        local_output e q_titles
      in
      let reply = query_ok c ~tenant:"t" q_titles in
      Alcotest.(check (option string))
        "served answers include the applied writes" (Some expect)
        (Client.output reply);
      (* Durability: a fresh server over the same snapshot path recovers
         every acknowledged write (checkpoint + WAL replay). *)
      Server.stop srv;
      let sock2 = tmp_sock () in
      let srv2 =
        Server.create
          (Server.default_config (Proto.Unix_sock sock2))
          [ ("t", snap) ]
      in
      Server.start srv2;
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv2;
          try Sys.remove sock2 with Sys_error _ -> ())
        (fun () ->
          with_client (Server.bound_addr srv2) @@ fun c2 ->
          let reply = query_ok c2 ~tenant:"t" q_titles in
          Alcotest.(check (option string))
            "restart recovers every acknowledged write" (Some expect)
            (Client.output reply)))

(* Under the default config a snapshot-backed tenant checkpoints on its
   own once its replay debt reaches the default threshold, so its WAL
   tail, and with it recovery time, stays bounded. *)
let test_default_checkpointing () =
  with_scratch @@ fun dir ->
  let snap = Filename.concat dir "t.snap" in
  ignore (Xengine.Xerror.get_exn (Engine.save_snapshot_r (Engine.of_doc doc specs) snap));
  let sock = tmp_sock () in
  let cfg = Server.default_config (Proto.Unix_sock sock) in
  let k = cfg.Server.checkpoint_every in
  Alcotest.(check bool) "checkpointing is on by default" true (k > 0);
  let srv = Server.create cfg [ ("t", snap) ] in
  let checkpoints () =
    Xobs.Metrics.counter_value
      (Xobs.Metrics.counter (Server.obs srv).Xobs.Obs.metrics "serve_checkpoints_total")
  in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () ->
      with_client (Server.bound_addr srv) @@ fun c ->
      ignore (apply_ok c ~tenant:"t" (List.init (k - 1) (fun i -> ins (i + 1))));
      Alcotest.(check int) "no checkpoint below the threshold" 0 (checkpoints ());
      ignore (apply_ok c ~tenant:"t" [ ins k ]);
      (* [stop] joins the in-flight background checkpoint. *)
      Server.stop srv;
      Alcotest.(check int) "one checkpoint at the threshold" 1 (checkpoints ());
      match Xpersist.Snapshot.read snap with
      | Error m -> Alcotest.failf "snapshot after checkpoint: %s" m
      | Ok img ->
          Alcotest.(check int) "the snapshot covers the whole tail" k
            img.Xpersist.Snapshot.lsn)

(* --- accesslog rotation failure is loud, survivable and self-healing ------- *)

let test_accesslog_rotation_failure () =
  with_scratch @@ fun dir ->
  let path = Filename.concat dir "access.jsonl" in
  (* An unrenameable predecessor: rename(file -> existing directory)
     fails, which is exactly the condition the old code swallowed. *)
  Unix.mkdir (path ^ ".1") 0o755;
  let al = Xserve.Accesslog.open_ ~max_bytes:4096 path in
  let line i =
    Xserve.Accesslog.entry ~ts_s:(float_of_int i) ~request_id:"r" ~tenant:"t"
      ~status:200 ~outcome:"ok" ~queue_ms:0.0 ~latency_ms:1.0 ~bytes:100 ()
  in
  for i = 1 to 100 do
    Xserve.Accesslog.write al (line i)
  done;
  Alcotest.(check bool) "rotation failures were counted" true
    (Xserve.Accesslog.rotate_failures al > 0);
  Alcotest.(check bool) "the log kept writing in place" true
    ((Unix.stat path).Unix.st_size > 4096);
  (* Clear the obstruction: the very next over-size write rotates. *)
  Unix.rmdir (path ^ ".1");
  let before = Xserve.Accesslog.rotate_failures al in
  for i = 101 to 140 do
    Xserve.Accesslog.write al (line i)
  done;
  Xserve.Accesslog.close al;
  Alcotest.(check int) "no new failures once the obstruction cleared" before
    (Xserve.Accesslog.rotate_failures al);
  Alcotest.(check bool) "rotation resumed: the predecessor is a file" true
    (Sys.file_exists (path ^ ".1") && not (Sys.is_directory (path ^ ".1")))

(* --- a crashing connection thread is counted, logged and contained --------- *)

let test_conn_crash_loud () =
  let engine = Engine.create ~doc (catalog ()) in
  with_server [ ("t", engine) ] @@ fun srv addr ->
  Server.inject_request_fault srv (fun req ->
      if req.Proto.path = "/boom" then failwith "injected fault");
  (* The faulted request crashes its connection thread: no response,
     the connection just dies. *)
  (with_client addr @@ fun c ->
   match Client.get c "/boom" with
   | Error _ -> ()
   | Ok (status, _) ->
       Alcotest.failf "crashed connection still answered %d" status);
  (* The server survives: new connections work, and the crash shows up
     in serve_thread_crashes_total instead of vanishing. *)
  with_client addr @@ fun c ->
  let h = query_ok c ~tenant:"t" q_titles in
  Alcotest.(check int) "server still answers after the crash" 200
    h.Client.status;
  match Client.metrics c with
  | Error m -> Alcotest.failf "metrics: %s" m
  | Ok text ->
      let crashed =
        String.split_on_char '\n' text
        |> List.exists (fun l -> l = "serve_thread_crashes_total 1")
      in
      Alcotest.(check bool) "the crash is counted" true crashed

let () =
  Alcotest.run "serve"
    [ ( "serve",
        [ Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "error codes" `Quick test_error_codes;
          Alcotest.test_case "deadline under saturation" `Quick
            test_deadline_under_saturation;
          Alcotest.test_case "backpressure sheds" `Quick test_backpressure_sheds;
          Alcotest.test_case "tenant quarantine isolation" `Quick
            test_tenant_quarantine_isolation;
          Alcotest.test_case "hot swap" `Quick test_hot_swap;
          Alcotest.test_case "drain completes in-flight" `Quick
            test_drain_completes_inflight;
          Alcotest.test_case "metrics exposition" `Quick test_metrics_exposition
        ] );
      ( "write-path",
        [ Alcotest.test_case "apply round trip" `Quick test_apply_round_trip;
          Alcotest.test_case "default config checkpoints" `Quick
            test_default_checkpointing;
          Alcotest.test_case "accesslog rotation failure" `Quick
            test_accesslog_rotation_failure;
          Alcotest.test_case "connection crash is loud" `Quick
            test_conn_crash_loud ] );
      ( "observability",
        [ Alcotest.test_case "request id round trip" `Quick
            test_request_id_round_trip;
          Alcotest.test_case "debug endpoints gated" `Quick test_debug_gated;
          Alcotest.test_case "expired request traced" `Quick
            test_expired_request_traced ] ) ]
