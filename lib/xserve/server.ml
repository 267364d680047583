(* The multi-tenant query server: connection threads feeding a bounded
   admission queue, one dispatcher batching through
   Engine.query_string_batch, per-tenant engines opened lazily from
   snapshots. See the interface for the request flow and drain
   semantics. *)

module Engine = Xengine.Engine
module Obs = Xobs.Obs
module Metrics = Xobs.Metrics
module Json = Xobs.Json
module Trace = Xobs.Trace
module Slowlog = Xobs.Slowlog
module Export = Xobs.Export

type config = {
  listen : Proto.addr;
  queue_depth : int;
  domains : int;
  batch_max : int;
  default_budget : Engine.budget;
  max_conns : int;
  debug : bool;
  access_log : string option;
  checkpoint_every : int;
      (* background-checkpoint a tenant once its replay debt (lsn -
         snapshot_lsn) reaches this many records; 0 disables *)
}

let default_config listen =
  { listen;
    queue_depth = 64;
    domains = 1;
    batch_max = 16;
    default_budget = Engine.unlimited;
    max_conns = 256;
    debug = false;
    access_log = None;
    checkpoint_every = 1000 }

(* One response slot a connection thread blocks on while the dispatcher
   works. *)
type mailbox = {
  m_lock : Mutex.t;
  m_cond : Condition.t;
  mutable m_resp : Proto.response option;
}

let mailbox () =
  { m_lock = Mutex.create (); m_cond = Condition.create (); m_resp = None }

let deliver mb resp =
  Mutex.lock mb.m_lock;
  mb.m_resp <- Some resp;
  Condition.signal mb.m_cond;
  Mutex.unlock mb.m_lock

let await mb =
  Mutex.lock mb.m_lock;
  while mb.m_resp = None do
    Condition.wait mb.m_cond mb.m_lock
  done;
  let r = Option.get mb.m_resp in
  Mutex.unlock mb.m_lock;
  r

type tenant = {
  tn_name : string;
  mutable tn_path : string option;  (* snapshot path, opened on first use *)
  tn_lock : Mutex.t;
  mutable tn_engine : Engine.t option;
  mutable tn_checkpointing : bool;
      (* a background checkpoint is in flight (dispatcher claims, the
         checkpoint thread clears) — at most one per tenant *)
  mutable tn_ckpt : Thread.t option;  (* last checkpoint thread, for join *)
}

(* What an admitted request asks for: a read (batched through
   query_string_batch) or a write (one apply_batch_r per job — ops from
   different clients are never merged, so one client's invalid op cannot
   fail another's). *)
type work = Query of string | Apply of Engine.mutation list

type job = {
  j_tenant : tenant;
  j_engine : Engine.t;
  j_work : work;
  j_budget : Engine.budget;  (* non-deadline dimensions, resolved *)
  j_deadline_abs : float option;  (* server clock, absolute *)
  j_enqueued : float;
  j_mail : mailbox;
  j_id : string;  (* request id: the join key across trace/log/response *)
  j_trace : Trace.t option;  (* root "request" trace when tracing is on *)
  mutable j_dequeued : float;  (* stamped by the dispatcher; = j_enqueued until *)
}

type state = Created | Running | Draining | Stopped

type t = {
  cfg : config;
  obs : Obs.t;
  tenants : (string, tenant) Hashtbl.t;
  tenants_lock : Mutex.t;
  (* Admission queue + lifecycle, all under [lock]. *)
  lock : Mutex.t;
  work : Condition.t;  (* dispatcher wakes *)
  idle : Condition.t;  (* stop waits for quiescence *)
  q : job Queue.t;
  mutable qdepth : int;
  mutable executing : int;  (* jobs dequeued, response not yet delivered *)
  mutable busy_conns : int;  (* conns between request parse and response write *)
  mutable st : state;
  mutable listen_fd : Unix.file_descr option;
  mutable bound : Proto.addr option;
  mutable acceptor : Thread.t option;
  mutable dispatcher : Thread.t option;
  conns : (int, Unix.file_descr) Hashtbl.t;  (* live conns, keyed by fd int *)
  conns_lock : Mutex.t;
  conns_gone : Condition.t;
  clock : Xobs.Clock.t;
  alog : Accesslog.t option;
  req_ids : int Atomic.t;  (* server-assigned request-id counter *)
  mutable req_fault : (Proto.request -> unit) option;
      (* test seam: runs in the connection thread on every parsed
         request, outside the handler's try — lets tests crash the
         thread deterministically *)
  (* metrics *)
  m_requests : Metrics.counter;
  m_applies : Metrics.counter;
  m_checkpoints : Metrics.counter;
  m_thread_crashes : Metrics.counter;
  m_shed : Metrics.counter;
  m_expired : Metrics.counter;
  m_errors : Metrics.counter;
  m_batches : Metrics.counter;
  g_queue : Metrics.gauge;
  g_conns : Metrics.gauge;
  h_latency : Metrics.histogram;
  (* labeled per-tenant families (bounded cardinality, "other" overflow) *)
  f_requests : Metrics.counter_family;
  f_latency : Metrics.histogram_family;
}

let create ?obs cfg tenants =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let reg = obs.Obs.metrics in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, path) ->
      Hashtbl.replace tbl name
        { tn_name = name;
          tn_path = Some path;
          tn_lock = Mutex.create ();
          tn_engine = None;
          tn_checkpointing = false;
          tn_ckpt = None })
    tenants;
  { cfg = { cfg with queue_depth = max 1 cfg.queue_depth;
            batch_max = max 1 cfg.batch_max };
    obs;
    tenants = tbl;
    tenants_lock = Mutex.create ();
    lock = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    q = Queue.create ();
    qdepth = 0;
    executing = 0;
    busy_conns = 0;
    st = Created;
    listen_fd = None;
    bound = None;
    acceptor = None;
    dispatcher = None;
    conns = Hashtbl.create 32;
    conns_lock = Mutex.create ();
    conns_gone = Condition.create ();
    clock = obs.Obs.clock;
    alog = Option.map (fun p -> Accesslog.open_ ~metrics:reg p) cfg.access_log;
    req_ids = Atomic.make 1;
    req_fault = None;
    m_requests =
      Metrics.counter reg ~help:"Query requests received" "serve_requests_total";
    m_applies =
      Metrics.counter reg ~help:"Apply (write) requests received"
        "serve_applies_total";
    m_checkpoints =
      Metrics.counter reg ~help:"Background checkpoints completed"
        "serve_checkpoints_total";
    m_thread_crashes =
      Metrics.counter reg
        ~help:"Server threads that died on an uncaught exception"
        "serve_thread_crashes_total";
    m_shed =
      Metrics.counter reg ~help:"Requests shed at admission (429)"
        "serve_shed_total";
    m_expired =
      Metrics.counter reg
        ~help:"Admitted requests whose deadline passed before dispatch"
        "serve_expired_total";
    m_errors =
      Metrics.counter reg ~help:"Query requests answered with an error"
        "serve_errors_total";
    m_batches =
      Metrics.counter reg ~help:"Dispatch batches executed" "serve_batches_total";
    g_queue =
      Metrics.gauge reg ~help:"Admission queue depth" "serve_queue_depth";
    g_conns =
      Metrics.gauge reg ~help:"Open client connections" "serve_connections";
    h_latency =
      Metrics.histogram reg ~help:"Admission-to-response latency"
        "serve_request_seconds";
    f_requests =
      Metrics.counter_family reg
        ~help:"Query requests by tenant and outcome (ok/shed/expired/error)"
        "serve_tenant_requests_total" ~labels:[ "tenant"; "outcome" ];
    f_latency =
      Metrics.histogram_family reg
        ~help:"Admission-to-response latency by tenant"
        "serve_tenant_request_seconds" ~labels:[ "tenant" ] }

let obs t = t.obs
let draining t = Mutex.lock t.lock; let d = t.st <> Running in Mutex.unlock t.lock; d
let queue_depth t = Mutex.lock t.lock; let n = t.qdepth in Mutex.unlock t.lock; n
let executing t = Mutex.lock t.lock; let n = t.executing in Mutex.unlock t.lock; n

let add_engine t name engine =
  Mutex.lock t.tenants_lock;
  Hashtbl.replace t.tenants name
    { tn_name = name;
      tn_path = None;
      tn_lock = Mutex.create ();
      tn_engine = Some engine;
      tn_checkpointing = false;
      tn_ckpt = None };
  Mutex.unlock t.tenants_lock

let inject_request_fault t f = t.req_fault <- Some f

(* --- Tenant resolution ----------------------------------------------------- *)

let find_tenant t name =
  Mutex.lock t.tenants_lock;
  let tn = Hashtbl.find_opt t.tenants name in
  Mutex.unlock t.tenants_lock;
  tn

(* Open the tenant's engine on first use. The per-tenant lock makes
   concurrent first requests open the snapshot once. *)
let tenant_engine t tn =
  Mutex.lock tn.tn_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock tn.tn_lock) @@ fun () ->
  match tn.tn_engine with
  | Some e -> Ok e
  | None -> (
      match tn.tn_path with
      | None ->
          Error
            (Proto.error_response ~status:500 ~code:"tenant_unavailable"
               ~stage:"serve"
               (Printf.sprintf "tenant %s has no snapshot path" tn.tn_name))
      | Some path -> (
          match Engine.of_snapshot_r ~obs:t.obs path with
          | Ok e -> (
              (* Recover the tenant's WAL before serving: writes
                 acknowledged by a previous run must be visible. A WAL
                 that fails to recover fails the tenant open — serving
                 the stale snapshot would silently drop them. *)
              let wdir = path ^ ".wal" in
              if Sys.file_exists wdir then
                match Engine.attach_wal_r e wdir with
                | Ok _replayed ->
                    tn.tn_engine <- Some e;
                    Ok e
                | Error x -> Error (Proto.of_xerror ~quarantined:[] x)
              else begin
                tn.tn_engine <- Some e;
                Ok e
              end)
          | Error x -> Error (Proto.of_xerror ~quarantined:[] x)))

(* --- Observability finalization --------------------------------------------- *)

(* Every answered request, admitted or refused, funnels through one of
   the finalize points below: outcome classification, labeled per-tenant
   counters, the root trace's close + slowlog record, and the access-log
   line all happen in exactly one place per path. *)

let outcome_of_status = function
  | 200 -> "ok"
  | 429 -> "shed"
  | 408 -> "expired"
  | _ -> "error"

(* The wire error code, for the access log ("overloaded", "draining",
   "budget_exceeded", ...). Only error bodies carry one. *)
let code_of_body body =
  match Json.of_string body with
  | Error _ -> None
  | Ok j ->
      Option.bind (Json.member "error" j) (fun e ->
          Option.bind (Json.member "code" e) Json.to_str)

let log_access t ~rid ~tenant ?quarantined ~queue_ms ~latency_ms
    ?deadline_remaining_ms (resp : Proto.response) =
  match t.alog with
  | None -> ()
  | Some al ->
      let code =
        if resp.Proto.status = 200 then None else code_of_body resp.Proto.body
      in
      Accesslog.write al
        (Accesslog.entry ~ts_s:(t.clock ()) ~request_id:rid ~tenant
           ~status:resp.Proto.status
           ~outcome:(outcome_of_status resp.Proto.status) ?code ?quarantined
           ~queue_ms ~latency_ms ?deadline_remaining_ms
           ~bytes:(String.length resp.Proto.body) ())

(* A refusal produced before (or at) admission: no queue time, no trace.
   [tenant] is "-" when the request never resolved to one. *)
let refuse t ~rid ~tenant (resp : Proto.response) =
  if tenant <> "-" then
    Metrics.incr
      (Metrics.counter_in t.f_requests
         [ tenant; outcome_of_status resp.Proto.status ]);
  log_access t ~rid ~tenant ~queue_ms:0.0 ~latency_ms:0.0 resp;
  resp

(* --- Admission ------------------------------------------------------------- *)

(* Admit a job (read or write) or answer immediately: 503 when draining,
   429 when the bounded queue is full. Returns the mailbox to wait on. *)
let admit t ~rid tn engine ~work ~(budget : Engine.budget) =
  let now = t.clock () in
  let deadline_abs =
    Option.map (fun ms -> now +. (ms /. 1000.)) budget.Engine.deadline_ms
  in
  let trace =
    if t.obs.Obs.tracing then begin
      let tr =
        Trace.start ~clock:t.clock ~id:(Obs.next_trace_id t.obs) "request"
      in
      Trace.tag (Trace.root tr) "request_id" rid;
      Trace.tag (Trace.root tr) "tenant" tn.tn_name;
      Some tr
    end
    else None
  in
  let job =
    { j_tenant = tn;
      j_engine = engine;
      j_work = work;
      j_budget = budget;
      j_deadline_abs = deadline_abs;
      j_enqueued = now;
      j_mail = mailbox ();
      j_id = rid;
      j_trace = trace;
      j_dequeued = now }
  in
  Mutex.lock t.lock;
  if t.st <> Running then begin
    Mutex.unlock t.lock;
    Error
      (Proto.error_response ~close:true ~status:503 ~code:"draining"
         ~stage:"serve" "server is draining")
  end
  else if t.qdepth >= t.cfg.queue_depth then begin
    Mutex.unlock t.lock;
    Metrics.incr t.m_shed;
    Error
      (Proto.error_response ~status:429 ~code:"overloaded" ~stage:"serve"
         ~extra:
           [ ("queue_depth", Json.Num (float_of_int t.cfg.queue_depth)) ]
         "admission queue is full")
  end
  else begin
    Queue.add job t.q;
    t.qdepth <- t.qdepth + 1;
    Metrics.set_gauge t.g_queue (float_of_int t.qdepth);
    Condition.signal t.work;
    Mutex.unlock t.lock;
    Ok job.j_mail
  end

(* --- Dispatch -------------------------------------------------------------- *)

let response_of_result t job = function
  | Error e ->
      Metrics.incr t.m_errors;
      Proto.of_xerror ~quarantined:(Engine.quarantined job.j_engine) e
  | Ok (r : Engine.xquery_result) ->
      let degraded =
        List.exists
          (function
            | Some ex -> ex.Xengine.Explain.degraded
            | None -> false)
          r.Engine.pattern_explains
      in
      let quarantined = Engine.quarantined job.j_engine in
      Proto.response 200
        (Json.to_string
           (Json.Obj
              [ ("tenant", Json.Str job.j_tenant.tn_name);
                ("output", Json.Str r.Engine.output);
                ("degraded", Json.Bool degraded);
                ( "quarantined",
                  Json.Arr (List.map (fun (n, _) -> Json.Str n) quarantined) );
                ( "patterns",
                  Json.Num (float_of_int (List.length r.Engine.pattern_explains))
                );
                ( "queue_ms",
                  Json.Num ((job.j_dequeued -. job.j_enqueued) *. 1000.) ) ]))

(* The single finalize point for every admitted job: unlabeled + labeled
   metrics, the trace close + slowlog record, the access-log line, then
   the mailbox delivery that unblocks the connection thread. *)
let finish t job resp =
  let now = t.clock () in
  let latency = now -. job.j_enqueued in
  let tenant = job.j_tenant.tn_name in
  let outcome = outcome_of_status resp.Proto.status in
  Metrics.observe t.h_latency latency;
  Metrics.incr (Metrics.counter_in t.f_requests [ tenant; outcome ]);
  Metrics.observe (Metrics.histogram_in t.f_latency [ tenant ]) latency;
  (match job.j_trace with
  | None -> ()
  | Some tr ->
      let root = Trace.root tr in
      Trace.tag root "outcome" outcome;
      Trace.tag root "status" (string_of_int resp.Proto.status);
      Trace.finish tr;
      Slowlog.record t.obs.Obs.slowlog tr);
  log_access t ~rid:job.j_id ~tenant
    ~quarantined:(Engine.quarantined job.j_engine <> [])
    ~queue_ms:((job.j_dequeued -. job.j_enqueued) *. 1000.)
    ~latency_ms:(latency *. 1000.)
    ?deadline_remaining_ms:
      (Option.map (fun d -> (d -. now) *. 1000.) job.j_deadline_abs)
    resp;
  deliver job.j_mail resp

(* Execute one write job. The WAL is attached lazily on the first write
   (tenants opened from a snapshot with an existing WAL directory attach
   at open; injected engines without a snapshot path stay unlogged).
   Only the dispatcher runs applies, so the attach cannot race. *)
let run_apply t j ops =
  let tn = j.j_tenant in
  let engine = j.j_engine in
  let attached =
    if Engine.wal_dir engine <> None then Ok ()
    else begin
      Mutex.lock tn.tn_lock;
      let path = tn.tn_path in
      Mutex.unlock tn.tn_lock;
      match path with
      | None -> Ok ()
      | Some p -> (
          match Engine.attach_wal_r engine (p ^ ".wal") with
          | Ok _ -> Ok ()
          | Error e -> Error e)
    end
  in
  let result =
    match attached with
    | Error e -> Error e
    | Ok () -> Engine.apply_batch_r engine ops
  in
  let resp =
    match result with
    | Error e ->
        Metrics.incr t.m_errors;
        Proto.of_xerror ~quarantined:(Engine.quarantined engine) e
    | Ok (r : Engine.apply_report) ->
        Proto.response 200
          (Json.to_string
             (Json.Obj
                [ ("tenant", Json.Str tn.tn_name);
                  ("lsn", Json.Num (float_of_int r.Engine.ap_lsn));
                  ("applied", Json.Num (float_of_int (List.length ops)));
                  ( "parts_kept",
                    Json.Num (float_of_int r.Engine.ap_parts_kept) );
                  ( "parts_rebuilt",
                    Json.Num (float_of_int r.Engine.ap_parts_rebuilt) );
                  ( "quarantined",
                    Json.Arr
                      (List.map
                         (fun (n, _) -> Json.Str n)
                         (Engine.quarantined engine)) );
                  ( "queue_ms",
                    Json.Num ((j.j_dequeued -. j.j_enqueued) *. 1000.) ) ]))
  in
  finish t j resp

(* Dispatcher-only: claim and spawn at most one background checkpoint
   per tenant once its replay debt crosses the threshold. The checkpoint
   thread clears [tn_checkpointing] last (a benign single-word write,
   taken without [tn_lock] — taking it there could deadlock against a
   dispatcher holding the lock while joining); the dispatcher only
   joins [tn_ckpt] once the flag is already clear, so the join never
   waits on a live checkpoint. *)
let maybe_checkpoint t tn engine =
  if
    t.cfg.checkpoint_every > 0
    && (not tn.tn_checkpointing)
    && Engine.lsn engine - Engine.snapshot_lsn engine >= t.cfg.checkpoint_every
  then begin
    Mutex.lock tn.tn_lock;
    let path = tn.tn_path in
    Mutex.unlock tn.tn_lock;
    match path with
    | None -> ()  (* injected engine: nowhere to checkpoint to *)
    | Some path ->
        (match tn.tn_ckpt with Some th -> Thread.join th | None -> ());
        tn.tn_checkpointing <- true;
        let th =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () -> tn.tn_checkpointing <- false)
                (fun () ->
                  match Engine.checkpoint_r engine path with
                  | Ok _ -> Metrics.incr t.m_checkpoints
                  | Error e ->
                      Printf.eprintf
                        "xserve: background checkpoint of %s failed: %s\n%!"
                        tn.tn_name
                        (Xengine.Xerror.to_string e)))
            ()
        in
        tn.tn_ckpt <- Some th
  end

(* Execute one dequeued batch: expire jobs whose deadline passed while
   queued, group the rest by tenant, and run each group through
   query_string_batch with per-job remaining deadlines. *)
let run_batch t jobs =
  Metrics.incr t.m_batches;
  let now = t.clock () in
  (* Dequeue stamp + queue_wait span for every job, expired ones
     included: a 408 trace still shows where the time went. *)
  List.iter
    (fun j ->
      j.j_dequeued <- now;
      match j.j_trace with
      | None -> ()
      | Some tr ->
          ignore
            (Trace.add_child tr ~parent:(Trace.root tr) ~name:"queue_wait"
               ~t0:j.j_enqueued ~t1:now ~tags:[]))
    jobs;
  let live =
    List.filter
      (fun j ->
        match j.j_deadline_abs with
        | Some d when now >= d ->
            Metrics.incr t.m_expired;
            Metrics.incr t.m_errors;
            finish t j
              (Proto.error_response ~status:408 ~code:"budget_exceeded"
                 ~extra:[ ("dimension", Json.Str "deadline") ]
                 ~stage:"budget"
                 (Printf.sprintf
                    "deadline of %.0f ms passed while queued"
                    (Option.value ~default:0.
                       j.j_budget.Engine.deadline_ms)))
            ;
            false
        | _ -> true)
      jobs
  in
  (* Group by tenant, preserving admission order within a group. *)
  let groups : (string, job list ref) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun j ->
      match Hashtbl.find_opt groups j.j_tenant.tn_name with
      | Some l -> l := j :: !l
      | None ->
          Hashtbl.add groups j.j_tenant.tn_name (ref [ j ]);
          order := j.j_tenant.tn_name :: !order)
    live;
  (* Within a tenant group, admission order is preserved: maximal
     consecutive runs of reads go through query_string_batch together,
     each write runs alone (one apply_batch_r per client request — ops
     from different clients are never merged). *)
  let run_queries jobs =
    match jobs with
    | [] -> ()
    | _ ->
        let engine = (List.hd jobs).j_engine in
        let now = t.clock () in
        let items =
          List.map
            (fun j ->
              let budget =
                match j.j_deadline_abs with
                | None -> j.j_budget
                | Some d ->
                    (* The remaining allowance: admitted late still means
                       the original deadline, not a fresh one. *)
                    { j.j_budget with
                      Engine.deadline_ms = Some (max 0.1 ((d -. now) *. 1000.))
                    }
              in
              (* Time between dequeue and this group's execution start is
                 the dispatch overhead (expiry check + tenant grouping). *)
              (match j.j_trace with
              | None -> ()
              | Some tr ->
                  ignore
                    (Trace.add_child tr ~parent:(Trace.root tr)
                       ~name:"dispatch" ~t0:j.j_dequeued ~t1:now ~tags:[]));
              ( (match j.j_work with Query q -> q | Apply _ -> assert false),
                Some budget,
                Option.map (fun tr -> (tr, Trace.root tr)) j.j_trace ))
            jobs
        in
        let results =
          try
            Engine.query_string_batch ~domains:t.cfg.domains engine
              items
          with e ->
            List.map
              (fun _ ->
                Error (Xengine.Xerror.Exec_error (Printexc.to_string e)))
              items
        in
        List.iter2 (fun j r -> finish t j (response_of_result t j r)) jobs
          results
  in
  List.iter
    (fun name ->
      let jobs = List.rev !(Hashtbl.find groups name) in
      let pending =
        List.fold_left
          (fun qacc j ->
            match j.j_work with
            | Query _ -> j :: qacc
            | Apply ops ->
                run_queries (List.rev qacc);
                run_apply t j ops;
                maybe_checkpoint t j.j_tenant j.j_engine;
                [])
          [] jobs
      in
      run_queries (List.rev pending))
    (List.rev !order)

let dispatcher_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.q && t.st = Running do
      Condition.wait t.work t.lock
    done;
    if Queue.is_empty t.q then begin
      (* draining and nothing left *)
      Condition.broadcast t.idle;
      Mutex.unlock t.lock
    end
    else begin
      let batch = ref [] in
      while not (Queue.is_empty t.q) && List.length !batch < t.cfg.batch_max do
        batch := Queue.pop t.q :: !batch
      done;
      let batch = List.rev !batch in
      let n = List.length batch in
      t.qdepth <- t.qdepth - n;
      t.executing <- t.executing + n;
      Metrics.set_gauge t.g_queue (float_of_int t.qdepth);
      Mutex.unlock t.lock;
      (try run_batch t batch
       with e ->
         (* A dispatcher bug must not wedge every waiting client. *)
         let msg = Printexc.to_string e in
         List.iter
           (fun j ->
             deliver j.j_mail
               (Proto.error_response ~status:500 ~code:"internal"
                  ~stage:"serve" msg))
           batch);
      Mutex.lock t.lock;
      t.executing <- t.executing - n;
      if t.qdepth = 0 && t.executing = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

(* --- HTTP handling --------------------------------------------------------- *)

let health_body t =
  Mutex.lock t.lock;
  let st = t.st and qd = t.qdepth and ex = t.executing in
  Mutex.unlock t.lock;
  Mutex.lock t.tenants_lock;
  let tenants =
    Hashtbl.fold
      (fun name tn acc ->
        Json.Obj
          [ ("name", Json.Str name);
            ("open", Json.Bool (tn.tn_engine <> None)) ]
        :: acc)
      t.tenants []
  in
  Mutex.unlock t.tenants_lock;
  Json.to_string
    (Json.Obj
       [ ( "status",
           Json.Str (match st with Running -> "ok" | _ -> "draining") );
         ("queue_depth", Json.Num (float_of_int qd));
         ("executing", Json.Num (float_of_int ex));
         ("tenants", Json.Arr tenants) ])

let handle_swap t body =
  match Json.of_string body with
  | Error m ->
      Proto.error_response ~status:400 ~code:"malformed_request" ~stage:"serve"
        (Printf.sprintf "body is not JSON: %s" m)
  | Ok j -> (
      let str k = Option.bind (Json.member k j) Json.to_str in
      match (str "tenant", str "snapshot") with
      | Some name, Some snap -> (
          match find_tenant t name with
          | None ->
              Proto.error_response ~status:404 ~code:"unknown_tenant"
                ~stage:"serve" (Printf.sprintf "unknown tenant %S" name)
          | Some tn -> (
              match tenant_engine t tn with
              | Error resp -> resp
              | Ok engine -> (
                  match Engine.load_snapshot_r engine snap with
                  | Ok () ->
                      Mutex.lock tn.tn_lock;
                      tn.tn_path <- Some snap;
                      Mutex.unlock tn.tn_lock;
                      Proto.response 200
                        (Json.to_string
                           (Json.Obj
                              [ ("tenant", Json.Str name);
                                ("swapped", Json.Bool true);
                                ("snapshot", Json.Str snap) ]))
                  | Error e -> Proto.of_xerror ~quarantined:[] e)))
      | _ ->
          Proto.error_response ~status:400 ~code:"malformed_request"
            ~stage:"serve" "body needs \"tenant\" and \"snapshot\" fields")

let handle_query t ~rid body =
  Metrics.incr t.m_requests;
  match Proto.query_request_of_json body with
  | Error m ->
      Metrics.incr t.m_errors;
      refuse t ~rid ~tenant:"-"
        (Proto.error_response ~status:400 ~code:"malformed_request"
           ~stage:"serve" m)
  | Ok qr -> (
      match find_tenant t qr.Proto.q_tenant with
      | None ->
          Metrics.incr t.m_errors;
          (* The claimed name goes to the access log (free-form), but not
             to the labeled family: unknown tenants are unbounded. *)
          refuse t ~rid ~tenant:"-"
            (Proto.error_response ~status:404 ~code:"unknown_tenant"
               ~stage:"serve"
               (Printf.sprintf "unknown tenant %S" qr.Proto.q_tenant))
      | Some tn -> (
          match tenant_engine t tn with
          | Error resp ->
              Metrics.incr t.m_errors;
              refuse t ~rid ~tenant:tn.tn_name resp
          | Ok engine -> (
              match
                admit t ~rid tn engine
                  ~work:(Query qr.Proto.q_query)
                  ~budget:(Proto.budget_of ~default:t.cfg.default_budget qr)
              with
              | Error resp -> refuse t ~rid ~tenant:tn.tn_name resp
              | Ok mail -> await mail)))

(* [POST /apply]: the write path. Same admission pipeline as queries —
   bounded queue, deadlines, request ids, per-tenant metrics — but the
   job carries a mutation batch the dispatcher applies atomically. *)
let handle_apply t ~rid body =
  Metrics.incr t.m_requests;
  Metrics.incr t.m_applies;
  match Proto.apply_request_of_json body with
  | Error m ->
      Metrics.incr t.m_errors;
      refuse t ~rid ~tenant:"-"
        (Proto.error_response ~status:400 ~code:"malformed_request"
           ~stage:"serve" m)
  | Ok ar -> (
      match find_tenant t ar.Proto.a_tenant with
      | None ->
          Metrics.incr t.m_errors;
          refuse t ~rid ~tenant:"-"
            (Proto.error_response ~status:404 ~code:"unknown_tenant"
               ~stage:"serve"
               (Printf.sprintf "unknown tenant %S" ar.Proto.a_tenant))
      | Some tn -> (
          match tenant_engine t tn with
          | Error resp ->
              Metrics.incr t.m_errors;
              refuse t ~rid ~tenant:tn.tn_name resp
          | Ok engine -> (
              let budget =
                match ar.Proto.a_deadline_ms with
                | Some _ as d ->
                    { t.cfg.default_budget with Engine.deadline_ms = d }
                | None -> t.cfg.default_budget
              in
              match
                admit t ~rid tn engine ~work:(Apply ar.Proto.a_ops) ~budget
              with
              | Error resp -> refuse t ~rid ~tenant:tn.tn_name resp
              | Ok mail -> await mail)))

let jsonl_of_traces traces =
  String.concat "" (List.map (fun tr -> Export.trace_jsonl tr ^ "\n") traces)

let handle_debug t path =
  if not t.cfg.debug then
    Proto.error_response ~status:404 ~code:"malformed_request" ~stage:"serve"
      "debug endpoints are disabled (start the server with --debug)"
  else
    match path with
    | "/debug/traces" ->
        Proto.response ~content_type:"application/jsonl" 200
          (jsonl_of_traces (Slowlog.recent t.obs.Obs.slowlog))
    | "/debug/slowlog" ->
        Proto.response ~content_type:"application/jsonl" 200
          (jsonl_of_traces (Slowlog.slow t.obs.Obs.slowlog))
    | "/debug/metrics.json" ->
        Proto.response 200
          (Json.to_string (Export.metrics_json t.obs.Obs.metrics))
    | _ ->
        Proto.error_response ~status:404 ~code:"malformed_request"
          ~stage:"serve" (Printf.sprintf "no such endpoint GET %s" path)

(* The request id: the client's [X-Request-Id] when present and
   well-formed, a server-assigned one otherwise. *)
let request_id_of t (req : Proto.request) =
  match List.assoc_opt Proto.request_id_header req.Proto.headers with
  | Some v when Proto.valid_request_id v -> v
  | _ ->
      Printf.sprintf "r-%d-%d" (Unix.getpid ())
        (Atomic.fetch_and_add t.req_ids 1)

let handle_request t (req : Proto.request) =
  let rid = request_id_of t req in
  let resp =
    match (req.Proto.meth, req.Proto.path) with
    | "POST", "/query" ->
        let resp = handle_query t ~rid req.Proto.body in
        (* Echo the id inside the body too, success and error alike. *)
        { resp with Proto.body = Proto.with_request_id_body rid resp.Proto.body }
    | "POST", "/apply" ->
        let resp = handle_apply t ~rid req.Proto.body in
        { resp with Proto.body = Proto.with_request_id_body rid resp.Proto.body }
    | "POST", "/admin/swap" -> handle_swap t req.Proto.body
    | "GET", "/metrics" ->
        Proto.response
          ~content_type:"text/plain; version=0.0.4; charset=utf-8" 200
          (Xobs.Export.prometheus t.obs.Obs.metrics)
    | "GET", "/healthz" -> Proto.response 200 (health_body t)
    | "GET", path
      when String.length path >= 7 && String.sub path 0 7 = "/debug/" ->
        handle_debug t path
    | ("GET" | "POST"), _ ->
        Proto.error_response ~status:404 ~code:"malformed_request"
          ~stage:"serve"
          (Printf.sprintf "no such endpoint %s %s" req.Proto.meth
             req.Proto.path)
    | m, _ ->
        Proto.error_response ~status:405 ~code:"malformed_request"
          ~stage:"serve" (Printf.sprintf "method %s not supported" m)
  in
  { resp with
    Proto.headers = ("X-Request-Id", rid) :: resp.Proto.headers }

(* --- Connection threads ---------------------------------------------------- *)

let conn_ids = Atomic.make 0

let register_conn t id fd =
  Mutex.lock t.conns_lock;
  Hashtbl.replace t.conns id fd;
  Metrics.set_gauge t.g_conns (float_of_int (Hashtbl.length t.conns));
  Mutex.unlock t.conns_lock

let unregister_conn t id =
  Mutex.lock t.conns_lock;
  Hashtbl.remove t.conns id;
  Metrics.set_gauge t.g_conns (float_of_int (Hashtbl.length t.conns));
  if Hashtbl.length t.conns = 0 then Condition.broadcast t.conns_gone;
  Mutex.unlock t.conns_lock

let enter_busy t =
  Mutex.lock t.lock;
  t.busy_conns <- t.busy_conns + 1;
  Mutex.unlock t.lock

let leave_busy t =
  Mutex.lock t.lock;
  t.busy_conns <- t.busy_conns - 1;
  if t.busy_conns = 0 && t.qdepth = 0 && t.executing = 0 then
    Condition.broadcast t.idle;
  Mutex.unlock t.lock

let conn_loop t id fd =
  let conn = Proto.conn_of_fd fd in
  let rec loop () =
    match Proto.read_request conn with
    | `Eof -> ()
    | `Bad m ->
        ignore
          (Proto.write_response conn
             (Proto.error_response ~close:true ~status:400
                ~code:"malformed_request" ~stage:"serve" m))
    | `Req req ->
        (* Test seam: an injected fault runs outside the handler's try
           and crashes this thread — exercising the crash path below. It
           runs before [enter_busy] so the busy count stays balanced. *)
        (match t.req_fault with Some f -> f req | None -> ());
        enter_busy t;
        let resp =
          try handle_request t req
          with e ->
            Proto.error_response ~status:500 ~code:"internal" ~stage:"serve"
              (Printexc.to_string e)
        in
        (* During a drain, finish this response and close the
           connection: the drain completes once every busy connection
           has flushed. *)
        let resp =
          if draining t then { resp with Proto.close = true } else resp
        in
        let wrote = Proto.write_response conn resp in
        leave_busy t;
        (match wrote with
        | Ok () when not resp.Proto.close -> loop ()
        | _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      unregister_conn t id)
    (fun () ->
      try loop ()
      with e ->
        (* A dying connection thread must be loud, never silent: the
           old [with _ -> ()] here ate real bugs. Count it, log it, and
           retire the connection (the finally above still closes the fd
           and unregisters). *)
        Metrics.incr t.m_thread_crashes;
        Printf.eprintf "xserve: connection thread %d crashed: %s\n%!" id
          (Printexc.to_string e))

(* --- Acceptor --------------------------------------------------------------- *)

let acceptor_loop t listen_fd =
  let rec loop () =
    let stop = draining t in
    if not stop then begin
      match Unix.select [ listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | fd, _ ->
              Mutex.lock t.conns_lock;
              let n = Hashtbl.length t.conns in
              Mutex.unlock t.conns_lock;
              if n >= t.cfg.max_conns then begin
                let c = Proto.conn_of_fd fd in
                ignore
                  (Proto.write_response c
                     (Proto.error_response ~close:true ~status:503
                        ~code:"overloaded" ~stage:"serve"
                        "connection limit reached"));
                (try Unix.close fd with Unix.Unix_error _ -> ())
              end
              else begin
                let id = Atomic.fetch_and_add conn_ids 1 in
                register_conn t id fd;
                ignore (Thread.create (fun () -> conn_loop t id fd) ())
              end;
              loop ()
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
          | exception Unix.Unix_error _ -> loop ())
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
      | exception Unix.Unix_error _ -> loop ()
    end
  in
  loop ()

(* --- Lifecycle -------------------------------------------------------------- *)

let bind_listen addr =
  match addr with
  | Proto.Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } ->
              failwith (Printf.sprintf "cannot resolve %S" host)
          | h -> h.Unix.h_addr_list.(0)
          | exception Not_found ->
              failwith (Printf.sprintf "cannot resolve %S" host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (try Unix.bind fd (Unix.ADDR_INET (inet, port))
       with Unix.Unix_error (e, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         failwith
           (Printf.sprintf "cannot bind %s:%d: %s" host port
              (Unix.error_message e)));
      Unix.listen fd 128;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Proto.Tcp (host, p)
        | _ -> addr
      in
      (fd, bound)
  | Proto.Unix_sock path ->
      (try if Sys.file_exists path then Unix.unlink path
       with Unix.Unix_error _ | Sys_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with Unix.Unix_error (e, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         failwith
           (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)));
      Unix.listen fd 128;
      (fd, addr)

let start t =
  Mutex.lock t.lock;
  if t.st <> Created then begin
    Mutex.unlock t.lock;
    failwith "server already started"
  end;
  t.st <- Running;
  Mutex.unlock t.lock;
  (* Writes to sockets the peer closed must come back as EPIPE, not kill
     the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd, bound = bind_listen t.cfg.listen in
  t.listen_fd <- Some fd;
  t.bound <- Some bound;
  t.dispatcher <- Some (Thread.create dispatcher_loop t);
  t.acceptor <- Some (Thread.create (fun () -> acceptor_loop t fd) ())

let bound_addr t =
  match t.bound with
  | Some a -> a
  | None -> failwith "server not started"

let stop t =
  let proceed =
    Mutex.lock t.lock;
    let p = t.st = Running in
    if p then begin
      t.st <- Draining;
      Condition.broadcast t.work
    end;
    Mutex.unlock t.lock;
    p
  in
  if proceed then begin
    (* Stop accepting. The acceptor notices the drain within its select
       timeout; closing the fd also unblocks an in-flight accept. *)
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    (match t.listen_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (* Wait for every admitted request to finish and every busy
       connection to flush its response. *)
    Mutex.lock t.lock;
    while t.qdepth > 0 || t.executing > 0 || t.busy_conns > 0 do
      Condition.wait t.idle t.lock
    done;
    t.st <- Stopped;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (match t.dispatcher with Some th -> Thread.join th | None -> ());
    (* The dispatcher is gone, so no new checkpoints can start; let the
       in-flight ones finish before tearing down. *)
    Mutex.lock t.tenants_lock;
    let ckpts =
      Hashtbl.fold
        (fun _ tn acc ->
          match tn.tn_ckpt with Some th -> th :: acc | None -> acc)
        t.tenants []
    in
    Mutex.unlock t.tenants_lock;
    List.iter Thread.join ckpts;
    (* Nudge idle keep-alive connections off their blocking read. *)
    Mutex.lock t.conns_lock;
    Hashtbl.iter
      (fun _ fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.conns;
    while Hashtbl.length t.conns > 0 do
      Condition.wait t.conns_gone t.conns_lock
    done;
    Mutex.unlock t.conns_lock;
    Option.iter Accesslog.close t.alog;
    match t.cfg.listen with
    | Proto.Unix_sock path -> (
        try if Sys.file_exists path then Unix.unlink path
        with Unix.Unix_error _ | Sys_error _ -> ())
    | Proto.Tcp _ -> ()
  end

let run ?(signals = true) t =
  start t;
  let stop_requested = Atomic.make false in
  if signals then
    List.iter
      (fun s ->
        try
          Sys.set_signal s
            (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigterm; Sys.sigint ];
  while not (Atomic.get stop_requested) do
    try Thread.delay 0.1
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  stop t
