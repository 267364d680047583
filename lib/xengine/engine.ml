module Pattern = Xam.Pattern
module Rewrite = Xam.Rewrite
module Canonical = Xam.Canonical
module Rel = Xalgebra.Rel
module Logical = Xalgebra.Logical
module Eval = Xalgebra.Eval
module Physical = Xalgebra.Physical
module Value = Xalgebra.Value
module Store = Xstorage.Store
module Cost = Xstorage.Cost
module Lru = Xobs.Lru
module Obs = Xobs.Obs
module Metrics = Xobs.Metrics
module Trace = Xobs.Trace
module Slowlog = Xobs.Slowlog
module Summary = Xsummary.Summary
module Wal = Xwal.Wal

type counters = {
  queries : int;
  hits : int;
  misses : int;
  rewrites : int;
  fallbacks : int;
  faults : int;
  degraded : int;
  quarantines : int;
}

(* The engine's accounting lives in its metrics registry only: the
   Prometheus exposition and the slow-query tooling read it there, and
   [counters] copies the same counters out. The registry's counters are
   atomics, so the accounting stays exact under [query_batch] (the chaos
   suite checks faults absorbed = faults injected). *)
type emetrics = {
  m_queries : Metrics.counter;
  m_errors : Metrics.counter;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_rewrites : Metrics.counter;
  m_fallbacks : Metrics.counter;
  m_faults : Metrics.counter;
  m_degraded : Metrics.counter;
  m_quarantines : Metrics.counter;
  m_quarantined_now : Metrics.gauge;
  m_applies : Metrics.counter;
  m_replayed : Metrics.counter;
  m_tails : Metrics.counter;
  m_parts_kept : Metrics.counter;
  m_parts_rebuilt : Metrics.counter;
  g_wal_lag : Metrics.gauge;
  h_query : Metrics.histogram;
  h_rewrite : Metrics.histogram;
  h_exec : Metrics.histogram;
  h_apply : Metrics.histogram;
  h_splice : Metrics.histogram;
  h_checkpoint : Metrics.histogram;
  h_replay : Metrics.histogram;
}

let register_metrics reg =
  let c name help = Metrics.counter reg ~help name in
  let h name help = Metrics.histogram reg ~help name in
  { m_queries = c "engine_queries_total" "pattern queries started";
    m_errors = c "engine_errors_total" "queries that returned a classified error";
    m_hits = c "engine_plan_cache_hits_total" "plan cache hits";
    m_misses = c "engine_plan_cache_misses_total" "plan cache misses";
    m_rewrites = c "engine_rewrites_total" "rewriter invocations";
    m_fallbacks =
      c "engine_fallbacks_total" "patterns materialized from the base document";
    m_faults = c "engine_faults_total" "storage-module faults absorbed mid-query";
    m_degraded =
      c "engine_degraded_total" "queries answered after at least one absorbed fault";
    m_quarantines = c "engine_quarantines_total" "distinct modules ever quarantined";
    m_quarantined_now =
      Metrics.gauge reg ~help:"currently quarantined modules"
        "engine_quarantined_modules";
    m_applies = c "engine_applies_total" "document mutations applied";
    m_replayed = c "wal_replayed_records_total" "wal records replayed at recovery";
    m_tails = c "wal_truncated_tails_total" "torn wal tails truncated at recovery";
    m_parts_kept =
      c "engine_maintain_partitions_kept_total"
        "partitions physically reused by incremental maintenance";
    m_parts_rebuilt =
      c "engine_maintain_partitions_rebuilt_total"
        "partitions rebuilt by incremental maintenance";
    g_wal_lag =
      Metrics.gauge reg ~help:"applied records not yet covered by a snapshot"
        "wal_snapshot_lag";
    h_query = h "engine_query_seconds" "end-to-end pattern query latency";
    h_rewrite = h "engine_rewrite_seconds" "rewrite + costing latency on cache misses";
    h_exec = h "engine_exec_seconds" "physical plan execution latency";
    h_apply = h "engine_apply_seconds" "end-to-end mutation apply latency";
    h_splice =
      h "engine_splice_seconds"
        "incremental summary + partition maintenance (splice) latency";
    h_checkpoint =
      h "engine_checkpoint_seconds" "checkpoint (snapshot + wal truncate) latency";
    h_replay = h "wal_replay_seconds" "whole-log recovery replay latency" }

type budget = {
  deadline_ms : float option;
  max_tuples : int option;
  max_steps : int option;
}

let unlimited = { deadline_ms = None; max_tuples = None; max_steps = None }

(* A cached planning outcome; [None] caches the negative answer so a
   repeatedly unanswerable query skips the rewriter too. [planned_ms]
   remembers what the rewrite + costing originally cost, so a cache hit
   can report it without conflating it with the hit's own (zero)
   rewriting time. *)
type cached = {
  rewriting : Rewrite.rewriting option;
  cost : float;
  candidates : int;
  planned_ms : float;
}

type t = {
  mutable catalog : Store.catalog;
      (* the resident catalog; for a lazy engine this is the skeleton
         (empty extents) and [lazy_catalog] holds the real one *)
  mutable lazy_catalog : Store.lazy_catalog option;
  generation : int Atomic.t;
  mutable base_env : Eval.env;
      (* the unwrapped storage env; [env = env_wrap base_env]. Kept so
         per-query partition-pruned overrides can fall through to storage
         and STILL be re-wrapped — fault injection must see pruned scans
         exactly like ordinary ones *)
  mutable env : Eval.env;
  mutable doc : Xdm.Doc.t option;
  cache : cached Lru.t;
  lock : Mutex.t;
      (* guards the plan cache, the quarantine table and catalog swaps;
         never held across planning or execution *)
  apply_lock : Mutex.t;
      (* serializes the write path (apply / replay / checkpoint); held
         across maintenance, which [lock] never is *)
  mutable lsn : int;  (* records applied; the WAL position of this state *)
  mutable snapshot_lsn : int;  (* lsn covered by the latest snapshot save *)
  mutable wal : Wal.Writer.t option;
  mutable declared : (string * Pattern.t) list;
      (* every catalog module (name, xam) in the order [create],
         [set_catalog_r] or [add_module] gave it; maintenance rebuilds
         exactly this list *)
  mutable dormant : (string * string) list;
      (* the declared modules maintenance dropped (name, reason), in
         declared order, retried for resurrection on every later apply *)
  mutable reader_faults : unit -> (string * int * string) list;
      (* partition page-in faults from the backing snapshot reader, if
         this engine was opened lazily *)
  constraints : bool;
  max_views : int;
  budget : budget;
  env_wrap : Eval.env -> Eval.env;
  quarantined : (string, string) Hashtbl.t;  (* module name -> fault reason *)
  par : Xalgebra.Par.t;
      (* the parallel capability handed to the rewriter and the physical
         operators; [Par.sequential] without a pool *)
  obs : Obs.t;
  m : emetrics;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let with_apply_lock t f =
  Mutex.lock t.apply_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.apply_lock) f

type result = { rel : Rel.t; explain : Explain.t; trace : Trace.t option }

let clk t = t.obs.Obs.clock
let now_ms t = clk t () *. 1000.0

(* --- Tracing ---------------------------------------------------------------
   [tr] is the ambient trace context threaded through the pipeline: the
   trace plus the span new work should attach under. [None] (tracing off)
   short-circuits every helper to a single match — the hot path builds
   nothing. A trace is only ever touched by the one domain running its
   query, so none of this needs synchronization. *)

type tr = (Trace.t * Trace.span) option

let in_span (tr : tr) name f =
  match tr with
  | None -> f None
  | Some (trace, parent) ->
      Trace.span trace parent name (fun sp -> f (Some (trace, sp)))

let tr_tag (tr : tr) k v =
  match tr with None -> () | Some (_, sp) -> Trace.tag sp k v

let tr_event (tr : tr) name tags =
  match tr with None -> () | Some (trace, sp) -> Trace.event trace sp name tags

(* Mirror an executed plan's operator stats as pre-timed child spans, so a
   trace shows the same tree EXPLAIN prints. The stats carry durations but
   not start instants; operators stream interleaved, so each span is laid
   out from the execute span's start — lengths are exact, offsets are not
   claimed. *)
let rec add_op_spans trace parent ~t0 (st : Physical.op_stats) =
  let sp =
    Trace.add_child trace ~parent ~name:("op:" ^ st.Physical.op) ~t0
      ~t1:(t0 +. st.Physical.elapsed)
      ~tags:
        [ ("tuples", string_of_int st.Physical.tuples);
          ("nexts", string_of_int st.Physical.nexts) ]
  in
  List.iter (add_op_spans trace sp ~t0) st.Physical.children

let start_trace t name =
  if t.obs.Obs.tracing then begin
    let trace = Trace.start ~clock:(clk t) ~id:(Obs.next_trace_id t.obs) name in
    let root = Trace.root trace in
    Trace.tag root "domain" (string_of_int (Pool.self_index ()));
    (Some (trace, root) : tr)
  end
  else None

let finish_trace t (tr : tr) ~err =
  match tr with
  | None -> ()
  | Some (trace, root) ->
      (match err with Some e -> Trace.tag root "error" e | None -> ());
      Trace.finish trace;
      Slowlog.record t.obs.Obs.slowlog trace

let validation_error = function
  | Ok () | Error [] -> None
  | Error ((name, reason) :: rest) ->
      (* Validation accumulates every failing module; the typed error names
         the first and counts the rest so nothing is silently dropped. *)
      let reason =
        match rest with
        | [] -> reason
        | _ ->
            Printf.sprintf "%s (and %d more invalid module%s)" reason
              (List.length rest)
              (if List.length rest = 1 then "" else "s")
      in
      Some (Xerror.Catalog_invalid { module_name = name; reason })

let catalog_error catalog = validation_error (Store.validate catalog)

let declared_of (catalog : Store.catalog) =
  List.map
    (fun (m : Store.module_) -> (m.Store.name, m.Store.xam))
    catalog.Store.modules

(* The record behind [create] and [create_lazy]: [catalog] is the
   resident catalog (a lazy engine's skeleton), [base_env] the storage
   lookup over it or over [lazy_catalog]. *)
let make ?(cache_capacity = 128) ?(constraints = true) ?(max_views = 3)
    ?(budget = unlimited) ?(env_wrap = Fun.id) ?pool ?obs ?doc ~lazy_catalog
    ~base_env catalog =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  { catalog;
    lazy_catalog;
    generation = Atomic.make 0;
    base_env;
    env = env_wrap base_env;
    doc;
    cache = Lru.create ~metrics:obs.Obs.metrics cache_capacity;
    lock = Mutex.create ();
    apply_lock = Mutex.create ();
    lsn = 0;
    snapshot_lsn = 0;
    wal = None;
    declared = declared_of catalog;
    dormant = [];
    reader_faults = (fun () -> []);
    constraints;
    max_views;
    budget;
    env_wrap;
    quarantined = Hashtbl.create 8;
    par = (match pool with Some p -> Pool.par p | None -> Xalgebra.Par.sequential);
    obs;
    m = register_metrics obs.Obs.metrics }

let create ?cache_capacity ?constraints ?max_views ?budget ?env_wrap ?pool ?obs
    ?doc catalog =
  Option.iter (fun e -> raise (Xerror.Error e)) (catalog_error catalog);
  make ?cache_capacity ?constraints ?max_views ?budget ?env_wrap ?pool ?obs ?doc
    ~lazy_catalog:None ~base_env:(Store.env catalog) catalog

let create_lazy ?cache_capacity ?constraints ?max_views ?budget ?env_wrap ?pool
    ?obs ?doc lc =
  (* The resident part is the skeleton — summary and xams, empty extents;
     everything that scans goes through [Store.lazy_env], which pages
     extents in from the backing reader. Validation is structural and
     never forces a page. *)
  Option.iter
    (fun e -> raise (Xerror.Error e))
    (validation_error (Store.validate_lazy lc));
  make ?cache_capacity ?constraints ?max_views ?budget ?env_wrap ?pool ?obs ?doc
    ~lazy_catalog:(Some lc) ~base_env:(Store.lazy_env lc) (Store.skeleton lc)

let of_doc ?cache_capacity ?constraints ?max_views ?budget ?env_wrap ?pool ?obs
    doc specs =
  create ?cache_capacity ?constraints ?max_views ?budget ?env_wrap ?pool ?obs
    ~doc
    (Store.catalog_of doc specs)

let catalog t = t.catalog
let obs t = t.obs

let counters t =
  let v = Metrics.counter_value in
  { queries = v t.m.m_queries;
    hits = v t.m.m_hits;
    misses = v t.m.m_misses;
    rewrites = v t.m.m_rewrites;
    fallbacks = v t.m.m_fallbacks;
    faults = v t.m.m_faults;
    degraded = v t.m.m_degraded;
    quarantines = v t.m.m_quarantines }

let env t = t.env
let summary t = t.catalog.Store.summary
let cache_length t = with_lock t (fun () -> Lru.length t.cache)

let quarantined t =
  with_lock t (fun () ->
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.quarantined []))

let quarantined_names t = List.map fst (quarantined t)

(* Install [catalog] as the engine's storage, with the declared module
   list it came from and the dormant part of that list. Entries of
   earlier generations become unreachable (the key embeds the
   generation) and age out of the LRU. A catalog swap is a new storage
   world: the quarantine set restarts from the dormant modules, and a
   lazy engine becomes an ordinary resident one — the installed catalog
   is what [env] scans from now on. *)
let swap_catalog t ~declared ~dormant catalog =
  match catalog_error catalog with
  | Some e -> Error e
  | None ->
      with_lock t (fun () ->
          Hashtbl.reset t.quarantined;
          List.iter (fun (n, r) -> Hashtbl.replace t.quarantined n r) dormant;
          t.catalog <- catalog;
          t.lazy_catalog <- None;
          t.declared <- declared;
          t.dormant <- dormant;
          Atomic.incr t.generation;
          t.base_env <- Store.env catalog;
          t.env <- t.env_wrap t.base_env);
      Metrics.set_gauge t.m.m_quarantined_now
        (float_of_int (List.length dormant));
      Ok ()

let set_catalog_r t catalog =
  swap_catalog t ~declared:(declared_of catalog) ~dormant:[] catalog

(* The full catalog, extents included. For a lazy engine the resident
   catalog is only the skeleton (empty extents), so anything that needs
   real extents — snapshot saves, module appends, maintenance — must page
   the whole lazy catalog in first. A fault while paging surfaces as the
   typed storage error. *)
let full_catalog resident = function
  | None -> resident
  | Some lc -> (
      match Store.materialize_lazy lc with
      | catalog -> catalog
      | exception Store.Module_fault { name; reason } ->
          raise
            (Xerror.Error (Xerror.Storage_fault { module_name = name; reason })))

let materialized_catalog t = full_catalog t.catalog t.lazy_catalog

let add_module t (m : Store.module_) =
  let catalog = materialized_catalog t in
  Xerror.get_exn
    (swap_catalog t
       ~declared:(t.declared @ [ (m.Store.name, m.Store.xam) ])
       ~dormant:t.dormant
       { catalog with Store.modules = catalog.Store.modules @ [ m ] })

(* --- Persistent snapshots ---------------------------------------------- *)

let snapshot_error path reason = Xerror.Snapshot_error { path; reason }

(* A freshly opened engine takes over its snapshot's LSN and declared
   modules; the dormant ones stay quarantined, as they were in the
   engine that saved them. *)
let restore t ~lsn ~declared ~dormant =
  t.lsn <- lsn;
  t.snapshot_lsn <- lsn;
  t.declared <- declared;
  t.dormant <- dormant;
  List.iter (fun (n, r) -> Hashtbl.replace t.quarantined n r) dormant;
  t

(* Capture one consistent image under the state lock — installs swap
   the document, catalog, LSN and dormant set together under it — and
   write it with no engine lock held. [full_catalog], not the resident
   one: a lazily-opened engine's resident catalog is the skeleton, and
   serializing that would write a checksum-valid snapshot full of empty
   extents over real data. Returns the bytes written and the LSN the
   file covers. *)
let write_snapshot t path =
  let doc, resident, lazy_cat, lsn, declared, dormant =
    with_lock t (fun () ->
        (t.doc, t.catalog, t.lazy_catalog, t.lsn, t.declared, t.dormant))
  in
  match
    Xpersist.Snapshot.write ~metrics:t.obs.Obs.metrics path
      { Xpersist.Snapshot.doc;
        catalog = full_catalog resident lazy_cat;
        lsn;
        declared;
        dormant }
  with
  | exception Xerror.Error e -> Error e
  | Error reason -> Error (snapshot_error path reason)
  | Ok bytes -> Ok (bytes, lsn)

(* A snapshot now covers [captured]: recovery from it replays nothing
   older — unless a newer snapshot already covers more. Caller holds the
   apply lock. *)
let advance_snapshot_lsn t captured =
  if captured > t.snapshot_lsn then t.snapshot_lsn <- captured;
  Metrics.set_gauge t.m.g_wal_lag (float_of_int (t.lsn - t.snapshot_lsn))

let save_snapshot_r t path =
  Result.map
    (fun (bytes, captured) ->
      with_apply_lock t (fun () -> advance_snapshot_lsn t captured);
      bytes)
    (write_snapshot t path)

let load_snapshot_r t path =
  (* Catalog hot-swap from disk: decode + verify the whole snapshot
     first, then install through the ordinary swap path (generation bump,
     plan-cache invalidation, quarantine reset). A snapshot that fails
     verification or validation never installs anything — the running
     catalog stays. The snapshot's document, if any, is ignored: the
     engine's fallback document is fixed at creation. *)
  match Xpersist.Snapshot.read ~metrics:t.obs.Obs.metrics path with
  | Error reason -> Error (snapshot_error path reason)
  | Ok { catalog; declared; dormant; _ } ->
      swap_catalog t ~declared ~dormant catalog

let of_snapshot_r ?cache_capacity ?constraints ?max_views ?budget ?env_wrap ?pool
    ?obs ?(lazy_extents = false) ?extent_cache ?label path =
  let module Reader = Xpersist.Snapshot.Reader in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  try
    if lazy_extents then
      match
        Reader.open_ ?cache_capacity:extent_cache ~metrics:obs.Obs.metrics
          ?owner:label path
      with
      | Error reason -> Error (snapshot_error path reason)
      | Ok reader -> (
          match
            create_lazy ?cache_capacity ?constraints ?max_views ?budget
              ?env_wrap ?pool ~obs ?doc:(Reader.doc reader)
              (Reader.lazy_catalog reader)
          with
          | t ->
              t.reader_faults <- (fun () -> Reader.partition_faults reader);
              Ok
                (restore t ~lsn:(Reader.lsn reader)
                   ~declared:(Reader.declared reader)
                   ~dormant:(Reader.dormant reader))
          | exception e ->
              (* The engine never took ownership (catalog validation
                 failed, say); the caller has no handle, so close the
                 reader — and its file descriptor — here. *)
              Reader.close reader;
              raise e)
    else
      match Xpersist.Snapshot.read ~metrics:obs.Obs.metrics path with
      | Error reason -> Error (snapshot_error path reason)
      | Ok { doc; catalog; lsn; declared; dormant } ->
          Ok
            (restore
               (create ?cache_capacity ?constraints ?max_views ?budget
                  ?env_wrap ?pool ~obs ?doc catalog)
               ~lsn ~declared ~dormant)
  with Xerror.Error e -> Error e

(* A module faulted while being read: remember it, bump the generation so
   every cached plan that might mention it dies, and let the caller
   re-plan against the survivors. *)
let quarantine t name reason =
  let fresh, live =
    with_lock t (fun () ->
        let fresh = not (Hashtbl.mem t.quarantined name) in
        if fresh then Hashtbl.replace t.quarantined name reason;
        (fresh, Hashtbl.length t.quarantined))
  in
  if fresh then Metrics.incr t.m.m_quarantines;
  Metrics.set_gauge t.m.m_quarantined_now (float_of_int live);
  Metrics.incr t.m.m_faults;
  Atomic.incr t.generation

let quarantine_empty t =
  with_lock t (fun () -> Hashtbl.length t.quarantined = 0)

(* --- Write path: apply, WAL, recovery, checkpoint ----------------------- *)

type mutation = Wal.op =
  | Insert_subtree of { parent : int; before : int option; xml : string }
  | Delete_subtree of { node : int }
  | Update_value of { node : int; value : string }

type apply_report = {
  ap_lsn : int;
  ap_parts_kept : int;
  ap_parts_rebuilt : int;
  ap_paths_added : string list;
  ap_paths_removed : string list;
  ap_dropped : (string * string) list;
  ap_resurrected : string list;
}

(* What one round of maintenance decided; [apply_report] is its public
   face plus the LSN the mutation landed at. *)
type minfo = {
  mt_kept : int;
  mt_rebuilt : int;
  mt_dropped : (string * string) list;
  mt_resurrected : string list;
  mt_dormant : (string * string) list;
  mt_paths_added : string list;
  mt_paths_removed : string list;
}

let update_invalid msg = Xerror.Error (Xerror.Update_invalid msg)

let mutate_doc doc (op : mutation) =
  match op with
  | Insert_subtree { parent; before; xml } -> (
      match Xdm.Xml_tree.parse_result xml with
      | Error msg ->
          raise (update_invalid ("inserted XML does not parse: " ^ msg))
      | Ok tree -> (
          match Xdm.Doc.insert_subtree doc ~parent ?before tree with
          | d -> d
          | exception Invalid_argument msg -> raise (update_invalid msg)))
  | Delete_subtree { node } -> (
      match Xdm.Doc.delete_subtree doc node with
      | d -> d
      | exception Invalid_argument msg -> raise (update_invalid msg))
  | Update_value { node; value } -> (
      match Xdm.Doc.update_value doc node value with
      | d -> d
      | exception Invalid_argument msg -> raise (update_invalid msg))

let summary_paths s =
  List.init (Summary.size s) (fun i -> Summary.path_string s i)

(* Rebuild the catalog against the mutated document: every declared
   module, in declared order. Structural edits shift every pre-order
   rank, so extents are re-materialized wholesale and [Store.spliced]
   recovers the physical change-set: partitions whose payload came out
   identical share the old record, so only partitions the edit actually
   touched are fresh. Modules that fail to build or no longer validate
   against the new summary are dormant, and retried on every later apply
   — a module dropped because an edit removed its last matching path
   resurrects the moment an edit brings the path back, at its declared
   position. The catalog is thus a function of the declared list and the
   document alone, which is what lets a batch and the per-record replay
   of its WAL records land on the same catalog. *)
let maintain t doc =
  let prev = materialized_catalog t in
  let summary, phi = Summary.build doc in
  let old_paths = summary_paths prev.Store.summary in
  let new_paths = summary_paths summary in
  let built =
    List.map
      (fun (name, xam) ->
        match Store.partitioned ~phi doc (Store.materialize doc name xam) with
        | m -> (name, Ok m)
        | exception e -> (name, Error (Printexc.to_string e)))
      t.declared
  in
  let ok_modules =
    List.filter_map (function _, Ok m -> Some m | _, Error _ -> None) built
  in
  let invalid =
    match Store.validate { Store.summary; modules = ok_modules } with
    | Ok () -> []
    | Error pairs -> pairs
  in
  let dormant =
    List.filter_map
      (function
        | name, Error reason -> Some (name, reason)
        | name, Ok _ -> Option.map (fun r -> (name, r)) (List.assoc_opt name invalid))
      built
  in
  let was_dormant name = List.mem_assoc name t.dormant in
  let kept = ref 0 and rebuilt = ref 0 in
  let modules =
    List.filter
      (fun (m : Store.module_) -> not (List.mem_assoc m.Store.name dormant))
      ok_modules
    |> List.map (fun (m : Store.module_) ->
           match
             List.find_opt
               (fun (p : Store.module_) -> p.Store.name = m.Store.name)
               prev.Store.modules
           with
           | Some p ->
               let m', (k, r) = Store.spliced ~prev:p m in
               kept := !kept + k;
               rebuilt := !rebuilt + r;
               m'
           | None -> m)
  in
  ( { Store.summary; modules },
    { mt_kept = !kept;
      mt_rebuilt = !rebuilt;
      mt_dropped = List.filter (fun (n, _) -> not (was_dormant n)) dormant;
      mt_resurrected =
        List.filter_map
          (fun (m : Store.module_) ->
            if was_dormant m.Store.name then Some m.Store.name else None)
          modules;
      mt_dormant = dormant;
      mt_paths_added =
        List.filter (fun p -> not (List.mem p old_paths)) new_paths;
      mt_paths_removed =
        List.filter (fun p -> not (List.mem p new_paths)) old_paths } )

(* Swap the mutated world in, LSN included, under the state lock — a
   snapshot capture never sees a document without its LSN. Unlike
   [swap_catalog] this merges into the quarantine table rather than
   resetting it: modules maintenance had to drop stay visible as
   quarantined until an apply resurrects them. *)
let install_update t doc catalog ~lsn (info : minfo) =
  with_lock t (fun () ->
      t.doc <- Some doc;
      t.catalog <- catalog;
      t.lazy_catalog <- None;
      t.base_env <- Store.env catalog;
      t.env <- t.env_wrap t.base_env;
      t.dormant <- info.mt_dormant;
      t.lsn <- lsn;
      List.iter (fun (n, r) -> Hashtbl.replace t.quarantined n r) info.mt_dropped;
      List.iter (fun n -> Hashtbl.remove t.quarantined n) info.mt_resurrected;
      Atomic.incr t.generation;
      Metrics.set_gauge t.m.m_quarantined_now
        (float_of_int (Hashtbl.length t.quarantined)));
  Metrics.add t.m.m_quarantines (List.length info.mt_dropped);
  Metrics.add t.m.m_parts_kept info.mt_kept;
  Metrics.add t.m.m_parts_rebuilt info.mt_rebuilt

(* The one write path, for applies and recovery alike; caller holds the
   apply lock. The write-ahead ordering: (1) mutate and maintain off to
   the side — the new document and catalog exist only as local values,
   a failure here changes nothing; (2) when a WAL is attached, make the
   ops durable as one group-committed batch of ordinary records — an
   [Error] leaves engine state untouched, an injected [Fsio.Crashed]
   escapes as the exception it is; (3) install and advance the LSN. A
   crash between (2) and (3) is exactly what replay absorbs: the WAL
   holds records the state does not, and recovery re-applies them.
   Recovery runs before the writer is attached, so replayed records are
   never logged twice. Raises [Xerror.Error]. *)
let write t ops =
  let doc =
    match t.doc with
    | Some d -> List.fold_left mutate_doc d ops
    | None -> raise (update_invalid "engine holds no document to mutate")
  in
  let t0 = clk t () in
  let catalog, info = maintain t doc in
  Metrics.observe t.m.h_splice (clk t () -. t0);
  (match t.wal with
  | None -> ()
  | Some w -> (
      match Wal.Writer.append_batch w ops with
      | Ok _ -> ()
      | Error reason ->
          raise
            (Xerror.Error (Xerror.Wal_error { path = Wal.Writer.dir w; reason }))));
  install_update t doc catalog ~lsn:(t.lsn + List.length ops) info;
  info

(* N mutations as one write-path round: one apply-lock acquisition, one
   maintenance pass (splice cost per batch, not per op), one
   group-committed WAL write covering all N records, one install.
   All-or-nothing: an invalid op anywhere in the batch applies none of
   it, and a WAL failure leaves engine state untouched. Op [k+1]'s
   handles resolve against the document after op [k]. *)
let apply_batch_r t ops =
  match ops with
  | [] ->
      Ok
        { ap_lsn = t.lsn; ap_parts_kept = 0; ap_parts_rebuilt = 0;
          ap_paths_added = []; ap_paths_removed = []; ap_dropped = [];
          ap_resurrected = [] }
  | _ ->
      with_apply_lock t (fun () ->
          let t0 = clk t () in
          match write t ops with
          | exception Xerror.Error e -> Error e
          | info ->
              Metrics.add t.m.m_applies (List.length ops);
              Metrics.observe t.m.h_apply (clk t () -. t0);
              Metrics.set_gauge t.m.g_wal_lag
                (float_of_int (t.lsn - t.snapshot_lsn));
              Ok
                { ap_lsn = t.lsn;
                  ap_parts_kept = info.mt_kept;
                  ap_parts_rebuilt = info.mt_rebuilt;
                  ap_paths_added = info.mt_paths_added;
                  ap_paths_removed = info.mt_paths_removed;
                  ap_dropped = info.mt_dropped;
                  ap_resurrected = info.mt_resurrected })

let apply_r t op = apply_batch_r t [ op ]

let attach_wal_r ?fs ?sync ?segment_bytes ?commit_window ?max_batch t dir =
  let wal_err reason = Xerror.Wal_error { path = dir; reason } in
  with_apply_lock t (fun () ->
      if t.wal <> None then Error (wal_err "a WAL is already attached")
      else
        match Wal.read ~dir with
        | Error reason -> Error (wal_err reason)
        | Ok (records, tail) -> (
            let repaired =
              match tail with
              | Wal.Clean -> Ok ()
              | Wal.Torn _ as torn -> (
                  Metrics.incr t.m.m_tails;
                  match Wal.repair ?fs torn with
                  | Ok () -> Ok ()
                  | Error reason -> Error (wal_err reason))
            in
            match repaired with
            | Error e -> Error e
            | Ok () -> (
                let base = t.lsn in
                (* Records at or below the base are covered by the
                   snapshot this engine was opened from: skipping them is
                   what makes replay idempotent. Above the base,
                   acknowledged history must be contiguous — a gap means
                   a segment of committed records vanished, and replaying
                   across it would silently rewrite history. *)
                let todo = List.filter (fun r -> r.Wal.lsn > base) records in
                let rec check expected = function
                  | [] -> Ok ()
                  | r :: rest ->
                      if r.Wal.lsn = expected then check (expected + 1) rest
                      else
                        Error
                          (wal_err
                             (Printf.sprintf
                                "LSN gap above snapshot: expected %d, found %d"
                                expected r.Wal.lsn))
                in
                match check (base + 1) todo with
                | Error e -> Error e
                | Ok () -> (
                    (* One write-path round per record, unlogged: the
                       contiguity check above makes each land at its
                       record's LSN. *)
                    let rt0 = clk t () in
                    match
                      List.iter
                        (fun r ->
                          ignore (write t [ r.Wal.op ]);
                          Metrics.incr t.m.m_replayed)
                        todo
                    with
                    | exception Xerror.Error e -> Error e
                    | () -> (
                        Metrics.observe t.m.h_replay (clk t () -. rt0);
                        match
                          Wal.Writer.open_ ?fs ~metrics:t.obs.Obs.metrics
                            ?segment_bytes ?sync ?commit_window ?max_batch ~dir
                            ~lsn:t.lsn ()
                        with
                        | Error reason -> Error (wal_err reason)
                        | Ok w ->
                            t.wal <- Some w;
                            Metrics.set_gauge t.m.g_wal_lag
                              (float_of_int (t.lsn - t.snapshot_lsn));
                            Ok (List.length todo))))))

let detach_wal t =
  with_apply_lock t (fun () ->
      match t.wal with
      | None -> ()
      | Some w ->
          Wal.Writer.close w;
          t.wal <- None)

(* Checkpoint protocol, serialized with applies at exactly two points.
   (1) Capture + write ([write_snapshot]): the image is read under the
   state lock and written with no engine lock held, so concurrent
   applies proceed; they simply are not covered by this checkpoint.
   (2) Install/truncate: under the apply lock, advance [snapshot_lsn] to
   the captured LSN (unless a newer checkpoint already passed it) and
   drop the segments it covers. Snapshot first, truncate second: a crash
   between the two only leaves segments whose records replay skips.
   Concurrent checkpoints to the same [path] must be serialized by the
   caller (the server runs at most one per tenant) — two interleaved
   writers could otherwise pair a stale file with a fresher
   [snapshot_lsn] and truncate history the file does not cover.
   [before_install] is a test seam between the write and step (2). *)
let checkpoint_r ?(before_install = fun () -> ()) t path =
  let t0 = clk t () in
  match write_snapshot t path with
  | Error e -> Error e
  | Ok (bytes, captured) ->
      before_install ();
      with_apply_lock t (fun () ->
          advance_snapshot_lsn t captured;
          let truncated =
            match t.wal with
            | None -> Ok 0
            | Some w ->
                Result.map_error
                  (fun reason -> Xerror.Wal_error { path = Wal.Writer.dir w; reason })
                  (Wal.Writer.truncate_upto w t.snapshot_lsn)
          in
          Result.map
            (fun removed ->
              Metrics.observe t.m.h_checkpoint (clk t () -. t0);
              (bytes, removed))
            truncated)

let lsn t = t.lsn
let snapshot_lsn t = t.snapshot_lsn
let wal_dir t = Option.map Wal.Writer.dir t.wal
let document t = t.doc
let dormant_modules t = t.dormant
let partition_faults t = t.reader_faults ()

let cache_key t pattern =
  Printf.sprintf "%s@%d"
    (Canonical.cache_key t.catalog.Store.summary pattern)
    (Atomic.get t.generation)

let active_views t =
  let views = Store.views t.catalog in
  with_lock t (fun () ->
      if Hashtbl.length t.quarantined = 0 then views
      else
        List.filter
          (fun (v : Rewrite.view) ->
            not (Hashtbl.mem t.quarantined v.Rewrite.vname))
          views)

(* Plan the pattern: consult the cache, otherwise rewrite against the
   catalog's live (non-quarantined) views and rank by cost. Returns the
   outcome, whether it was a hit, and this call's planning time in ms —
   0 on a hit; the cached entry's [planned_ms] remembers the original. *)
let plan_for t (trc : tr) pattern =
  in_span trc "plan" (fun trc ->
      let key = cache_key t pattern in
      match with_lock t (fun () -> Lru.find t.cache key) with
      | Some c ->
          Metrics.incr t.m.m_hits;
          tr_tag trc "cache" "hit";
          (c, true, 0.0)
      | None ->
          Metrics.incr t.m.m_misses;
          Metrics.incr t.m.m_rewrites;
          tr_tag trc "cache" "miss";
          let t0 = now_ms t in
          (* The lock is released during rewriting and costing: concurrent
             misses on the same key just race to [Lru.add] the same answer. *)
          let rws =
            in_span trc "rewrite" (fun _ ->
                Rewrite.rewrite ~constraints:t.constraints
                  ~max_views:t.max_views ~parallel:t.par
                  ~metrics:t.obs.Obs.metrics t.catalog.Store.summary
                  ~query:pattern ~views:(active_views t))
          in
          let choice =
            in_span trc "cost-choice" (fun _ -> Cost.choose_with_cost t.env rws)
          in
          let rw_ms = now_ms t -. t0 in
          let c =
            match choice with
            | Some (r, cost) ->
                { rewriting = Some r; cost; candidates = List.length rws;
                  planned_ms = rw_ms }
            | None ->
                { rewriting = None; cost = Float.nan; candidates = 0;
                  planned_ms = rw_ms }
          in
          with_lock t (fun () -> Lru.add t.cache key c);
          Metrics.observe t.m.h_rewrite (rw_ms /. 1000.0);
          (c, false, rw_ms))

(* The answer's schema belongs to the query, not to whichever views the
   rewriting happened to read: a rewritten extent comes back with
   provider-prefixed column names (and possibly duplicates), which the
   XQuery tagging plan — written against the pattern's own attribute
   columns, the names {!Xam.Embed.eval} produces — cannot resolve.
   Rename positionally when the shapes line up; leave nested outputs
   untouched. *)
let normalize_schema pattern (rel : Rel.t) =
  let expected =
    List.concat_map
      (fun (n : Pattern.node) ->
        List.map
          (fun a -> Pattern.attr_col n.Pattern.nid a)
          (Pattern.stored_attrs n))
      (Pattern.return_nodes pattern)
  in
  if
    List.length expected = List.length rel.Rel.schema
    && List.for_all (fun (c : Rel.column) -> c.Rel.ctype = Rel.Atom) rel.Rel.schema
  then { rel with Rel.schema = List.map Rel.atom expected }
  else rel

(* --- Partition pruning per executed plan ----------------------------------
   The rewriting's [scan_paths] says which summary paths each scanned
   view's partitioning node can take; crossing that with the catalog's
   partition directories yields, per module, the partitions this plan
   needs. Scans of unconstrained or undirectoried modules are untouched. *)

let partition_dirs t name =
  match t.lazy_catalog with
  | Some lc ->
      List.find_map
        (fun (lm : Store.lazy_module) ->
          if String.equal lm.Store.lm_name name then
            Option.map
              (fun (lp : Store.lazy_parts) -> (lp.Store.lpt_nid, lp.Store.lpt_paths))
              lm.Store.lm_parts
          else None)
        lc.Store.lc_modules
  | None ->
      List.find_map
        (fun (m : Store.module_) ->
          if String.equal m.Store.name name then
            Option.map
              (fun (p : Store.parts) -> (p.Store.pt_nid, Store.partition_paths p))
              m.Store.parts
          else None)
        t.catalog.Store.modules

let prune_for t (r : Rewrite.rewriting) =
  Store.plan_pruning ~views_used:r.Rewrite.views_used ~parts_of:(partition_dirs t)
    ~scan_paths:r.Rewrite.scan_paths

(* An env serving pruned extents for the overridden modules and falling
   through to storage otherwise — re-wrapped with [env_wrap], so fault
   injection (or any other storage wrapper) sees pruned scans exactly
   like whole-extent ones. Assembly is lazy: a plan the executor never
   gets to scan (budget stop, earlier fault) pages nothing in. *)
let pruned_env t overrides =
  if overrides = [] then t.env
  else begin
    let tbl = Hashtbl.create (List.length overrides) in
    List.iter
      (fun (name, allowed) ->
        let rel =
          lazy
            (match t.lazy_catalog with
            | Some lc ->
                Option.map
                  (fun lm -> Store.pruned_extent_lazy lm ~allowed)
                  (List.find_opt
                     (fun (lm : Store.lazy_module) ->
                       String.equal lm.Store.lm_name name)
                     lc.Store.lc_modules)
            | None ->
                Option.map
                  (fun m -> Store.pruned_extent m ~allowed)
                  (List.find_opt
                     (fun (m : Store.module_) -> String.equal m.Store.name name)
                     t.catalog.Store.modules))
        in
        Hashtbl.replace tbl name rel)
      overrides;
    t.env_wrap (fun name ->
        match Hashtbl.find_opt tbl name with
        | Some r -> (
            match Lazy.force r with Some rel -> Some rel | None -> t.base_env name)
        | None -> t.base_env name)
  end

let execute t (trc : tr) pattern (c : cached) cache_hit rewrite_ms pb ~degraded
    (r : Rewrite.rewriting) =
  in_span trc "execute" (fun trc ->
      let overrides, pscanned, ppruned = prune_for t r in
      let env = pruned_env t overrides in
      let t0 = clk t () in
      let rel, stats =
        Physical.run_instrumented ~clock:(clk t) ?budget:pb
          ~metrics:t.obs.Obs.metrics ~parallel:t.par env r.Rewrite.plan
      in
      let rel = normalize_schema pattern rel in
      let exec_s = clk t () -. t0 in
      Metrics.observe t.m.h_exec exec_s;
      (match trc with
      | Some (trace, sp) ->
          Trace.tag sp "tuples" (string_of_int (Rel.cardinality rel));
          add_op_spans trace sp ~t0 stats
      | None -> ());
      { rel;
        trace = None;
        explain =
          { Explain.query = pattern;
            views_used = r.Rewrite.views_used;
            plan = r.Rewrite.plan;
            cost = c.cost;
            candidates = c.candidates;
            cache_hit;
            from_cache = cache_hit;
            rewrite_ms;
            planned_ms = c.planned_ms;
            exec_ms = exec_s *. 1000.0;
            stats;
            degraded;
            quarantined = quarantined_names t;
            partitions_scanned = pscanned;
            partitions_pruned = ppruned } })

(* --- The guarded, classifying core ---------------------------------------- *)

let effective_budget t override =
  match override with Some b -> b | None -> t.budget

let physical_budget t override =
  let b = effective_budget t override in
  if b.deadline_ms = None && b.max_tuples = None && b.max_steps = None then None
  else
    Some
      (Physical.budget
         ?deadline:
           (Option.map (fun ms -> clk t () +. (ms /. 1000.0)) b.deadline_ms)
         ?max_tuples:b.max_tuples ?max_steps:b.max_steps ())

(* Stage boundaries (re-plan loop, base-document fallback) check the
   deadline explicitly; inside plan execution the guarded cursors check
   it continuously. *)
let check_deadline t pb =
  match pb with
  | Some (b : Physical.budget) -> (
      match b.Physical.deadline with
      | Some d when clk t () > d ->
          raise (Physical.Over_budget { dimension = Physical.Deadline; limit = d })
      | _ -> ())
  | None -> ()

let no_rewriting_msg pattern =
  Format.asprintf "no rewriting over the catalog for:@.%a" Pattern.pp pattern

(* Plan then execute once, classifying internal failures. Module faults
   and budget stops propagate as exceptions for the caller's recovery /
   reporting loop. *)
let plan_and_execute t (trc : tr) pattern pb ~degraded =
  let planned =
    match plan_for t trc pattern with
    | planned -> Ok planned
    | exception ((Store.Module_fault _ | Physical.Over_budget _) as e) -> raise e
    | exception e -> Error (Xerror.Plan_error (Printexc.to_string e))
  in
  match planned with
  | Error e -> Error e
  | Ok (c, hit, rewrite_ms) -> (
      match c.rewriting with
      | None -> Error (Xerror.No_rewriting (no_rewriting_msg pattern))
      | Some r -> (
          match execute t trc pattern c hit rewrite_ms pb ~degraded r with
          | res -> Ok res
          | exception ((Store.Module_fault _ | Physical.Over_budget _) as e) ->
              raise e
          | exception Eval.Unknown_relation name ->
              Error
                (Xerror.Storage_fault
                   { module_name = name; reason = "unknown relation in executed plan" })
          | exception e -> Error (Xerror.Exec_error (Printexc.to_string e))))

(* When a fault destroyed the last rewriting, a base document (if the
   engine holds one) still answers the pattern — degraded, but correct. *)
let degraded_fallback t (trc : tr) pattern err =
  match t.doc with
  | None -> err
  | Some doc -> (
      match in_span trc "fallback" (fun _ -> Xam.Embed.eval doc pattern) with
      | exception e -> Error (Xerror.Exec_error (Printexc.to_string e))
      | rel ->
          Metrics.incr t.m.m_fallbacks;
          let card = Rel.cardinality rel in
          Ok
            { rel;
              trace = None;
              explain =
                { Explain.query = pattern;
                  views_used = [];
                  plan = Logical.Table rel;
                  cost = Float.nan;
                  candidates = 0;
                  cache_hit = false;
                  from_cache = false;
                  rewrite_ms = 0.0;
                  planned_ms = 0.0;
                  exec_ms = 0.0;
                  stats =
                    { Physical.op = "fallback(embed)"; tuples = card; nexts = 0;
                      elapsed = 0.0; children = [] };
                  degraded = true;
                  quarantined = quarantined_names t;
                  partitions_scanned = 0;
                  partitions_pruned = 0 } })

(* Answer one pattern with fault recovery: on a module fault, quarantine
   the module (killing cached plans) and re-plan against the survivors;
   when no rewriting survives, fall back to the base document. Bounded by
   the module count — every retry quarantines a module never seen
   faulty before. *)
let rec attempt t (trc : tr) pattern pb ~faults_seen =
  check_deadline t pb;
  if faults_seen > List.length t.catalog.Store.modules then
    Error
      (Xerror.Storage_fault
         { module_name = "<catalog>"; reason = "fault recovery did not converge" })
  else
    match plan_and_execute t trc pattern pb ~degraded:(faults_seen > 0) with
    | Ok _ as ok ->
        if faults_seen > 0 then begin
          Metrics.incr t.m.m_degraded;
          tr_tag trc "degraded" "true"
        end;
        ok
    | Error (Xerror.No_rewriting _) as err
      when faults_seen > 0 || not (quarantine_empty t) -> (
        (* The rewriting was lost to a fault — in this call or an earlier
           one that quarantined a module. Degrade rather than refuse. *)
        match degraded_fallback t trc pattern err with
        | Ok _ as ok ->
            Metrics.incr t.m.m_degraded;
            tr_tag trc "degraded" "true";
            ok
        | Error _ as e -> e)
    | Error _ as err -> err
    | exception Store.Module_fault { name; reason } ->
        tr_event trc "quarantine" [ ("module", name); ("reason", reason) ];
        quarantine t name reason;
        attempt t trc pattern pb ~faults_seen:(faults_seen + 1)

(* The cursor-level deadline carries the absolute wall-clock instant it
   tripped on; report the configured relative milliseconds instead. *)
let budget_error t override (dimension : Physical.budget_dimension) limit =
  let limit =
    match (dimension, (effective_budget t override).deadline_ms) with
    | Physical.Deadline, Some ms -> ms
    | _ -> limit
  in
  Xerror.Budget_exceeded { dimension = Xerror.of_dimension dimension; limit }

let query_r ?budget t pattern =
  Metrics.incr t.m.m_queries;
  let trc = start_trace t "query" in
  tr_tag trc "query" (Format.asprintf "%a" Pattern.pp pattern);
  let t0 = clk t () in
  let pb = physical_budget t budget in
  let res =
    match attempt t trc pattern pb ~faults_seen:0 with
    | res -> res
    | exception Physical.Over_budget { dimension; limit } ->
        Error (budget_error t budget dimension limit)
    | exception Xerror.Error e -> Error e
    | exception e -> Error (Xerror.Exec_error (Printexc.to_string e))
  in
  Metrics.observe t.m.h_query (clk t () -. t0);
  let err =
    match res with
    | Ok _ -> None
    | Error e ->
        Metrics.incr t.m.m_errors;
        Some (Xerror.to_string e)
  in
  finish_trace t trc ~err;
  match res with
  | Ok r -> Ok { r with trace = Option.map fst trc }
  | Error _ as e -> e

(* --- Inter-query parallelism ----------------------------------------------- *)

(* Run independent items concurrently on a transient pool of [domains]
   domains. Each query keeps its own budget, fault recovery and degraded
   fallback; the counters are atomics and the plan cache / quarantine
   table are behind [t.lock], so the accounting matches the sequential
   run exactly. The result list is in input order regardless of
   completion order. *)
let batch_over ?(domains = 1) t run items =
  if domains <= 1 || List.length items <= 1 then List.map run items
  else begin
    (* The base document memoizes its label index on first use; build it
       before fanning out so no two domains race to install it. *)
    (match t.doc with
    | Some d -> ignore (Xdm.Doc.nodes_with_label d "#warm")
    | None -> ());
    let pool = Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.map_list pool run items)
  end

let query_batch ?budget ?domains t patterns =
  batch_over ?domains t (query_r ?budget t) patterns

(* --- XQuery front door ----------------------------------------------------- *)

type xquery_result = {
  output : string;
  pattern_explains : Explain.t option list;
      (** per extracted pattern; [None] when the pattern was materialized
          from the base document rather than rewritten over views *)
  xquery_stats : Physical.op_stats;  (** the outer tagging plan *)
  xquery_trace : Trace.t option;
}

(* Pattern extent for the XQuery front door: through the planner (with
   fault recovery) when the views can answer it, falling back to direct
   embedding over the base document only for the ordinary
   no-rewriting case — a budget stop or an unrecoverable fault must not
   silently turn into a full-document scan. *)
let extent_for t (trc : tr) pat pb =
  Metrics.incr t.m.m_queries;
  let t0 = clk t () in
  Fun.protect ~finally:(fun () -> Metrics.observe t.m.h_query (clk t () -. t0))
  @@ fun () ->
  match attempt t trc pat pb ~faults_seen:0 with
  | Ok r -> Ok (r.rel, Some r.explain)
  | Error (Xerror.No_rewriting _) -> (
      match t.doc with
      | Some doc ->
          check_deadline t pb;
          Metrics.incr t.m.m_fallbacks;
          Ok (in_span trc "fallback" (fun _ -> Xam.Embed.eval doc pat), None)
      | None ->
          Error
            (Xerror.No_rewriting
               (Format.asprintf "no rewriting and no base document for:@.%a"
                  Pattern.pp pat)))
  | Error e -> Error e

(* The body shared by the AST and string front doors, running inside an
   already-open trace context so [query_string_r] can hang the parse span
   on the same root. *)
let query_ast_in ?budget t (trc : tr) ast =
  match in_span trc "extract" (fun _ -> Xquery.Extract.extract ast) with
  | exception Xquery.Extract.Unsupported m -> Error (Xerror.Extract_error m)
  | exception e -> Error (Xerror.Extract_error (Printexc.to_string e))
  | e -> (
      let pb = physical_budget t budget in
      let run () =
        let bound =
          List.mapi
            (fun i pat ->
              in_span trc
                (Printf.sprintf "pattern-%d" i)
                (fun trc ->
                  match extent_for t trc pat pb with
                  | Ok (rel, explain) ->
                      (Xquery.Translate.scan_name i, rel, explain)
                  | Error err -> raise (Xerror.Error err)))
            e.Xquery.Extract.patterns
        in
        let env = Eval.env_of_list (List.map (fun (n, r, _) -> (n, r)) bound) in
        let rel, stats =
          in_span trc "execute" (fun trc ->
              let t0 = clk t () in
              let rel, stats =
                Physical.run_instrumented ~clock:(clk t) ?budget:pb
                  ~metrics:t.obs.Obs.metrics ~parallel:t.par env
                  (Xquery.Translate.plan e)
              in
              Metrics.observe t.m.h_exec (clk t () -. t0);
              (match trc with
              | Some (trace, sp) -> add_op_spans trace sp ~t0 stats
              | None -> ());
              (rel, stats))
        in
        let buf = Buffer.create 256 in
        List.iter
          (fun tu ->
            match tu.(0) with
            | Rel.A (Value.Str s) -> Buffer.add_string buf s
            | Rel.A v -> Buffer.add_string buf (Value.to_display v)
            | Rel.N _ -> ())
          rel.Rel.tuples;
        { output = Buffer.contents buf;
          pattern_explains = List.map (fun (_, _, ex) -> ex) bound;
          xquery_stats = stats;
          xquery_trace = None }
      in
      match run () with
      | r -> Ok r
      | exception Xerror.Error err -> Error err
      | exception Physical.Over_budget { dimension; limit } ->
          Error (budget_error t budget dimension limit)
      | exception Store.Module_fault { name; reason } ->
          Error (Xerror.Storage_fault { module_name = name; reason })
      | exception err -> Error (Xerror.Exec_error (Printexc.to_string err)))

let close_xquery t (trc : tr) res =
  let err =
    match res with
    | Ok _ -> None
    | Error e ->
        Metrics.incr t.m.m_errors;
        Some (Xerror.to_string e)
  in
  finish_trace t trc ~err;
  match res with
  | Ok r -> Ok { r with xquery_trace = Option.map fst trc }
  | Error _ as e -> e

let query_ast_r ?budget t ast =
  let trc = start_trace t "xquery" in
  close_xquery t trc (query_ast_in ?budget t trc ast)

(* Parse + answer inside an ambient trace context, without owning the
   trace lifecycle — shared by [query_string_r] (which opens and records
   its own trace) and the serving layer's span-joined batch (where the
   server owns the request's root trace). *)
let query_string_in ?budget t (trc : tr) src =
  match in_span trc "parse" (fun _ -> Xquery.Parse.query src) with
  | ast -> query_ast_in ?budget t trc ast
  | exception Xquery.Parse.Syntax_error { pos; msg } ->
      Error (Xerror.Parse_error (Printf.sprintf "char %d: %s" pos msg))
  | exception e -> Error (Xerror.Parse_error (Printexc.to_string e))

let query_string_r ?budget t src =
  let trc = start_trace t "xquery" in
  close_xquery t trc (query_string_in ?budget t trc src)

(* The serving layer's execution path. An item carrying a caller span
   context runs inside an "execute" child of that span, so the engine's
   own parse/extract/pattern-i/execute spans hang off the request's root
   trace. The caller owns such a trace — the engine neither finishes nor
   slowlog-records it here (that would double-record), and
   [xquery_trace] stays [None] on such items. A trace is only ever
   touched by the one domain running its item. *)
let query_string_batch ?domains t items =
  let run (src, budget, span) =
    match (span : tr) with
    | None -> query_string_r ?budget t src
    | Some _ ->
        in_span span "execute" (fun trc ->
            let res = query_string_in ?budget t trc src in
            (match res with
            | Error e ->
                Metrics.incr t.m.m_errors;
                tr_tag trc "error" (Xerror.to_string e)
            | Ok _ -> ());
            res)
  in
  batch_over ?domains t run items

let pp_counters ppf c =
  Format.fprintf ppf
    "queries %d, plan cache %d hit%s / %d miss%s, rewrites %d, fallbacks %d, \
     faults %d, degraded %d, quarantined %d"
    c.queries c.hits
    (if c.hits = 1 then "" else "s")
    c.misses
    (if c.misses = 1 then "" else "es")
    c.rewrites c.fallbacks c.faults c.degraded c.quarantines
