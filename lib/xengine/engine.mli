(** The unified query engine: one entry point running
    extract → rewrite → cost-based choice → streaming physical execution
    over a XAM catalog, with an LRU plan cache and per-operator
    instrumentation.

    The engine's only knowledge of the storage is the catalog's view
    definitions — swapping catalogs swaps the physical layout, never the
    engine (§2.1.4's physical data independence, packaged the way the
    ULoad prototype packages it). Repeated queries hit the plan cache and
    skip rewriting and containment entirely — the dominant cost in the
    E-series experiments — keyed on {!Xam.Canonical.cache_key} and the
    catalog generation, so catalog changes invalidate stale plans.

    {b Robustness.} Every entry point past construction, bar
    {!add_module}, returns a [result] ([query_r], [query_string_r],
    [apply_batch_r], …) and {e never raises}: all failures come back
    classified as {!Xerror.t}; a caller that wants an exception unwraps
    with {!Xerror.get_exn}. Queries run under an optional resource
    {!budget} (wall-clock deadline, tuple and cursor-step caps) enforced
    inside the instrumented cursors. When a storage module
    faults mid-query, the engine {e quarantines} it — bumping the plan
    cache generation so no stale plan can touch it — and transparently
    re-plans against the surviving views, falling back to the base
    document when none survive; such answers are flagged
    [degraded] in their {!Explain.t}. *)

type counters = {
  queries : int;  (** pattern queries, incl. XQuery pattern probes *)
  hits : int;  (** plan-cache hits (incl. XQuery pattern probes) *)
  misses : int;  (** plan-cache misses *)
  rewrites : int;  (** rewriter invocations (= misses) *)
  fallbacks : int;
      (** patterns materialized from the base document (XQuery probes the
          views cannot answer, plus degraded post-fault fallbacks) *)
  faults : int;  (** storage-module faults absorbed mid-query *)
  degraded : int;
      (** queries answered after at least one absorbed fault *)
  quarantines : int;  (** distinct modules ever quarantined *)
}
(** A point-in-time copy of the engine's counters in its
    {!Xobs.Obs.t} registry (atomics, so {!query_batch} keeps exact
    accounting across domains). Engines created over one shared
    [Obs.t] share these counts. Re-fetch after further queries. *)

type budget = {
  deadline_ms : float option;
      (** wall-clock allowance for the whole call, in milliseconds *)
  max_tuples : int option;  (** cap on tuples drained from the root *)
  max_steps : int option;  (** cap on cursor [next()] steps, all operators *)
}
(** Per-query resource guards. A [None] field is unchecked. The engine
    converts [deadline_ms] to an absolute deadline when the query
    starts; it covers planning, fault re-planning and execution. *)

val unlimited : budget
(** All fields [None] — the default. *)

type t

type result = {
  rel : Xalgebra.Rel.t;
  explain : Explain.t;
  trace : Xobs.Trace.t option;
      (** the query's span tree, when the engine's {!Xobs.Obs.t} has
          tracing on; [None] otherwise *)
}

val create :
  ?cache_capacity:int ->
  ?constraints:bool ->
  ?max_views:int ->
  ?budget:budget ->
  ?env_wrap:(Xalgebra.Eval.env -> Xalgebra.Eval.env) ->
  ?pool:Pool.t ->
  ?obs:Xobs.Obs.t ->
  ?doc:Xdm.Doc.t ->
  Xstorage.Store.catalog ->
  t
(** [cache_capacity] (default 128) bounds the plan cache; [constraints]
    (default [true]) and [max_views] (default 3) are passed to the
    rewriter. [doc] enables the base-document fallback of the XQuery
    front door for patterns no view can answer. [budget] (default
    {!unlimited}) guards every query unless overridden per call.
    [env_wrap] intercepts the storage lookup surface — e.g.
    {!Xstorage.Faultstore.wrap} for fault injection — and is re-applied
    on every catalog swap. [pool] enables {e intra}-query parallelism:
    the rewriter's generate-and-test loop and the physical structural
    joins fan out over the pool's domains (answers are identical to the
    sequential ones — see {!Xalgebra.Par}); without it every query runs
    sequentially. [obs] is the engine's observability context (clock,
    metrics registry, slow-query log, tracing switch — see {!Xobs.Obs});
    by default each engine gets a private context with a monotonic clock
    and tracing off. Every layer records into its registry: engine
    counters and latency histograms, plan-cache gauge and evictions,
    rewriter and physical-operator totals. The catalog's modules, in
    order, become the engine's declared module list (see the write path
    below). The catalog is validated ({!Xstorage.Store.validate}); raises
    [Xerror.Error (Catalog_invalid _)] if a module's pattern references
    paths absent from the summary. *)

val of_doc :
  ?cache_capacity:int ->
  ?constraints:bool ->
  ?max_views:int ->
  ?budget:budget ->
  ?env_wrap:(Xalgebra.Eval.env -> Xalgebra.Eval.env) ->
  ?pool:Pool.t ->
  ?obs:Xobs.Obs.t ->
  Xdm.Doc.t ->
  (string * Xam.Pattern.t) list ->
  t
(** Materialize the specs into a catalog ({!Xstorage.Store.catalog_of})
    and keep the document as the XQuery fallback. *)

val create_lazy :
  ?cache_capacity:int ->
  ?constraints:bool ->
  ?max_views:int ->
  ?budget:budget ->
  ?env_wrap:(Xalgebra.Eval.env -> Xalgebra.Eval.env) ->
  ?pool:Pool.t ->
  ?obs:Xobs.Obs.t ->
  ?doc:Xdm.Doc.t ->
  Xstorage.Store.lazy_catalog ->
  t
(** Like {!create} over a lazy-extent catalog: the engine keeps the
    catalog's {!Xstorage.Store.skeleton} resident (summary + xams, which
    is all planning reads) and scans extents through
    {!Xstorage.Store.lazy_env}, so they page in from the backing store on
    first touch. Validation is structural and forces nothing. A thunk
    that raises {!Xstorage.Store.Module_fault} — e.g. a snapshot extent
    whose checksum fails on page-in — is absorbed by the ordinary
    quarantine + re-plan machinery. *)

(** {1 Persistent snapshots}

    The engine state on disk ({!Xpersist.Snapshot}): document, summary,
    catalog, extents — written crash-safely, verified on the way back
    in. *)

val of_snapshot_r :
  ?cache_capacity:int ->
  ?constraints:bool ->
  ?max_views:int ->
  ?budget:budget ->
  ?env_wrap:(Xalgebra.Eval.env -> Xalgebra.Eval.env) ->
  ?pool:Pool.t ->
  ?obs:Xobs.Obs.t ->
  ?lazy_extents:bool ->
  ?extent_cache:int ->
  ?label:string ->
  string ->
  (t, Xerror.t) Stdlib.result
(** Open an engine over a snapshot file. With [lazy_extents] (default
    [false]) extents — and, for path-partitioned modules, individual
    partitions — page in on demand through an LRU buffer cache with an
    [extent_cache]-byte budget ({!create_lazy},
    {!Xpersist.Snapshot.Reader.open_}); otherwise the whole snapshot
    loads eagerly.
    [label] names the owner of this engine (the serving layer passes
    the tenant name): a lazy reader then counts its page-ins and
    partition faults into per-tenant labeled metric families.
    The snapshot's document becomes the engine's fallback document, its
    LSN the engine's, and its dormant modules rejoin the declared list
    (quarantined, as they were when saved).
    [Error (Snapshot_error _)] when the file fails verification,
    [Error (Catalog_invalid _)] when its catalog does not validate. *)

val save_snapshot_r : t -> string -> (int, Xerror.t) Stdlib.result
(** Snapshot the engine's current state (fallback document, summary,
    catalog with extents, LSN, dormant modules) to a file, crash-safely:
    temp file, fsync, atomic rename. Returns the bytes written. On a
    lazily-opened engine ({!of_snapshot_r} with [lazy_extents],
    {!create_lazy}) the full catalog is materialized first — every
    extent pages in through the backing reader — so the snapshot always
    carries the real extents, never the resident skeleton.
    [Error (Snapshot_error _)] on failure, [Error (Storage_fault _)] when
    paging an extent in faults. *)

val load_snapshot_r : t -> string -> (unit, Xerror.t) Stdlib.result
(** Hot-swap the engine's catalog from a snapshot file: the snapshot is
    decoded and verified in full, then installed through the
    {!set_catalog_r} path (generation bump, plan-cache invalidation,
    quarantine reset), its dormant modules included. On any failure —
    verification or validation — the running catalog stays untouched.
    The snapshot's document is ignored; the fallback document is fixed
    at engine creation. *)

(** {1 Document mutations and the write-ahead log}

    The crash-safe write path. Every mutation — an apply or a replayed
    WAL record — goes through one write core:

    + {b prepare} — the mutated document, its rebuilt path summary and
      the maintained catalog are computed off to the side; a failure here
      changes nothing;
    + {b log} — when a WAL is attached ({!attach_wal_r}), the operations
      are appended as CRC-framed records in one group-committed, fsync'd
      batch before anything else happens ([Error] leaves engine state
      untouched);
    + {b install} — the new world is swapped in (plan-cache generation
      bump included) and the engine's LSN advances.

    Recovery is [snapshot + replay]: open the engine from its latest
    snapshot (which carries the LSN it covers), then {!attach_wal_r} —
    the log's tail is repaired if torn, records at or below the snapshot
    LSN are skipped (idempotence), the rest run through the write core
    one record at a time, unlogged. Mid-log corruption and LSN gaps fail
    closed with [Wal_error]. {!checkpoint_r} bounds replay work: fresh
    snapshot first, then covered segments truncate.

    Maintenance is wholesale-with-splicing over the {e declared} module
    list — the catalog's modules in the order {!create},
    {!set_catalog_r} or {!add_module} gave them. Structural edits shift
    pre-order ranks so extents re-materialize, but partitions whose
    payload is unchanged share the previous physical record
    ({!Xstorage.Store.spliced}) — the per-apply physical change-set is
    the touched partitions, reported in {!apply_report}. Declared
    modules whose XAM stops validating against the new summary are
    quarantined as dormant and retried on every later apply, rejoining
    at their declared position. The catalog after a write is thus a
    function of the declared list and the document alone: a batch and
    the record-by-record replay of its WAL land on the same catalog, and
    snapshots carry the dormant modules so recovery keeps them. *)

type mutation = Xwal.Wal.op =
  | Insert_subtree of { parent : int; before : int option; xml : string }
      (** graft the parsed [xml] under element handle [parent], before
          child handle [before] when given *)
  | Delete_subtree of { node : int }  (** remove the subtree at [node] *)
  | Update_value of { node : int; value : string }
      (** overwrite a text or attribute node's value *)

type apply_report = {
  ap_lsn : int;  (** the LSN this mutation landed at *)
  ap_parts_kept : int;  (** partitions sharing their previous payload *)
  ap_parts_rebuilt : int;  (** partitions the edit actually touched *)
  ap_paths_added : string list;  (** summary paths the edit created *)
  ap_paths_removed : string list;  (** summary paths the edit emptied *)
  ap_dropped : (string * string) list;
      (** modules quarantined by this apply (name, reason) *)
  ap_resurrected : string list;
      (** dormant modules that validate again and rejoined the catalog *)
}

val apply_batch_r : t -> mutation list -> (apply_report, Xerror.t) Stdlib.result
(** Apply N mutations as one write-path round: one apply-lock
    acquisition, one maintenance/splice pass over the final document,
    one group-committed WAL write covering all N records
    ({!Xwal.Wal.Writer.append_batch} — a single acknowledged fsync), one
    install. Op [k+1]'s handles resolve against the document after op
    [k], and the WAL holds N ordinary records, so recovery replays them
    one-by-one to the same state. All-or-nothing: any invalid op
    ([Error (Update_invalid _)] — bad handle, wrong node kind,
    unparsable XML) rejects the whole batch with state unchanged, as
    does [Error (Wal_error _)] when the attached WAL could not make it
    durable. The report carries the {e final} LSN and the single
    maintenance pass's counts. An empty list is a no-op [Ok].
    Serialized against concurrent applies, replays and checkpoint
    installs; concurrent readers keep answering against the previous
    state until install. *)

val apply_r : t -> mutation -> (apply_report, Xerror.t) Stdlib.result
(** [apply_batch_r t [op]]. *)

val attach_wal_r :
  ?fs:Xwal.Fsio.ops ->
  ?sync:bool ->
  ?segment_bytes:int ->
  ?commit_window:float ->
  ?max_batch:int ->
  t ->
  string ->
  (int, Xerror.t) Stdlib.result
(** Attach (and recover from) the WAL directory: read it back, repair a
    torn tail, replay every record above the engine's LSN, then open the
    writer so subsequent applies append. Returns how many records were
    replayed. Fails closed with [Wal_error] on mid-log corruption, an LSN
    gap above the snapshot base, or a record that no longer applies.
    [fs] injects a filesystem (crash harness);
    [sync]/[segment_bytes]/[commit_window]/[max_batch] as in
    {!Xwal.Wal.Writer.open_}. *)

val detach_wal : t -> unit
(** Close the attached writer, if any. Applies keep working, unlogged. *)

val checkpoint_r :
  ?before_install:(unit -> unit) ->
  t ->
  string ->
  (int * int, Xerror.t) Stdlib.result
(** [checkpoint_r t path] snapshots the current state to [path] and then
    truncates the WAL segments the snapshot covers, without stalling
    writers: a consistent (document, catalog, LSN, dormant modules)
    image is captured under the brief state lock and written with
    {e no} engine lock held — concurrent applies proceed throughout —
    then the apply lock is taken only for the install/truncate point
    (advance [snapshot_lsn] to the captured LSN unless a newer
    checkpoint already passed it, truncate covered segments). Applies
    that land during the write are simply not covered by this checkpoint
    and stay in the WAL. Returns [(snapshot bytes, segments removed)].
    Snapshot-first ordering: a crash between the two steps only leaves
    segments whose records replay skips. Concurrent checkpoints to the
    same path must be serialized by the caller. [before_install] is a
    test seam run between the snapshot write and the install point. *)

val lsn : t -> int
(** Records applied so far — the WAL position of the engine's state. *)

val snapshot_lsn : t -> int
(** The LSN covered by the most recent snapshot save (or the snapshot
    the engine was opened from); [lsn t - snapshot_lsn t] is the replay
    debt a crash right now would incur. *)

val wal_dir : t -> string option
(** The attached WAL directory, if any. *)

val document : t -> Xdm.Doc.t option
(** The engine's current document (mutations rebind it). *)

val dormant_modules : t -> (string * string) list
(** Declared modules maintenance dropped (name, reason), in declared
    order, still retried for resurrection on every apply. *)

val partition_faults : t -> (string * int * string) list
(** Per-partition page-in faults [(module, partition index, reason)]
    recorded by the backing snapshot reader — non-empty only for engines
    opened with [lazy_extents] whose snapshot pages turned out corrupt.
    Mirrored by the [persist_partition_faults_total] metric. *)

(** {1 Pattern queries} *)

val query_r :
  ?budget:budget -> t -> Xam.Pattern.t -> (result, Xerror.t) Stdlib.result
(** Answer a pattern query from the catalog: plan (cache or
    rewrite + {!Xstorage.Cost.choose}) then execute the physical plan,
    cursors piped end-to-end, every operator instrumented and charged
    against the budget ([?budget] overrides the engine default for this
    call). Module faults are absorbed: the faulty module is quarantined
    and the query re-planned over the surviving views (base-document
    fallback if none survive) — see [Explain.degraded]. Never raises;
    every failure is classified as an {!Xerror.t}. *)

val query_batch :
  ?budget:budget ->
  ?domains:int ->
  t ->
  Xam.Pattern.t list ->
  (result, Xerror.t) Stdlib.result list
(** Answer independent patterns concurrently ({e inter}-query
    parallelism) on a transient pool of [domains] domains (default 1 =
    plain sequential [List.map query_r]). Results come back in input
    order and each is exactly what {!query_r} would return: budgets,
    fault quarantine and degraded fallback all apply per query, and the
    engine counters account every query exactly (the counters are
    atomics; the plan cache and quarantine table are mutex-guarded). *)

(** {1 XQuery front door} *)

type xquery_result = {
  output : string;  (** the serialized XML result *)
  pattern_explains : Explain.t option list;
      (** one per extracted pattern; [None] when the pattern was
          materialized from the base document rather than rewritten *)
  xquery_stats : Xalgebra.Physical.op_stats;
      (** instrumentation of the outer tagging plan *)
  xquery_trace : Xobs.Trace.t option;
      (** span tree covering parse → extract → per-pattern planning →
          tagging-plan execution, when tracing is on *)
}

val query_string_r :
  ?budget:budget -> t -> string -> (xquery_result, Xerror.t) Stdlib.result
(** Parse ({!Xquery.Parse}), extract the maximal patterns
    ({!Xquery.Extract}), answer each pattern through the planner (plan
    cache, fault recovery and budget included), then run the tagging plan
    over the pattern extents. Never raises: syntax errors come back as
    [Parse_error], unsupported XQuery as [Extract_error], and so on. *)

val query_ast_r :
  ?budget:budget -> t -> Xquery.Ast.expr -> (xquery_result, Xerror.t) Stdlib.result

val query_string_batch :
  ?domains:int ->
  t ->
  (string * budget option * (Xobs.Trace.t * Xobs.Trace.span) option) list ->
  (xquery_result, Xerror.t) Stdlib.result list
(** Answer independent XQuery strings concurrently on a transient pool of
    [domains] domains — {!query_batch} for the XQuery front door, and the
    execution path of the serving layer ({!Xserve.Server}). Each item
    carries its own optional budget ([None] uses the engine default),
    because a server batch mixes requests admitted at different times
    with different remaining deadlines, and an optional parent span for
    a caller that owns request-scoped traces: an item carrying
    [Some (trace, parent)] runs inside a fresh ["execute"] child span of
    [parent], with the engine's own parse → extract → pattern → execute
    span tree hanging under it; the engine does {e not} finish or
    slowlog-record such a trace (the caller owns its lifecycle) and the
    item's [xquery_trace] stays [None]. A trace must not be shared
    between two items of the same batch — each is touched only by the
    one domain running its item. Results come back in input order; an
    item without a span gets exactly what {!query_string_r} returns. *)

(** {1 Catalog management} *)

val catalog : t -> Xstorage.Store.catalog
(** The resident catalog. For a lazily-opened engine this is the
    {!Xstorage.Store.skeleton} — summary and xams with {e empty} extents;
    the real extents live behind the backing reader and are scanned
    through the engine's environment. *)

val summary : t -> Xsummary.Summary.t
val env : t -> Xalgebra.Eval.env

val set_catalog_r :
  t -> Xstorage.Store.catalog -> (unit, Xerror.t) Stdlib.result
(** Swap the catalog and bump the generation: cached plans for the old
    catalog can no longer be returned (the cache key embeds the
    generation) and age out of the LRU. The catalog's modules become the
    declared list, with none dormant. The quarantine set is cleared — a
    new catalog is a new storage world, and a lazy engine becomes an
    ordinary resident one over the installed catalog. The catalog is
    validated first: [Error (Catalog_invalid _)] on modules whose
    patterns reference paths absent from the summary, and the engine
    keeps its current catalog. *)

val add_module : t -> Xstorage.Store.module_ -> unit
(** Append one module (e.g. a freshly built index) to the catalog and
    the declared list — a catalog swap that keeps the dormant modules.
    On a lazy engine the current catalog is materialized first (all
    extents page in), so the swapped-in catalog scans real data, not the
    skeleton. Raises [Xerror.Error] when paging faults or the module
    does not validate. *)

(** {1 Observability} *)

val obs : t -> Xobs.Obs.t
(** The engine's observability context. Toggle tracing with
    [Xobs.Obs.set_tracing]; export with {!Xobs.Export.prometheus} /
    {!Xobs.Export.trace_json}; read the slow-query log from its
    [slowlog]. *)

val counters : t -> counters
val cache_length : t -> int

val quarantined : t -> (string * string) list
(** The quarantine set: modules that faulted mid-query, with the fault
    reason, sorted by name. Quarantined modules are excluded from
    rewriting until the next {!set_catalog_r}. *)

val pp_counters : Format.formatter -> counters -> unit
