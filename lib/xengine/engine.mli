(** The unified query engine: one entry point running
    extract → rewrite → cost-based choice → streaming physical execution
    over a XAM catalog, with an LRU plan cache and per-operator
    instrumentation: every executed operator counts its tuples and
    [next()] calls; operators are timed only on traced runs
    ([Obs.tracing]), where their times feed the trace's [op:] spans and
    {!Explain}, and an untraced run reads no clock per cursor step.

    The engine's only knowledge of the storage is the catalog's view
    definitions — swapping catalogs swaps the physical layout, never the
    engine (§2.1.4's physical data independence, packaged the way the
    ULoad prototype packages it). Repeated queries hit the plan cache and
    skip rewriting and containment entirely — the dominant cost in the
    E-series experiments — keyed on {!Xam.Canonical.cache_key} and the
    {e planning epoch}. Whether a rewriting is sound depends only on the
    enhanced summary's shape (its paths and their 1/+/* edges,
    {!Xsummary.Summary.same_shape}) and on the view definitions, never on
    the data; so the epoch moves when one of those planning inputs
    does — {!set_catalog_r}, {!add_module}, {!load_snapshot_r}, a
    quarantine, or an apply that changes the summary's shape or drops or
    resurrects a module — and a plan outlives every other apply. A plan
    recalled across such an apply keeps the cost choice it made against
    the extent sizes of its day: that can cost time, never an answer,
    because plans scan views by name and partition pruning is decided
    per execution. Nothing is re-costed.

    {b Robustness.} Every entry point past construction, bar
    {!add_module}, returns a [result] ([query_r], [query_string_r],
    [apply_batch_r], …) and {e never raises}: all failures come back
    classified as {!Xerror.t}; a caller that wants an exception unwraps
    with {!Xerror.get_exn}. Queries run under an optional resource
    {!budget} (wall-clock deadline, tuple and cursor-step caps) enforced
    inside the instrumented cursors. When a storage module
    faults mid-query, the engine {e quarantines} it — bumping the
    planning epoch so no stale plan can touch it — and transparently
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
  epoch_bumps : int;
      (** planning-epoch moves, each of which strands every cached plan *)
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
  ?max_views:int ->
  ?budget:budget ->
  ?env_wrap:(Xalgebra.Eval.env -> Xalgebra.Eval.env) ->
  ?obs:Xobs.Obs.t ->
  ?doc:Xdm.Doc.t ->
  Xstorage.Store.catalog ->
  t
(** The plan cache holds 128 plans; the rewriter runs with the
    strong-edge chase on and [max_views] (default 3) views per plan.
    [doc] enables the base-document fallback of the XQuery
    front door for patterns no view can answer. [budget] (default
    {!unlimited}) guards every query unless overridden per call.
    [env_wrap] intercepts the storage lookup surface — e.g.
    {!Xstorage.Faultstore.wrap} for fault injection — and is re-applied
    on every catalog swap. Each query runs sequentially on the calling
    domain; {!query_batch} spreads whole queries over domains.
    [obs] is the engine's observability context (clock,
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
  ?max_views:int ->
  ?budget:budget ->
  ?env_wrap:(Xalgebra.Eval.env -> Xalgebra.Eval.env) ->
  ?obs:Xobs.Obs.t ->
  Xdm.Doc.t ->
  (string * Xam.Pattern.t) list ->
  t
(** Materialize the specs into a catalog ({!Xstorage.Store.catalog_of})
    and keep the document as the XQuery fallback. *)

(** {1 Persistent snapshots}

    The engine state on disk ({!Xpersist.Snapshot}): document, summary,
    catalog, extents — written crash-safely, verified on the way back
    in. *)

val of_snapshot_r :
  ?max_views:int ->
  ?budget:budget ->
  ?env_wrap:(Xalgebra.Eval.env -> Xalgebra.Eval.env) ->
  ?obs:Xobs.Obs.t ->
  string ->
  (t, Xerror.t) Stdlib.result
(** Open an engine over a snapshot file: the whole snapshot is verified
    and decoded ({!Xpersist.Snapshot.read}), extents included, so the
    engine's catalog is resident from the start. The snapshot's document becomes the engine's fallback document, its
    LSN the engine's, and its dormant modules rejoin the declared list
    (quarantined, as they were when saved).
    [Error (Snapshot_error _)] when the file fails verification,
    [Error (Catalog_invalid _)] when its catalog does not validate. *)

val save_snapshot_r : t -> string -> (int, Xerror.t) Stdlib.result
(** Snapshot the engine's current state (fallback document, summary,
    catalog with extents, LSN, dormant modules) to a file, crash-safely:
    temp file, fsync, atomic rename. Returns the bytes written.
    [Error (Snapshot_error _)] on failure. *)

val load_snapshot_r : t -> string -> (unit, Xerror.t) Stdlib.result
(** Hot-swap the engine's catalog from a snapshot file: the snapshot is
    decoded and verified in full, then installed through the
    {!set_catalog_r} path (epoch bump, plan-cache invalidation,
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
    + {b install} — the new world is swapped in and the engine's LSN
      advances; the planning epoch moves only when the summary's shape
      changed or a module was dropped or resurrected, so cached plans
      survive every other apply.

    Recovery is [snapshot + replay]: open the engine from its latest
    snapshot (which carries the LSN it covers), then {!attach_wal_r} —
    the log's tail is repaired if torn, records at or below the snapshot
    LSN are skipped (idempotence), and the rest go through the write
    core as one unlogged round: every record's operation folds over the
    document, the catalog is maintained once against the result, and
    the engine installs at the last record's LSN. Recovery thus costs one
    snapshot decode plus one maintenance pass, however long the tail.
    Mid-log corruption and LSN gaps fail closed with [Wal_error].
    {!checkpoint_r} bounds replay work: fresh snapshot first, then
    covered segments truncate.

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
    function of the declared list and the document alone. That is what
    lets recovery maintain once: an engine that maintained after every
    record and one that maintains after the last land on the same
    catalog, a module dropped by one record and resurrected by a later
    one included; and snapshots carry the dormant modules so recovery
    keeps them. *)

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
    [k], and the WAL holds N ordinary records, so recovery folds them
    over the document to the same state. All-or-nothing: any invalid op
    ([Error (Update_invalid _)] — bad handle, wrong node kind,
    unparsable XML; the message names the first op in order that does
    not apply) rejects the whole batch with state unchanged, as
    does [Error (Wal_error _)] when the attached WAL could not make it
    durable. The report carries the {e final} LSN and the single
    maintenance pass's counts. An empty list is a no-op [Ok].
    Serialized against concurrent applies, replays and checkpoint
    installs; concurrent readers keep answering against the previous
    state until install. With tracing on ({!Xobs.Obs.t}[.tracing]) the
    round is recorded in the slow-query log as an [apply] trace whose
    root holds one child span per stage, in order: [mutate], [summary],
    [materialize], [partition], [validate], [splice], [wal], [install].
    [validate] is tagged [reused=true] when it re-used the previous
    verdicts: the summary kept its shape and the modules that built are
    exactly the previous catalog's, each valid against that shape. *)

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
    torn tail, replay every record above the engine's LSN in one
    write-core round, then open the writer so subsequent applies append.
    Returns how many records were replayed. Fails closed with
    [Wal_error] on mid-log corruption or an LSN gap above the snapshot
    base, and with [Update_invalid] on a record that passes its CRC but
    does not apply to the document (an out-of-range handle, say). The
    tail replays all or nothing: on any failure the engine stays at its
    snapshot LSN with no writer attached — the valid records before a
    bad one do not install either. With tracing on, a non-empty tail
    is recorded as a [replay] trace with the stage spans of
    {!apply_batch_r}.
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

(** {1 Pattern queries} *)

val query_r :
  ?budget:budget -> t -> Xam.Pattern.t -> (result, Xerror.t) Stdlib.result
(** Answer a pattern query from the catalog: plan (cache or
    rewrite + {!Xstorage.Cost.choose}) then execute the physical plan,
    cursors piped end-to-end, every operator counted (and timed when
    tracing is on) and charged against the budget ([?budget] overrides the engine default for this
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
(** The catalog the engine plans and scans against, extents included. *)

val summary : t -> Xsummary.Summary.t
val env : t -> Xalgebra.Eval.env

val set_catalog_r :
  t -> Xstorage.Store.catalog -> (unit, Xerror.t) Stdlib.result
(** Swap the catalog and bump the planning epoch: cached plans for the
    old catalog can no longer be returned (the cache key embeds the
    epoch) and age out of the LRU. The catalog's modules become the
    declared list, with none dormant. The quarantine set is cleared — a
    new catalog is a new storage world. The catalog is
    validated first: [Error (Catalog_invalid _)] on modules whose
    patterns reference paths absent from the summary, and the engine
    keeps its current catalog. *)

val add_module : t -> Xstorage.Store.module_ -> unit
(** Append one module (e.g. a freshly built index) to the catalog and
    the declared list — a catalog swap that keeps the dormant modules.
    Raises [Xerror.Error] when the module does not validate. *)

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
