(** The multi-tenant query server behind [uload serve].

    One process serves many {e tenants}, each an {!Xengine.Engine.t}
    opened lazily from a snapshot path on its first request (or injected
    directly with {!add_engine}). Engines are never shared between
    tenants, so per-tenant state the engine tracks — the plan cache, the
    quarantine set, dormant modules — is isolated by construction: one
    tenant's faulting storage module never degrades another's plans.

    {b Request flow.} Connection threads parse HTTP requests
    ({!Proto}); [POST /query] and [POST /apply] go through {e admission}:
    if the server is draining the request is refused (503), if the
    bounded queue is full it is {e shed} immediately (429, [overloaded])
    — the queue never grows beyond [queue_depth], so memory under
    overload is bounded and the client learns to back off now rather
    than time out later. Admitted requests carry the absolute deadline
    computed from their [deadline_ms] at admission; a single dispatcher
    drains the queue in batches, drops requests whose deadline already
    passed (408, [budget_exceeded]/deadline — a request admitted late
    still honors the deadline it was admitted with), groups the rest by
    tenant and, preserving admission order within the group, executes
    maximal consecutive runs of reads through
    {!Xengine.Engine.query_string_batch} on [domains] domains and each
    write alone through {!Xengine.Engine.apply_batch_r} (one atomic
    batch per client request — ops from different clients are never
    merged, so one client's invalid op cannot fail another's).

    {b Writes and durability.} A tenant's WAL lives at
    [snapshot_path ^ ".wal"]: attached at open when the directory
    exists (recovering acknowledged writes from a previous run —
    recovery failure fails the tenant open rather than serving a stale
    snapshot), created lazily on the tenant's first write otherwise.
    Engines injected with {!add_engine} keep whatever WAL (or none)
    they came with. When [checkpoint_every > 0], the dispatcher spawns
    a {e background} checkpoint thread ({!Xengine.Engine.checkpoint_r})
    once a tenant's replay debt ([lsn - snapshot_lsn]) reaches the
    threshold — at most one in flight per tenant, writes and reads keep
    flowing while it runs, and {!stop} joins any in-flight checkpoint
    before returning.

    {b Observability.} Every request carries a request id — the
    client's [X-Request-Id] header when well-formed
    ({!Proto.valid_request_id}), a server-assigned one otherwise — and
    the id is echoed as a response header on every endpoint, as a
    [request_id] body field on [/query] responses, tagged on the
    request's root span and written to the access log: one join key
    across all surfaces. When the shared {!Xobs.Obs.t} has tracing on,
    each admitted request gets a root ["request"] trace (tagged
    [request_id], [tenant], and at close [outcome]/[status]) with
    explicit [queue_wait] and [dispatch] child spans stamped by the
    dispatcher and an [execute] span wrapping the engine's own span
    tree ({!Xengine.Engine.query_string_batch}); finished traces
    land in the slowlog ring. When [access_log] is set, every answered
    request — admitted or refused — appends one JSON line
    ({!Accesslog.entry}) to a rotating log.

    {b Endpoints.}
    - [POST /query] — body {!Proto.query_request}; 200 body carries
      [request_id], [output], [degraded], [quarantined], [queue_ms]
      (time from admission to dequeue).
    - [POST /apply] — body {!Proto.apply_request}; 200 body carries
      [request_id], [lsn] (the final LSN of the batch), [applied],
      [parts_kept], [parts_rebuilt], [quarantined], [queue_ms]. All ops
      land atomically or none do (400 [invalid_update] rejects the whole
      batch with state unchanged; 500 on WAL failure).
    - [GET /metrics] — Prometheus text exposition of the shared
      registry: the serve_* metrics below plus every engine metric
      (tenant engines are opened with the server's {!Xobs.Obs.t}).
    - [GET /healthz] — liveness + queue/tenant summary.
    - [POST /admin/swap] — body [{"tenant":t,"snapshot":path}]: hot-swap
      the tenant's catalog via {!Xengine.Engine.load_snapshot_r}; on any
      failure the running catalog stays untouched.
    - [GET /debug/traces], [GET /debug/slowlog] — the slowlog ring /
      over-threshold traces as JSONL; [GET /debug/metrics.json] — the
      registry as {!Xobs.Export.metrics_json}. All three 404 unless
      [debug] is set.

    {b Drain.} {!stop} (or SIGTERM/SIGINT under {!run}) stops accepting,
    answers new requests with 503 [draining], lets every admitted
    request finish and its response reach the wire, then joins all
    threads. {!run} returns normally after a clean drain, so the
    process exits 0.

    {b Metrics.} Unlabeled: [serve_requests_total],
    [serve_applies_total] (write requests received),
    [serve_checkpoints_total] (background checkpoints completed),
    [serve_thread_crashes_total] (server threads that died on an
    uncaught exception — always 0 in a healthy server),
    [accesslog_rotate_failures_total], [serve_shed_total],
    [serve_expired_total], [serve_errors_total], [serve_batches_total],
    [serve_queue_depth], [serve_connections], [serve_request_seconds].
    Labeled (bounded cardinality, see {!Xobs.Metrics.counter_family}):
    [serve_tenant_requests_total{tenant,outcome}] with outcome one of
    [ok]/[shed]/[expired]/[error] (unknown tenant names are {e not} used
    as label values — they are client-controlled and unbounded), and
    [serve_tenant_request_seconds{tenant}] observing admitted requests
    only. Tenant engines opened lazily carry their tenant name as the
    engine label, so [persist_partition_pageins{tenant}] and
    [persist_partition_faults_by_tenant{tenant,kind}] attribute paging
    to tenants too. *)

type config = {
  listen : Proto.addr;  (** TCP port 0 picks an ephemeral port *)
  queue_depth : int;  (** admission queue bound (≥ 1) *)
  domains : int;  (** domains per dispatch batch (1 = sequential) *)
  batch_max : int;  (** max requests drained per dispatch *)
  default_budget : Xengine.Engine.budget;
      (** per-request budget when the request doesn't set one *)
  lazy_tenants : bool;  (** open tenant snapshots with lazy extent paging *)
  max_conns : int;  (** concurrent connections before refusing new ones *)
  debug : bool;  (** serve the [/debug/*] endpoints *)
  access_log : string option;
      (** JSONL access-log path ({!Accesslog}); [None] disables *)
  checkpoint_every : int;
      (** background-checkpoint a tenant once its replay debt
          ([lsn - snapshot_lsn]) reaches this many records; 0 disables *)
}

val default_config : Proto.addr -> config
(** [queue_depth 64], [domains 1], [batch_max 16], unlimited budget,
    eager tenants, [max_conns 256], debug off, no access log, no
    background checkpointing. *)

type t

val create :
  ?obs:Xobs.Obs.t -> config -> (string * string) list -> t
(** [create cfg tenants] with [tenants] a [(name, snapshot path)] list;
    snapshots are opened on first use. [obs] (default: a fresh context)
    is shared by the server and every tenant engine it opens, so
    [/metrics] is one registry. *)

val add_engine : t -> string -> Xengine.Engine.t -> unit
(** Register an already-built engine as a tenant (tests, in-process
    serving). To appear in [/metrics] the engine should share {!obs}. *)

val obs : t -> Xobs.Obs.t

val start : t -> unit
(** Bind, listen and spawn the acceptor and dispatcher; returns once the
    server is ready to accept. Raises [Failure] if the address cannot be
    bound or the server was already started. *)

val bound_addr : t -> Proto.addr
(** The actual listening address — the ephemeral port resolved. Only
    valid after {!start}. *)

val stop : t -> unit
(** Drain and shut down (see above). Idempotent; safe to call from any
    thread. *)

val run : ?signals:bool -> t -> unit
(** {!start}, then block until SIGTERM/SIGINT (when [signals], the
    default) requests a drain, then {!stop}. Returns after the drain
    completes. *)

val draining : t -> bool
val queue_depth : t -> int
val executing : t -> int

val inject_request_fault : t -> (Proto.request -> unit) -> unit
(** Test seam: [f] runs in the connection thread on every parsed
    request, {e outside} the handler's exception guard — an [f] that
    raises crashes the connection thread, exercising the crash-path
    accounting ([serve_thread_crashes_total], fd cleanup, busy-count
    balance). Not for production use. *)
