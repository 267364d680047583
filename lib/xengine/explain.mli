(** EXPLAIN output: the chosen rewriting plus the executed plan's
    annotated operator tree — the engine's observability surface.

    Each {!Xalgebra.Physical.op_stats} node carries the tuples produced
    and next() calls received by one physical operator and, when the run
    was traced, its wall time; the tree mirrors the logical plan. An
    untimed operator prints as [untimed], never as a measured zero. *)

type t = {
  query : Xam.Pattern.t;
  views_used : string list;  (** views the chosen rewriting reads *)
  plan : Xalgebra.Logical.t;  (** the executed logical plan *)
  cost : float;  (** the optimizer's estimate for [plan] *)
  candidates : int;  (** rewritings the optimizer ranked *)
  cache_hit : bool;  (** [true] when the plan came from the cache *)
  from_cache : bool;
      (** explicit provenance marker: [true] iff the plan was recalled
          rather than derived this query. Always equals [cache_hit], but
          unlike inferring it from [rewrite_ms = 0.] it distinguishes a
          recalled plan from a genuinely instant rewrite *)
  rewrite_ms : float;  (** rewriting + costing time; [0.] on a cache hit *)
  planned_ms : float;
      (** what planning {e originally} cost: equals [rewrite_ms] on a
          miss, and on a cache hit recalls the rewrite + costing time the
          cached entry cost when it was first planned (where [rewrite_ms]
          is [0.] — the hit itself did no rewriting) *)
  exec_ms : float;  (** execution wall time *)
  stats : Xalgebra.Physical.op_stats;  (** annotated operator tree *)
  degraded : bool;
      (** the query survived at least one storage fault: the plan was
          re-derived after quarantining the faulty module(s), or the
          answer came from the base-document fallback *)
  quarantined : string list;
      (** the engine's quarantine set when the query completed *)
  partitions_scanned : int;
      (** storage partitions the plan's scans touched (a module without a
          partition directory counts as one) *)
  partitions_pruned : int;
      (** partitions the rewriting's summary-path analysis let the scans
          skip entirely *)
}

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 JSON}

    A machine-readable EXPLAIN. The pattern and logical plan serialize as
    their pretty-printed text (consumers treat them as opaque strings to
    display or diff); every numeric and structural field round-trips
    exactly, so [of_json (to_json e) = Ok (summarize e)]. An untimed
    operator's [elapsed_s] is [null]. *)

type summary = {
  s_query : string;  (** pretty-printed pattern *)
  s_views_used : string list;
  s_plan : string;  (** pretty-printed logical plan *)
  s_cost : float option;  (** [None] encodes a NaN cost *)
  s_candidates : int;
  s_cache_hit : bool;
  s_from_cache : bool;
  s_rewrite_ms : float;
  s_planned_ms : float;
  s_exec_ms : float;
  s_stats : Xalgebra.Physical.op_stats;
  s_degraded : bool;
  s_quarantined : string list;
  s_partitions_scanned : int;
  s_partitions_pruned : int;
}
(** What JSON can carry of a {!t}: identical except the pattern and plan
    are strings and a NaN cost is [None]. *)

val summarize : t -> summary
val to_json : t -> Xobs.Json.t
val to_json_string : t -> string

val of_json : Xobs.Json.t -> (summary, string) Stdlib.result
(** Accepts EXPLAIN JSON emitted before [from_cache] existed: when the
    field is absent it defaults to [cache_hit], which is what those
    versions meant by it. Partition counts absent from pre-partitioning
    JSON default to 0. *)

val of_json_string : string -> (summary, string) Stdlib.result
