(** A metrics registry: lock-free counters, gauges and log-bucketed
    latency histograms.

    Registration (get-or-create by name) takes a mutex; {e recording} is
    entirely atomic — counters are [Atomic.t] integers, gauges CAS-loop
    boxed floats, histograms an array of atomic bucket counts plus an
    integer-nanosecond sum — so the hot path is safe under
    [Engine.query_batch] fanning queries across domains and allocates
    nothing. Histogram snapshots merge exactly (integer arithmetic only),
    so per-domain or per-engine registries can be combined after the
    fact. *)

type registry

val create : unit -> registry

(** {1 Counters} *)

type counter

val counter : registry -> ?help:string -> string -> counter
(** Get or create. Raises [Invalid_argument] if [name] is registered as a
    different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : registry -> ?help:string -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms}

    Fixed log-scaled buckets: upper bounds 1µs·2ⁱ for i = 0…26 (1µs to
    ≈67s) plus one overflow bucket. An observation of [v] seconds lands in
    the first bucket whose upper bound is ≥ [v], so any percentile
    estimate is an upper bound within a factor 2 of the true quantile
    (for observations ≥ 1µs). *)

type histogram

val histogram : registry -> ?help:string -> string -> histogram
val observe : histogram -> float -> unit
(** Record an observation in seconds (negative and NaN are dropped). *)

val observe_ms : histogram -> float -> unit

val bucket_count : int
val bucket_upper : int -> float
(** Upper bound (seconds) of bucket [i]; [infinity] for the overflow
    bucket [bucket_count - 1]. *)

val bucket_of : float -> int
(** The bucket an observation of [v] seconds lands in: the first whose
    upper bound is [>= v] (the overflow bucket for NaN). Allocates
    nothing, so neither does {!observe}. *)

type snapshot = {
  counts : int array;  (** per-bucket observation counts, length {!bucket_count} *)
  count : int;  (** total observations *)
  sum_ns : int;  (** sum of observations in integer nanoseconds *)
}

val snapshot : histogram -> snapshot
val sum_s : snapshot -> float
val empty_snapshot : snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum — exact (integer) and associative, so histograms
    recorded per domain or per engine combine in any order. *)

val percentile : snapshot -> float -> float
(** [percentile s q] for [q] in [0,1]: the upper bound (seconds) of the
    bucket holding the ⌈q·count⌉-th smallest observation — an upper bound
    on the true quantile, within a factor 2 of it. [0.] when empty. A
    quantile falling in the overflow bucket clamps to the last finite
    bucket bound (≈67s) rather than answering [infinity] — the estimate
    is then a lower bound, but it stays representable in every export
    format (Prometheus exposition, JSONL). *)

(** {1 Labeled families}

    A family is one registered metric name carrying a fixed list of label
    names and a bounded table of children keyed by their label-value
    lists. Child lookup ({!counter_in}/{!histogram_in}) takes the
    family's mutex; recording into the returned child is the usual
    atomic hot path. Cardinality is hard-capped: once [max_children]
    distinct label-value lists exist, every further value lands in one
    shared overflow child whose label values are all ["other"] — so a
    hostile tenant name can cost at most one extra series, never an
    unbounded exposition. The all-["other"] key is reserved for that
    child. *)

type counter_family
type histogram_family

val counter_family :
  registry -> ?help:string -> ?max_children:int -> string ->
  labels:string list -> counter_family
(** Get or create. [labels] must be non-empty and must match on
    re-registration ([Invalid_argument] otherwise). [max_children]
    defaults to 64 and is fixed at first registration. *)

val histogram_family :
  registry -> ?help:string -> ?max_children:int -> string ->
  labels:string list -> histogram_family

val counter_in : counter_family -> string list -> counter
(** Child for the given label values (positional, matching [labels]).
    Raises [Invalid_argument] on arity mismatch. *)

val histogram_in : histogram_family -> string list -> histogram

val counter_children : counter_family -> (string list * counter) list
(** All live children as [(label values, child)], sorted by label values;
    includes the overflow child (all-["other"]) once it exists. *)

val histogram_children : histogram_family -> (string list * histogram) list
val counter_family_labels : counter_family -> string list
val histogram_family_labels : histogram_family -> string list

val merge_labeled :
  (string list * snapshot) list ->
  (string list * snapshot) list ->
  (string list * snapshot) list
(** Merge two labeled snapshot sets: snapshots sharing a label-value list
    are {!merge}d pointwise, the rest pass through; output is sorted by
    label values, so the operation is associative and commutative up to
    that canonical order. *)

(** {1 Enumeration} *)

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Counter_family of counter_family
  | Histogram_family of histogram_family

val metrics : registry -> (string * string * metric) list
(** All registered metrics as [(name, help, metric)], sorted by name. *)

val metric_name : metric -> string
