(** Iterator-based physical execution (§1.2.3): the one executor of
    logical plans.

    Every {!Logical.t} operator compiles to a Volcano-style cursor built
    from the per-tuple kernels of {!Eval}. A flat inner structural join runs
    the {e StackTreeDesc} algorithm of [7] over inputs sorted on their join
    identifiers; each operator advertises the column its output is sorted
    on (its {e order descriptor}), and the join sorts an input only when
    that descriptor does not already match its join attribute (the
    pipelining discipline §1.2.3 describes). Every other structural join —
    outer, semi, nest, nest-outer, or one keyed on a nested path — probes
    {!Eval.build_matcher}'s sorted index once per left tuple. Value joins
    hash on top-level equality columns and use nested loops otherwise. *)

type order = Rel.path option
(** The column the stream is sorted on (document order of its identifiers);
    [None] when no order is guaranteed. *)

type cursor = unit -> Rel.tuple option
(** Pull-based iterator: [None] at end of stream. *)

type t = {
  schema : Rel.schema;
  order : order;
  open_ : unit -> cursor;
}

val compile : Eval.env -> Logical.t -> t
(** Compile a logical plan to a physical one, each plan node once. Raises
    {!Eval.Unknown_relation} on an unresolved scan and [Invalid_argument]
    on a plan whose paths do not match its input schemas. *)

val run : Eval.env -> Logical.t -> Rel.t
(** Compile and drain. *)

(** {1 Per-query resource budgets} *)

type budget_dimension = Deadline | Tuples | Steps

type deadline = {
  clock : unit -> float;  (** the clock that keeps the deadline (seconds) *)
  at : float;  (** the absolute instant, in [clock]'s timebase *)
}
(** A deadline carries its own clock, so a budgeted run checks it whether
    or not its operators are timed. *)

type budget = {
  deadline : deadline option;
  max_tuples : int option;  (** cap on root-level tuples produced *)
  max_steps : int option;  (** cap on total cursor steps, all operators *)
  mutable steps : int;  (** steps consumed so far (shared across plans) *)
  mutable tuples : int;  (** root tuples produced so far *)
}

exception Over_budget of { dimension : budget_dimension; limit : float }
(** Raised by a guarded cursor the moment a budget dimension is
    exceeded — a runaway plan stops within one cursor step (or one
    16-step clock-check window for deadlines), it never hangs. *)

val budget :
  ?deadline:deadline -> ?max_tuples:int -> ?max_steps:int -> unit -> budget
(** A fresh budget with zero consumption. The same budget value may be
    threaded through several [run_instrumented] calls; consumption
    accumulates (the engine shares one budget across the plans of a
    query). *)

val dimension_string : budget_dimension -> string

(** {1 Per-operator instrumentation} *)

type op_stats = {
  op : string;  (** operator name, e.g. ["struct-join[inner,/]"] *)
  mutable tuples : int;  (** tuples produced *)
  mutable nexts : int;  (** next() calls received *)
  mutable elapsed : float;
      (** seconds spent inside this operator's cursor, inclusive of its
          inputs (a parent's next() pulls on its children); stays [0.]
          when the run is not [timed] *)
  timed : bool;  (** whether [elapsed] was measured (the run had a clock) *)
  children : op_stats list;  (** one per input, in {!Logical.inputs} order *)
}
(** One stats node per node of the logical plan, made when the node is
    compiled, so the stats tree has the plan's shape. Counters fill in as
    the compiled cursor is drained. *)

val compile_instrumented :
  ?clock:(unit -> float) ->
  ?budget:budget ->
  Eval.env ->
  Logical.t ->
  t * op_stats
(** Compile with every operator's cursor wrapped in a counting node: the
    returned stats tree is live, its [tuples] and [nexts] updating as the
    plan executes. With [clock] every operator is also timed — two clock
    reads per cursor step — and its stats node is [timed]; without it no
    operator reads a clock. With [budget], every cursor step also charges
    the budget and raises {!Over_budget} when a dimension is exhausted;
    the deadline is read on its own clock ({!deadline}), timed run or
    not. *)

type metrics
(** The [physical_*] series of one registry, resolved once. *)

val metrics : Xobs.Metrics.registry -> metrics
(** Get or create the registry's [physical_tuples_total],
    [physical_nexts_total] and [physical_operators_total] counters and
    its [physical_op_seconds] per-operator latency histogram. *)

val run_instrumented :
  ?clock:(unit -> float) ->
  ?budget:budget ->
  ?metrics:metrics ->
  Eval.env ->
  Logical.t ->
  Rel.t * op_stats
(** [compile_instrumented] then drain; the stats are final on return.
    With [budget], the drain additionally enforces [max_tuples] on the
    root's output. With [metrics], the finished stats tree is folded into
    the series: the counters always, [physical_op_seconds] once per
    operator on a timed run only; nothing is recorded when the drain
    raises. *)

val stack_tree_desc :
  axis:Logical.axis ->
  (Xdm.Nid.t * Rel.tuple) array ->
  (Xdm.Nid.t * Rel.tuple) array ->
  (Rel.tuple * Rel.tuple) list
(** The StackTreeDesc algorithm on inputs sorted by document order:
    ancestor/descendant (or parent/child) pairs, output sorted by the
    descendant. Exposed for direct testing and benchmarking. *)
