(** A small fixed-size domain pool (no work stealing).

    [create ~domains:n] spawns [n - 1] worker domains that sleep until a
    parallel operation publishes a batch; the calling domain participates
    too, so [n] is the total parallelism. Every operation distributes
    chunk indices through one atomic counter and writes results into
    per-index slots: the output is deterministic — identical to the
    sequential result — whatever the scheduling, and at [domains = 1] the
    entry points {e are} their sequential counterparts.

    One batch runs at a time per pool. A nested call (a parallel stage
    inside another parallel stage) detects the pool is busy and simply
    runs sequentially, so layering {!map_list} calls is always safe,
    never faster than the outermost level, and never a deadlock. The
    first exception a chunk raises is re-raised in the caller after the
    batch drains. *)

type t

val create : ?domains:int -> unit -> t
(** [domains] defaults to {!recommended_domains}; values < 1 are clamped
    to 1 (a pool that runs everything inline and spawns nothing). *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], clamped to [1, 16]. *)

val domains : t -> int

val self_index : unit -> int
(** The calling domain's pool-worker index: workers of any pool read
    their 1-based index, every other domain (including pool creators)
    reads 0. Used to tag traces with the domain that ran the query. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving: element [i] of the result is [f] applied to
    element [i] of the input. *)

val shutdown : t -> unit
(** Stop and join the workers. The pool must be idle; further parallel
    calls after shutdown run sequentially on the caller. *)
