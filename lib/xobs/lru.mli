(** A small string-keyed LRU map with an entry-count capacity.

    Backs the engine's plan cache. Lookups refresh recency; inserts
    beyond capacity evict the least recently used entry. Not thread-safe
    — callers serialize access (the engine holds its own lock). *)

type 'a t

val create : ?metrics:Metrics.registry -> int -> 'a t
(** [create capacity]; capacity must be positive. [metrics] keeps a
    [plan_cache_entries] gauge and a [plan_cache_evictions_total]
    counter in the given registry up to date. *)

val find : 'a t -> string -> 'a option
(** Lookup, refreshing the entry's recency on a hit. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or replace, evicting the least recently used entry when the
    cache is full. *)

val length : 'a t -> int
