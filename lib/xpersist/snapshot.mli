(** Versioned, checksummed binary snapshots of the whole engine state.

    A snapshot holds everything {!Xengine.Engine} needs to answer queries:
    the base document (optional), the path summary, and the full catalog
    of storage modules with their materialized extents. The point is the
    paper's §2.1.4 physical data independence made {e persistent}: the
    catalog of XAMs describes what is on disk, and reopening a store is
    reading that description back — never re-parsing XML, never
    re-materializing extents.

    {2 File format (version 2)}

    {v
    magic   8 bytes   "XAMSNAP\x01"
    header  24 bytes  version, TOC length, TOC CRC-32
    TOC               one entry per section: name, offset, length, CRC-32
    payload           section bytes, one section per TOC entry
    v}

    Sections are ["meta"], ["summary"], ["catalog"], optionally ["doc"]
    and ["dormant"] (each dormant module with its position in the
    declared list, written only when a module is dormant — see
    {!type:image}), and per storage module either one
    ["extent:<module>"] (monolithic) or — for a path-partitioned module —
    a ["pdir:<module>"] partition directory plus one
    ["part:<module>:<i>"] per partition. Every
    section is independently checksummed, so the paging reader fetches
    and verifies {e partitions}, not whole extents.

    Version 1 files (extent sections only) still load: a v1 extent is
    simply a module without a partition directory. Writers always emit
    version 2.

    {2 Guarantees}

    - {e Crash safety}: {!save} writes to a temporary file in the target
      directory, fsyncs, then atomically renames over the destination (and
      fsyncs the directory). A crash mid-save leaves the previous snapshot
      intact.
    - {e Fail-closed reads}: every read path verifies magic, version, TOC
      checksum and the checksum of each section it touches before decoding
      it; decoding itself is bounds-checked ({!Binio}). Corruption —
      truncation, bit flips, a foreign file — yields [Error _] (or, for an
      extent discovered corrupt during lazy paging, a
      {!Xstorage.Store.Module_fault} the engine's quarantine machinery
      absorbs). It never crashes and never yields a partial catalog. *)

type image = {
  doc : Xdm.Doc.t option;
  catalog : Xstorage.Store.catalog;
  lsn : int;  (** the WAL position this state covers *)
  declared : (string * Xam.Pattern.t) list;
      (** every module the catalog was declared with, in order: the
          catalog's modules plus the dormant ones *)
  dormant : (string * string) list;
      (** the declared modules maintenance dropped from the catalog
          (name, reason) *)
}
(** Everything one snapshot file holds. *)

val write :
  ?metrics:Xobs.Metrics.registry -> string -> image -> (int, string) result
(** Write the image crash-safely and return the bytes written; {!save}
    is [write] with no dormant modules, and with none a file holds the
    same bytes. *)

val read : ?metrics:Xobs.Metrics.registry -> string -> (image, string) result
(** Eager open: verify and decode every section, extents included. The
    returned catalog is fully resident. *)

val save :
  ?doc:Xdm.Doc.t ->
  ?lsn:int ->
  ?metrics:Xobs.Metrics.registry ->
  string ->
  Xstorage.Store.catalog ->
  (int, string) result
(** [save path catalog] writes the snapshot crash-safely and returns the
    bytes written. [lsn] (default 0) records the WAL position this state
    covers — recovery replays only records past it. Temp-file names carry
    a process-wide nonce, so concurrent saves to the same path from one
    process cannot clobber each other's temp file (last rename wins).
    [metrics] feeds [persist_bytes_written_total]. *)

val load_with_lsn :
  ?metrics:Xobs.Metrics.registry ->
  string ->
  (Xdm.Doc.t option * Xstorage.Store.catalog * int, string) result
(** {!read}'s document, catalog and WAL position (0 for snapshots
    written before the write path existed). *)

(** Paging open: the summary and catalog (names + xams) load eagerly —
    planning needs them — while extents page in on demand through an LRU
    buffer cache. The engine runs against the returned
    {!Xstorage.Store.lazy_catalog} exactly as against a resident one. *)
module Reader : sig
  type t

  val open_ :
    ?cache_capacity:int ->
    ?metrics:Xobs.Metrics.registry ->
    ?owner:string ->
    string ->
    (t, string) result
  (** [cache_capacity] is the buffer-cache budget in {e bytes} of
      on-disk section length (default 16 MiB): each cached extent or
      partition is charged its section's byte size, so one huge
      partition competes fairly with many small ones. [metrics] feeds
      [persist_bytes_read_total], [persist_extent_cache_hits_total] /
      [..._misses_total], [persist_partition_faults_total], the
      [persist_extent_cache_entries] and
      [persist_extent_cache_cost] gauges and the [persist_open_seconds]
      histogram. [owner] names the tenant this reader serves: when both
      it and [metrics] are given, page-ins and partition faults are
      additionally counted into the labeled
      [persist_partition_pageins{tenant}] and
      [persist_partition_faults_by_tenant{tenant,kind}] families
      (fault kinds: [corrupt], [io], [resource], [closed]). *)

  val path : t -> string
  val doc : t -> Xdm.Doc.t option

  val lsn : t -> int
  (** WAL position stored at save time; see {!val:save}. *)

  val declared : t -> (string * Xam.Pattern.t) list
  val dormant : t -> (string * string) list
  (** {!image}'s [declared] and [dormant]. *)

  val lazy_catalog : t -> Xstorage.Store.lazy_catalog
  (** Extent and partition thunks page through the reader. A thunk
      forced after {!close}, or over a section whose checksum no longer
      verifies, raises {!Xstorage.Store.Module_fault} for its module.
      For a partitioned module the {e partition} is the paging unit:
      [lpt_load i] fetches one partition, and a corrupt partition faults
      (and is recorded, see {!partition_faults}) without touching its
      siblings — forcing them still answers. *)

  val partition_faults : t -> (string * int * string) list
  (** Every partition page-in that failed, oldest first:
      [(module, partition index, reason)]. Pins corruption to single
      partitions where the engine-level quarantine (keyed by module
      name) cannot. *)

  val close : t -> unit
end
