(** Versioned, checksummed binary snapshots of the whole engine state.

    A snapshot holds everything {!Xengine.Engine} needs to answer queries:
    the base document (optional), the path summary, and the full catalog
    of storage modules with their materialized extents. The point is the
    paper's §2.1.4 physical data independence made {e persistent}: the
    catalog of XAMs describes what is on disk, and reopening a store is
    reading that description back — never re-parsing XML, never
    re-materializing extents.

    {2 File format (version 3)}

    {v
    magic   8 bytes   "XAMSNAP\x01"
    header  24 bytes  version, TOC length, TOC CRC-32
    TOC               one entry per section: name, offset, length, CRC-32
    payload           section bytes, one section per TOC entry
    v}

    The header and TOC hold 8-byte little-endian integers in every
    version. Section payloads of a version 3 file hold LEB128 varints
    ({!Binio.Varint}); those of versions 1 and 2 hold 8-byte ones.

    Sections are ["meta"], ["summary"], ["catalog"], optionally ["doc"]
    and ["dormant"] (each dormant module with its position in the
    declared list, written only when a module is dormant — see
    {!type:image}), and per storage module either one
    ["extent:<module>"] (monolithic) or — for a path-partitioned module —
    a ["pdir:<module>"] partition directory plus one
    ["part:<module>:<i>"] per partition. Every
    section is independently checksummed.

    The ["doc"] section of version 3 stores only what cannot be
    derived:

    {v
    name                      string
    labels                    count, then each distinct label, in order of first use
    per node, in handle order kind byte, label index, value (attribute and
                              text nodes only), subtree end - handle
    v}

    Parent, depth, ordinal and post are derived from the subtree ends
    when the section is read. Version 2 stored every column per node
    (post, depth, parent, ordinal, kind, label, value, subtree end).

    Readers accept versions 1, 2 and 3. A v1 file (extent sections only)
    is a v2 file without partition directories: a v1 extent is a module
    without one. Writers always emit version 3.

    {2 Guarantees}

    - {e Crash safety}: {!save} writes to a temporary file in the target
      directory, fsyncs, then atomically renames over the destination (and
      fsyncs the directory). A crash mid-save leaves the previous snapshot
      intact.
    - {e Fail-closed reads}: {!read} verifies magic, version, TOC
      checksum and the checksum of every section before decoding it;
      decoding itself is bounds-checked ({!Binio}). Corruption —
      truncation, bit flips, a foreign file — yields [Error _]. It never
      crashes and never yields a partial catalog. *)

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
(** Verify and decode every section, extents included. The returned
    catalog is fully resident; a partitioned module's extent is
    reassembled from its partitions. [metrics] feeds
    [persist_bytes_read_total]. *)

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
