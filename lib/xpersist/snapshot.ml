module Store = Xstorage.Store
module Metrics = Xobs.Metrics
module Lru = Xobs.Lru
module Doc = Xdm.Doc

let corrupt fmt = Printf.ksprintf (fun s -> raise (Binio.Corrupt s)) fmt

let magic = "XAMSNAP\x01"

(* v1: one "extent:<name>" section per module. v2 adds path-partitioned
   modules: a "pdir:<name>" partition directory plus one
   "part:<name>:<i>" section per partition, each with its own TOC CRC so
   a paging reader fetches and verifies partitions individually.
   Writers emit v2; readers accept both (a v1 extent is simply a module
   with no partition directory). *)
let version = 2

let version_supported v = v = 1 || v = 2

(* magic + (version, TOC length, TOC CRC) *)
let header_len = 8 + 24

(* --- Metrics ------------------------------------------------------------- *)

type meters = {
  mt_read : Metrics.counter;
  mt_written : Metrics.counter;
  mt_hits : Metrics.counter;
  mt_misses : Metrics.counter;
  mt_pfaults : Metrics.counter;
  mt_open : Metrics.histogram;
}

let meters = function
  | None -> None
  | Some reg ->
      let c name help = Metrics.counter reg ~help name in
      Some
        { mt_read = c "persist_bytes_read_total" "snapshot bytes read from disk";
          mt_written = c "persist_bytes_written_total" "snapshot bytes written to disk";
          mt_hits = c "persist_extent_cache_hits_total" "extent buffer cache hits";
          mt_misses = c "persist_extent_cache_misses_total" "extent buffer cache misses";
          mt_pfaults =
            c "persist_partition_faults_total" "partition page-ins that failed";
          mt_open =
            Metrics.histogram reg ~help:"snapshot open latency" "persist_open_seconds" }

let meter m f = match m with None -> () | Some m -> f m

(* --- Building ------------------------------------------------------------ *)

let section name f =
  let b = Binio.writer () in
  f b;
  (name, Binio.contents b)

let extent_section name = "extent:" ^ name
let pdir_section name = "pdir:" ^ name
let part_section name i = Printf.sprintf "part:%s:%d" name i

(* The partition directory: the partitioning nid and column, then per
   partition its summary path and the original extent positions of its
   tuples — everything needed to reassemble any partition subset in
   exact extent order. Payloads live in their own [part_section]s. *)
let w_pdir b (p : Store.parts) =
  Binio.w_int b p.Store.pt_nid;
  Binio.w_int b p.Store.pt_col;
  Binio.w_int b (List.length p.Store.pt_parts);
  List.iter
    (fun (part : Store.partition) ->
      Binio.w_int b part.Store.p_path;
      Binio.w_int b (Array.length part.Store.p_pos);
      Array.iter (Binio.w_int b) part.Store.p_pos)
    p.Store.pt_parts

let r_pdir r =
  let pt_nid = Binio.r_int r in
  let pt_col = Binio.r_int r in
  if pt_col < 0 then corrupt "negative partition column %d" pt_col;
  let n = Binio.r_int r in
  (* Every partition encodes at least 16 bytes (path + count). *)
  if n < 0 || n > Binio.remaining r / 16 then
    corrupt "partition count %d exceeds the directory" n;
  let dirs =
    List.init n (fun _ ->
        let path = Binio.r_int r in
        let count = Binio.r_int r in
        if count < 0 || count > Binio.remaining r / 8 then
          corrupt "partition position count %d exceeds the directory" count;
        let pos = Array.init count (fun _ -> Binio.r_int r) in
        (path, pos))
  in
  Binio.expect_end r;
  (* The positions across all partitions must form a permutation of the
     extent's tuple indices — anything else cannot reassemble in extent
     order and is corruption (fail closed, not best-effort). *)
  let total = List.fold_left (fun acc (_, p) -> acc + Array.length p) 0 dirs in
  let seen = Array.make (max total 1) false in
  List.iter
    (fun (_, pos) ->
      Array.iter
        (fun p ->
          if p < 0 || p >= total || seen.(p) then
            corrupt "partition positions are not a permutation";
          seen.(p) <- true)
        pos)
    dirs;
  (pt_nid, pt_col, dirs)

(* A module serializes partitioned exactly when it carries a non-empty
   partition directory. *)
let stored_parts (m : Store.module_) =
  match m.Store.parts with
  | Some p when p.Store.pt_parts <> [] -> Some p
  | _ -> None

type image = {
  doc : Doc.t option;
  catalog : Store.catalog;
  lsn : int;
  declared : (string * Xam.Pattern.t) list;
  dormant : (string * string) list;
}

let build { doc; catalog; lsn; declared; dormant } =
  (* The dormant section places each dormant module at its position in
     the declared list; the catalog holds the others in order. *)
  let entries =
    List.concat
      (List.mapi
         (fun i (name, xam) ->
           match List.assoc_opt name dormant with
           | Some reason -> [ (i, name, xam, reason) ]
           | None -> [])
         declared)
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun name ->
      if Hashtbl.mem seen name then corrupt "duplicate module name %S" name
      else Hashtbl.add seen name ())
    (List.map (fun (m : Store.module_) -> m.Store.name) catalog.Store.modules
    @ List.map (fun (_, name, _, _) -> name) entries);
  let sections =
    (section "meta" (fun b ->
         Binio.w_bool b (doc <> None);
         Binio.w_int b (List.length catalog.Store.modules);
         (* WAL position covered by this snapshot; absent in files written
            before the write path existed, so readers treat it as an
            optional trailing field (defaulting to 0 = "no records"). *)
         Binio.w_int b lsn)
    :: section "summary" (fun b -> Codec.w_summary b catalog.Store.summary)
    :: section "catalog" (fun b ->
           Binio.w_int b (List.length catalog.Store.modules);
           List.iter
             (fun (m : Store.module_) ->
               Binio.w_str b m.Store.name;
               Codec.w_pattern b m.Store.xam)
             catalog.Store.modules)
    :: (match doc with
       | None -> []
       | Some d -> [ section "doc" (fun b -> Codec.w_doc b d) ])
    @ (* Written only when a module is dormant, so every other snapshot
         keeps the bytes it had before the section existed. *)
    (match entries with
    | [] -> []
    | _ ->
        [ section "dormant" (fun b ->
              Binio.w_int b (List.length entries);
              List.iter
                (fun (i, name, xam, reason) ->
                  Binio.w_int b i;
                  Binio.w_str b name;
                  Codec.w_pattern b xam;
                  Binio.w_str b reason)
                entries) ]))
    @ List.concat_map
        (fun (m : Store.module_) ->
          match stored_parts m with
          | None ->
              [ section (extent_section m.Store.name) (fun b ->
                    Codec.w_rel b m.Store.extent) ]
          | Some p ->
              (* Partitioned: no extent section at all — the directory plus
                 the per-partition payloads reassemble it exactly, and a
                 paging reader must never be tempted to fetch the whole
                 thing in one read. *)
              section (pdir_section m.Store.name) (fun b -> w_pdir b p)
              :: List.mapi
                   (fun i (part : Store.partition) ->
                     section (part_section m.Store.name i) (fun b ->
                         Codec.w_rel b part.Store.p_rel))
                   p.Store.pt_parts)
        catalog.Store.modules
  in
  (* TOC entries are fixed-width apart from the names, so the TOC length —
     and with it every payload offset — is known before writing it. *)
  let toc_len =
    8 + List.fold_left (fun acc (name, _) -> acc + 8 + String.length name + 24) 0 sections
  in
  let toc_b = Binio.writer () in
  Binio.w_int toc_b (List.length sections);
  let (_ : int) =
    List.fold_left
      (fun off (name, payload) ->
        Binio.w_str toc_b name;
        Binio.w_int toc_b off;
        Binio.w_int toc_b (String.length payload);
        Binio.w_int toc_b (Binio.crc32 payload);
        off + String.length payload)
      (header_len + toc_len) sections
  in
  let toc = Binio.contents toc_b in
  assert (String.length toc = toc_len);
  let total =
    header_len + toc_len
    + List.fold_left (fun acc (_, p) -> acc + String.length p) 0 sections
  in
  let buf = Buffer.create total in
  Buffer.add_string buf magic;
  let header_b = Binio.writer () in
  Binio.w_int header_b version;
  Binio.w_int header_b toc_len;
  Binio.w_int header_b (Binio.crc32 toc);
  Buffer.add_string buf (Binio.contents header_b);
  Buffer.add_string buf toc;
  List.iter (fun (_, p) -> Buffer.add_string buf p) sections;
  Buffer.contents buf

(* --- Error boundary ------------------------------------------------------ *)

let guard f =
  try Ok (f ()) with
  | Binio.Corrupt e -> Error e
  | Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
  | Sys_error e -> Error e
  | End_of_file -> Error "unexpected end of file"
  (* Backstop for hostile-but-CRC-valid data the structural bounds above
     the decoders did not anticipate: a clean [Error] is the contract,
     never an escaped exception. *)
  | Invalid_argument e -> Error (Printf.sprintf "malformed snapshot: %s" e)
  | Out_of_memory -> Error "snapshot decode exhausted memory"
  | Stack_overflow -> Error "snapshot decode over-nested"

(* --- Saving -------------------------------------------------------------- *)

let write_all fd bytes =
  let n = String.length bytes in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd bytes !written (n - !written)
  done

let fsync_dir path =
  (* Directory fsync makes the rename itself durable; not every
     filesystem supports it, so failures are ignored. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())

(* Distinct temp names per save: two concurrent saves to the same path
   from one process (checkpoint racing an explicit save) must not clobber
   each other's temp file — pid alone collides, the nonce does not. *)
let tmp_nonce = Atomic.make 0

let write ?metrics path image =
  let m = meters metrics in
  guard (fun () ->
      let bytes = build image in
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
          (Atomic.fetch_and_add tmp_nonce 1)
      in
      (try
         let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             write_all fd bytes;
             Unix.fsync fd);
         Unix.rename tmp path
       with e ->
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      fsync_dir path;
      meter m (fun m -> Metrics.add m.mt_written (String.length bytes));
      String.length bytes)

let save ?doc ?(lsn = 0) ?metrics path catalog =
  let declared =
    List.map
      (fun (m : Store.module_) -> (m.Store.name, m.Store.xam))
      catalog.Store.modules
  in
  write ?metrics path { doc; catalog; lsn; declared; dormant = [] }

(* --- TOC parsing --------------------------------------------------------- *)

type entry = { e_name : string; e_off : int; e_len : int; e_crc : int }

(* [data] must hold at least the first [header_len] bytes of the file.
   Returns (toc_len, toc_crc). *)
let parse_fixed_header ~file_size data =
  if file_size < header_len then corrupt "file too short (%d bytes)" file_size;
  if not (String.equal (String.sub data 0 8) magic) then corrupt "bad magic";
  let hr = Binio.reader ~pos:8 ~len:24 data in
  let v = Binio.r_int hr in
  if not (version_supported v) then corrupt "unsupported snapshot version %d" v;
  let toc_len = Binio.r_int hr in
  let toc_crc = Binio.r_int hr in
  (* Subtraction, not [header_len + toc_len]: a hostile length near
     [max_int] would overflow the sum negative and slip past the bound. *)
  if toc_len < 0 || toc_len > file_size - header_len then
    corrupt "TOC overruns the file";
  (toc_len, toc_crc)

(* [toc] is the raw TOC slice, already CRC-verified by the caller. *)
let parse_entries ~file_size toc =
  let tr = Binio.reader toc in
  let n = Binio.r_int tr in
  if n < 0 then corrupt "negative section count %d" n;
  (* Each entry encodes at least 32 bytes (name length + three ints), so a
     count the TOC cannot physically hold is corruption — checked before
     allocating anything proportional to it. *)
  if n > Binio.remaining tr / 32 then
    corrupt "section count %d exceeds the TOC" n;
  let entries =
    List.init n (fun _ ->
        let e_name = Binio.r_str tr in
        let e_off = Binio.r_int tr in
        let e_len = Binio.r_int tr in
        let e_crc = Binio.r_int tr in
        (* Bounds via subtraction: [e_off + e_len] can overflow negative on
           hostile input and bypass a [> file_size] check, after which the
           positioned read would try to allocate [e_len] bytes. *)
        if
          e_len < 0
          || e_off < header_len + String.length toc
          || e_off > file_size
          || e_len > file_size - e_off
        then corrupt "section %S [%d, +%d) outside the file" e_name e_off e_len;
        { e_name; e_off; e_len; e_crc })
  in
  Binio.expect_end tr;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e.e_name then corrupt "duplicate section %S" e.e_name
      else Hashtbl.add seen e.e_name ())
    entries;
  entries

let find_entry_opt entries name =
  List.find_opt (fun e -> String.equal e.e_name name) entries

let find_entry entries name =
  match find_entry_opt entries name with
  | Some e -> e
  | None -> corrupt "missing section %S" name

(* --- Eager load ---------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let decode_meta r =
  let has_doc = Binio.r_bool r in
  let mcount = Binio.r_int r in
  if mcount < 0 then corrupt "negative module count %d" mcount;
  (* Optional trailing WAL position (files predating the write path end
     here). *)
  let lsn = if Binio.remaining r > 0 then Binio.r_int r else 0 in
  if lsn < 0 then corrupt "negative snapshot lsn %d" lsn;
  Binio.expect_end r;
  (has_doc, mcount, lsn)

let decode_catalog_section r mcount =
  let n = Binio.r_int r in
  if n <> mcount then corrupt "catalog lists %d modules, meta says %d" n mcount;
  let mods =
    List.init n (fun _ ->
        let name = Binio.r_str r in
        let xam = Codec.r_pattern r in
        (name, xam))
  in
  Binio.expect_end r;
  mods

(* The optional "dormant" section, turned back into the declared list
   (the live modules [mods] with the dormant entries re-inserted at
   their positions) and the dormant (name, reason) pairs. Positions must
   ascend strictly within the declared list and names must differ from
   the live modules'. *)
let decode_dormant r mods =
  let n = Binio.r_int r in
  (* Every entry encodes at least 32 bytes (position, two string
     lengths, a pattern header). *)
  if n < 0 || n > Binio.remaining r / 32 then
    corrupt "dormant count %d exceeds the section" n;
  let last = ref (-1) in
  let entries =
    List.init n (fun _ ->
        let i = Binio.r_int r in
        if i <= !last || i >= List.length mods + n then
          corrupt "dormant position %d out of order" i;
        last := i;
        let name = Binio.r_str r in
        if List.mem_assoc name mods then
          corrupt "dormant module %S is also live" name;
        let xam = Codec.r_pattern r in
        (i, name, xam, Binio.r_str r))
  in
  Binio.expect_end r;
  (* Checked positions leave no gap: each entry is met exactly at its
     own index. *)
  let rec declare i live = function
    | (j, name, xam, _) :: rest when j = i ->
        (name, xam) :: declare (i + 1) live rest
    | entries -> (
        match live with l :: ls -> l :: declare (i + 1) ls entries | [] -> [])
  in
  ( declare 0 mods entries,
    List.map (fun (_, name, _, reason) -> (name, reason)) entries )

let declared_of entries rd mods =
  match find_entry_opt entries "dormant" with
  | None -> (mods, [])
  | Some _ -> decode_dormant (rd "dormant") mods

let read ?metrics path =
  let m = meters metrics in
  guard (fun () ->
      let data = read_file path in
      meter m (fun m -> Metrics.add m.mt_read (String.length data));
      let file_size = String.length data in
      let toc_len, toc_crc = parse_fixed_header ~file_size data in
      if Binio.crc32 ~pos:header_len ~len:toc_len data <> toc_crc then
        corrupt "TOC checksum mismatch";
      let entries =
        parse_entries ~file_size (String.sub data header_len toc_len)
      in
      List.iter
        (fun e ->
          if Binio.crc32 ~pos:e.e_off ~len:e.e_len data <> e.e_crc then
            corrupt "section %S checksum mismatch" e.e_name)
        entries;
      let rd name =
        let e = find_entry entries name in
        Binio.reader ~pos:e.e_off ~len:e.e_len data
      in
      let has_doc, mcount, lsn = decode_meta (rd "meta") in
      let summary =
        let r = rd "summary" in
        let s = Codec.r_summary r in
        Binio.expect_end r;
        s
      in
      let mods = decode_catalog_section (rd "catalog") mcount in
      let declared, dormant = declared_of entries rd mods in
      let doc =
        if has_doc then (
          let r = rd "doc" in
          let d = Codec.r_doc r in
          Binio.expect_end r;
          Some d)
        else None
      in
      let modules =
        List.map
          (fun (name, xam) ->
            match find_entry_opt entries (pdir_section name) with
            | None ->
                (* v1 layout, or a module that never partitioned: the
                   extent is one monolithic section. *)
                let r = rd (extent_section name) in
                let extent = Codec.r_rel r in
                Binio.expect_end r;
                { Store.name; xam; extent; parts = None }
            | Some _ ->
                let pt_nid, pt_col, dirs = r_pdir (rd (pdir_section name)) in
                let pt_parts =
                  List.mapi
                    (fun i (path, pos) ->
                      let r = rd (part_section name i) in
                      let rel = Codec.r_rel r in
                      Binio.expect_end r;
                      if Xalgebra.Rel.cardinality rel <> Array.length pos then
                        corrupt
                          "partition %d of %S holds %d tuples, directory says %d"
                          i name
                          (Xalgebra.Rel.cardinality rel)
                          (Array.length pos);
                      Store.mk_partition ~col:pt_col ~path ~pos rel)
                    dirs
                in
                let schema =
                  match pt_parts with
                  | p :: _ -> p.Store.p_rel.Xalgebra.Rel.schema
                  | [] -> Xam.Binding.binding_schema xam
                in
                { Store.name; xam;
                  extent = Store.merge_partitions schema pt_parts;
                  parts = Some { Store.pt_nid; pt_col; pt_parts } })
          mods
      in
      { doc; catalog = { Store.summary; modules }; lsn; declared; dormant })

let load_with_lsn ?metrics path =
  Result.map (fun i -> (i.doc, i.catalog, i.lsn)) (read ?metrics path)

(* --- Paging reader ------------------------------------------------------- *)

module Reader = struct
  (* Partition directory of one module, decoded at open time:
     (partitioning nid, column, per-partition (summary path, extent
     positions)). *)
  type pdir = int * int * (int * int array) array

  type t = {
    rd_path : string;
    rd_fd : Unix.file_descr;
    rd_lock : Mutex.t;
    rd_entries : entry list;
    rd_doc : Doc.t option;
    rd_summary : Xsummary.Summary.t;
    rd_mods : (string * Xam.Pattern.t * pdir option) list;
    rd_lsn : int;
    rd_declared : (string * Xam.Pattern.t) list;
    rd_dormant : (string * string) list;
    rd_cache : Xalgebra.Rel.t Lru.t;
    mutable rd_part_faults : (string * int * string) list;
    mutable rd_closed : bool;
    rd_m : meters option;
    (* When the reader is opened on behalf of a named owner (a serving
       tenant), page-ins and partition faults are additionally counted
       into labeled families so a multi-tenant /metrics attributes disk
       activity and blast radius per tenant. *)
    rd_owner : string option;
    rd_pageins : Metrics.counter_family option;
    rd_fault_kinds : Metrics.counter_family option;
  }

  let bump_pageins t =
    match (t.rd_pageins, t.rd_owner) with
    | Some f, Some o -> Metrics.incr (Metrics.counter_in f [ o ])
    | _ -> ()

  let bump_fault_kind t kind =
    match (t.rd_fault_kinds, t.rd_owner) with
    | Some f, Some o -> Metrics.incr (Metrics.counter_in f [ o; kind ])
    | _ -> ()

  (* Positioned read under the caller's lock (the fd's offset is shared
     state). *)
  let pread_exn fd ~off ~len what =
    let buf = Bytes.create len in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let got = ref 0 in
    let eof = ref false in
    while (not !eof) && !got < len do
      let k = Unix.read fd buf !got (len - !got) in
      if k = 0 then eof := true else got := !got + k
    done;
    if !got < len then corrupt "short read of %s: %d of %d bytes" what !got len;
    Bytes.unsafe_to_string buf

  let verified_section fd m entries name =
    let e = find_entry entries name in
    let bytes = pread_exn fd ~off:e.e_off ~len:e.e_len ("section " ^ name) in
    meter m (fun m -> Metrics.add m.mt_read e.e_len);
    if Binio.crc32 bytes <> e.e_crc then corrupt "section %S checksum mismatch" name;
    Binio.reader bytes

  (* The cache budget is in {e bytes} (of on-disk section length, a good
     proxy for resident size), so paging in one huge partition charges
     proportionally instead of counting the same as a tiny one. *)
  let open_ ?(cache_capacity = 16 * 1024 * 1024) ?metrics ?owner path =
    let m = meters metrics in
    let pageins, fault_kinds =
      match (metrics, owner) with
      | Some reg, Some _ ->
          ( Some
              (Metrics.counter_family reg
                 ~help:"extent/partition page-ins from disk, by tenant"
                 "persist_partition_pageins" ~labels:[ "tenant" ]),
            Some
              (Metrics.counter_family reg
                 ~help:"partition page-in failures, by tenant and fault kind"
                 "persist_partition_faults_by_tenant" ~labels:[ "tenant"; "kind" ])
          )
      | _ -> (None, None)
    in
    guard (fun () ->
        let t0 = Unix.gettimeofday () in
        let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
        match
          let file_size = (Unix.fstat fd).Unix.st_size in
          let header = pread_exn fd ~off:0 ~len:(min header_len file_size) "header" in
          let toc_len, toc_crc = parse_fixed_header ~file_size header in
          let toc = pread_exn fd ~off:header_len ~len:toc_len "TOC" in
          meter m (fun m -> Metrics.add m.mt_read (header_len + toc_len));
          if Binio.crc32 toc <> toc_crc then corrupt "TOC checksum mismatch";
          let entries = parse_entries ~file_size toc in
          let has_doc, mcount, lsn = decode_meta (verified_section fd m entries "meta") in
          let summary =
            let r = verified_section fd m entries "summary" in
            let s = Codec.r_summary r in
            Binio.expect_end r;
            s
          in
          let mods = decode_catalog_section (verified_section fd m entries "catalog") mcount in
          let declared, dormant =
            declared_of entries (verified_section fd m entries) mods
          in
          (* Partition directories are small and drive every subsequent
             page-in, so they are decoded (and CRC-verified) up front.
             Extent/partition payloads are only checked as they page in;
             still fail fast on any that is missing outright. *)
          let mods =
            List.map
              (fun (name, xam) ->
                match find_entry_opt entries (pdir_section name) with
                | None ->
                    ignore (find_entry entries (extent_section name));
                    (name, xam, None)
                | Some _ ->
                    let pt_nid, pt_col, dirs =
                      r_pdir (verified_section fd m entries (pdir_section name))
                    in
                    List.iteri
                      (fun i _ -> ignore (find_entry entries (part_section name i)))
                      dirs;
                    (name, xam, Some ((pt_nid, pt_col, Array.of_list dirs) : pdir)))
              mods
          in
          let doc =
            if has_doc then (
              let r = verified_section fd m entries "doc" in
              let d = Codec.r_doc r in
              Binio.expect_end r;
              Some d)
            else None
          in
          { rd_path = path;
            rd_fd = fd;
            rd_lock = Mutex.create ();
            rd_entries = entries;
            rd_doc = doc;
            rd_summary = summary;
            rd_mods = mods;
            rd_lsn = lsn;
            rd_declared = declared;
            rd_dormant = dormant;
            rd_cache =
              Lru.create ?metrics ~metric_prefix:"persist_extent_cache" cache_capacity;
            rd_part_faults = [];
            rd_closed = false;
            rd_m = m;
            rd_owner = owner;
            rd_pageins = pageins;
            rd_fault_kinds = fault_kinds }
        with
        | t ->
            meter m (fun m -> Metrics.observe m.mt_open (Unix.gettimeofday () -. t0));
            t
        | exception e ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            raise e)

  let path t = t.rd_path
  let doc t = t.rd_doc
  let lsn t = t.rd_lsn
  let declared t = t.rd_declared
  let dormant t = t.rd_dormant

  (* Page one rel-bearing section through the buffer cache, keyed and
     byte-costed by its section name/length. Caller holds [rd_lock].
     [fail reason] builds the exception to raise (letting the caller
     also record the failure). *)
  let cached_rel_locked t sect ~(fail : kind:string -> string -> exn) =
    match Lru.find t.rd_cache sect with
    | Some rel ->
        meter t.rd_m (fun m -> Metrics.incr m.mt_hits);
        rel
    | None -> (
        meter t.rd_m (fun m -> Metrics.incr m.mt_misses);
        if t.rd_closed then raise (fail ~kind:"closed" "snapshot reader is closed");
        match
          let e = find_entry t.rd_entries sect in
          let r = verified_section t.rd_fd t.rd_m t.rd_entries sect in
          let rel = Codec.r_rel r in
          Binio.expect_end r;
          (e.e_len, rel)
        with
        | len, rel ->
            Lru.add ~cost:(max len 1) t.rd_cache sect rel;
            bump_pageins t;
            rel
        | exception Binio.Corrupt reason -> raise (fail ~kind:"corrupt" reason)
        | exception Unix.Unix_error (err, fn, _) ->
            raise (fail ~kind:"io" (Printf.sprintf "%s: %s" fn (Unix.error_message err)))
        | exception Invalid_argument reason ->
            raise (fail ~kind:"corrupt" ("malformed extent: " ^ reason))
        | exception Out_of_memory ->
            raise (fail ~kind:"resource" "extent decode exhausted memory")
        | exception Stack_overflow ->
            raise (fail ~kind:"resource" "extent decode over-nested"))

  let extent t name () =
    Mutex.lock t.rd_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.rd_lock)
      (fun () ->
        cached_rel_locked t (extent_section name)
          ~fail:(fun ~kind:_ reason -> Store.Module_fault { name; reason }))

  (* Page the [i]-th partition of [name] in. A corrupt partition is
     recorded individually — siblings keep answering and the fault
     report pins the blast radius to one partition, not the module. The
     raised fault still carries the module name: that is the engine's
     quarantine key. *)
  let load_partition t name ~pt_col dirs i =
    if i < 0 || i >= Array.length dirs then
      invalid_arg (Printf.sprintf "partition index %d out of range for %S" i name);
    let path, pos = dirs.(i) in
    Mutex.lock t.rd_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.rd_lock)
      (fun () ->
        let fail ~kind reason =
          t.rd_part_faults <- (name, i, reason) :: t.rd_part_faults;
          meter t.rd_m (fun m -> Metrics.incr m.mt_pfaults);
          bump_fault_kind t kind;
          Store.Module_fault
            { name; reason = Printf.sprintf "partition %d: %s" i reason }
        in
        let rel = cached_rel_locked t (part_section name i) ~fail in
        if Xalgebra.Rel.cardinality rel <> Array.length pos then
          raise (fail ~kind:"corrupt" "partition tuple count disagrees with the directory");
        Store.mk_partition ~col:pt_col ~path ~pos rel)

  let partition_faults t =
    Mutex.lock t.rd_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.rd_lock)
      (fun () -> List.rev t.rd_part_faults)

  let lazy_catalog t =
    { Store.lc_summary = t.rd_summary;
      lc_modules =
        List.map
          (fun (name, xam, pdir) ->
            match pdir with
            | None ->
                { Store.lm_name = name; lm_xam = xam;
                  lm_extent = extent t name; lm_parts = None }
            | Some (pt_nid, pt_col, dirs) ->
                let load i = load_partition t name ~pt_col dirs i in
                let lm_extent () =
                  let parts = List.init (Array.length dirs) load in
                  let schema =
                    match parts with
                    | p :: _ -> p.Store.p_rel.Xalgebra.Rel.schema
                    | [] -> Xam.Binding.binding_schema xam
                  in
                  Store.merge_partitions schema parts
                in
                { Store.lm_name = name; lm_xam = xam; lm_extent;
                  lm_parts =
                    Some
                      { Store.lpt_nid = pt_nid; lpt_col = pt_col;
                        lpt_paths = Array.to_list (Array.map fst dirs);
                        lpt_load = load } })
          t.rd_mods }

  let close t =
    Mutex.lock t.rd_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.rd_lock)
      (fun () ->
        if not t.rd_closed then begin
          t.rd_closed <- true;
          try Unix.close t.rd_fd with Unix.Unix_error _ -> ()
        end)
end
