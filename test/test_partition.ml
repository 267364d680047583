(* Path-partitioned storage: partitions must be invisible to every
   answer. Partitioned catalogs produce byte-identical results to the
   same catalog with the partition directories stripped, at 1, 2 and 4
   domains; partitions reassemble extents exactly; scan pruning is
   surfaced in EXPLAIN without changing answers; a snapshot with one
   corrupt partition quarantines that partition alone while its siblings
   keep answering; and version-1 snapshot files still load. *)

module P = Xam.Pattern
module Rel = Xalgebra.Rel
module S = Xsummary.Summary
module Store = Xstorage.Store
module Models = Xstorage.Models
module Snapshot = Xpersist.Snapshot
module Binio = Xpersist.Binio
module Engine = Xengine.Engine
module Pool = Xengine.Pool
module Pg = Xworkload.Pattern_gen

let doc = Xworkload.Gen_bib.generate_doc ~seed:23 ~books:40 ~theses:15 ()
let summary = S.of_doc doc

(* Tag-partitioned storage is the interesting case for path partitioning:
   one extent per tag, and a tag occurring at several summary paths
   (titles under books {e and} theses) splits into several partitions.
   (The [path_partitioned] model trivially yields one partition per
   module — its extents are single-path by construction.) *)
let catalog = Store.catalog_of doc (Models.tag_partitioned doc)

(* The same catalog with every partition directory dropped: the
   monolithic ground truth. *)
let stripped =
  { catalog with
    Store.modules =
      List.map
        (fun (m : Store.module_) -> { m with Store.parts = None })
        catalog.Store.modules }

let patterns_for seed =
  List.concat_map
    (fun labels ->
      Pg.generate_many ~seed summary
        { Pg.default with Pg.return_labels = labels; Pg.size = 4 }
        ~count:6)
    [ [ "title" ]; [ "author" ]; [ "title"; "author" ] ]

let with_pool domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* --- Partitions reassemble extents exactly -------------------------------- *)

let test_merge_is_identity () =
  let partitioned = ref 0 in
  List.iter
    (fun (m : Store.module_) ->
      match m.Store.parts with
      | None -> ()
      | Some p ->
          incr partitioned;
          Alcotest.(check bool)
            (m.Store.name ^ ": merged partitions = extent")
            true
            (Store.merge_partitions m.Store.extent.Rel.schema p.Store.pt_parts
            = m.Store.extent);
          Alcotest.(check bool)
            (m.Store.name ^ ": pruning to every path keeps the extent")
            true
            (Store.pruned_extent m ~allowed:(Store.partition_paths p)
            = m.Store.extent))
    catalog.Store.modules;
  Alcotest.(check bool) "the bib catalog actually partitions something" true
    (!partitioned > 0)

let test_multi_partition_module_exists () =
  (* The corrupt-partition test below needs a module with at least two
     partitions (a tag occurring at two summary paths, e.g. titles under
     both books and theses). Make that assumption explicit. *)
  Alcotest.(check bool) "some module splits into >= 2 partitions" true
    (List.exists
       (fun (m : Store.module_) ->
         match m.Store.parts with
         | Some p -> List.length p.Store.pt_parts >= 2
         | None -> false)
       catalog.Store.modules)

(* --- Byte-identity across partitioning and domain counts ------------------ *)

let identical_answers ~seed ~domains =
  let pats = patterns_for seed in
  let run cat pool =
    let e = Engine.create ?pool ~doc cat in
    List.map
      (fun p ->
        match Result.to_option (Engine.query_r e p) with
        | Some r -> Some (r.Engine.rel, r.Engine.explain)
        | None -> None)
      pats
  in
  let mono = run stripped None in
  let check part =
    List.for_all2
      (fun m p ->
        match (m, p) with
        | None, None -> true
        | Some (mr, _), Some (pr, _) -> mr = pr (* byte identity, not set *)
        | _ -> false)
      mono part
  in
  if domains = 1 then check (run catalog None)
  else with_pool domains (fun pool -> check (run catalog (Some pool)))

let byte_identity_prop =
  QCheck2.Test.make
    ~name:"partitioned = monolithic, byte-identical at 1/2/4 domains"
    ~count:5
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      identical_answers ~seed ~domains:1
      && identical_answers ~seed ~domains:2
      && identical_answers ~seed ~domains:4)

let test_pruning_surfaces_in_explain () =
  (* Across a workload over the partitioned catalog, EXPLAIN must report
     scans, and at least one plan should actually prune (titles live at
     book and thesis paths; a title-only query needs just one). The
     pruned answers are already byte-checked above — here we check the
     counts are surfaced and sane. *)
  let e = Engine.create ~doc catalog in
  let scanned = ref 0 and pruned = ref 0 in
  List.iter
    (fun p ->
      match Result.to_option (Engine.query_r e p) with
      | None -> ()
      | Some r ->
          let ex = r.Engine.explain in
          Alcotest.(check bool) "prune counts are non-negative" true
            (ex.Xengine.Explain.partitions_scanned >= 0
            && ex.Xengine.Explain.partitions_pruned >= 0);
          scanned := !scanned + ex.Xengine.Explain.partitions_scanned;
          pruned := !pruned + ex.Xengine.Explain.partitions_pruned)
    (List.concat_map patterns_for [ 3; 7; 11 ]);
  Alcotest.(check bool) "plans scanned partitions" true (!scanned > 0);
  Alcotest.(check bool) "at least one plan pruned a partition" true
    (!pruned > 0)

(* --- Snapshot: corrupt one partition, siblings answer --------------------- *)

let tmp_path =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xam_part_%d_%s_%d.snap" (Unix.getpid ()) tag !n)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let get_int data off =
  let r = Binio.reader ~pos:off ~len:8 data in
  Binio.r_int r

(* Walk the snapshot TOC: [(name, payload offset, payload length)]. *)
let toc_entries data =
  let toc_len = get_int data 16 in
  let r = Binio.reader ~pos:32 ~len:toc_len data in
  let n = Binio.r_int r in
  List.init n (fun _ ->
      let name = Binio.r_str r in
      let off = Binio.r_int r in
      let len = Binio.r_int r in
      let _crc = Binio.r_int r in
      (name, off, len))

let test_corrupt_partition_quarantines_alone () =
  let victim =
    List.find
      (fun (m : Store.module_) ->
        match m.Store.parts with
        | Some p -> List.length p.Store.pt_parts >= 2
        | None -> false)
      catalog.Store.modules
  in
  let name = victim.Store.name in
  let path = tmp_path "corrupt" in
  (match Snapshot.save ~doc path catalog with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let data = read_file path in
      let sect = Printf.sprintf "part:%s:0" name in
      let _, off, len =
        match List.find_opt (fun (n, _, _) -> n = sect) (toc_entries data) with
        | Some e -> e
        | None -> Alcotest.failf "snapshot has no %s section" sect
      in
      let b = Bytes.of_string data in
      let target = off + (len / 2) in
      Bytes.set b target
        (Char.chr (Char.code (Bytes.get b target) lxor 0x40));
      write_file path (Bytes.to_string b);
      match Snapshot.Reader.open_ path with
      | Error e -> Alcotest.failf "reader should open: %s" e
      | Ok r ->
          Fun.protect
            ~finally:(fun () -> Snapshot.Reader.close r)
            (fun () ->
              let lc = Snapshot.Reader.lazy_catalog r in
              let lm =
                List.find
                  (fun (m : Store.lazy_module) -> m.Store.lm_name = name)
                  lc.Store.lc_modules
              in
              let lp =
                match lm.Store.lm_parts with
                | Some lp -> lp
                | None -> Alcotest.fail "victim lost its partition directory"
              in
              (* Partition 0 faults... *)
              (match lp.Store.lpt_load 0 with
              | _ -> Alcotest.fail "corrupt partition paged in"
              | exception Store.Module_fault { name = n; reason } ->
                  Alcotest.(check string) "fault names the module" name n;
                  Alcotest.(check bool) "reason pins the partition" true
                    (String.length reason >= 11
                    && String.sub reason 0 11 = "partition 0"));
              (* ...its siblings answer... *)
              List.iteri
                (fun i _ ->
                  if i > 0 then
                    match lp.Store.lpt_load i with
                    | (_ : Store.partition) -> ()
                    | exception e ->
                        Alcotest.failf "sibling partition %d faulted: %s" i
                          (Printexc.to_string e))
                lp.Store.lpt_paths;
              (* ...and the fault log pins exactly partition 0. *)
              let faults = Snapshot.Reader.partition_faults r in
              Alcotest.(check bool) "at least one fault recorded" true
                (faults <> []);
              Alcotest.(check bool) "all faults are (victim, 0)" true
                (List.for_all (fun (n, i, _) -> n = name && i = 0) faults);
              (* Every other module still materializes. *)
              List.iter
                (fun (m : Store.lazy_module) ->
                  if m.Store.lm_name <> name then
                    ignore (m.Store.lm_extent ()))
                lc.Store.lc_modules))

(* --- Version-1 snapshots still load --------------------------------------- *)

let test_v1_snapshot_loads () =
  (* A v1 file is exactly a v2 file with no partition directories and the
     version field set to 1 (the version int is outside every CRC, so
     patching it is safe). Write one from the stripped catalog and
     require both open paths to read it back losslessly. *)
  let path = tmp_path "v1" in
  (match Snapshot.save ~doc path stripped with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let data = read_file path in
      Alcotest.(check bool) "stripped catalogs serialize without pdirs" true
        (List.for_all
           (fun (n, _, _) ->
             String.length n < 5 || String.sub n 0 5 <> "pdir:")
           (toc_entries data));
      let b = Bytes.of_string data in
      Alcotest.(check int) "writer emits version 2" 2 (get_int data 8);
      Bytes.set b 8 '\001';
      write_file path (Bytes.to_string b);
      (match Snapshot.load_with_lsn path with
      | Error e -> Alcotest.failf "v1 load failed: %s" e
      | Ok (_, cat, _) ->
          Alcotest.(check bool) "v1 eager load round-trips" true
            (List.for_all2
               (fun (a : Store.module_) (b : Store.module_) ->
                 a.Store.name = b.Store.name && a.Store.extent = b.Store.extent)
               stripped.Store.modules cat.Store.modules));
      match Snapshot.Reader.open_ path with
      | Error e -> Alcotest.failf "v1 reader open failed: %s" e
      | Ok r ->
          Fun.protect
            ~finally:(fun () -> Snapshot.Reader.close r)
            (fun () ->
              let cat = Store.materialize_lazy (Snapshot.Reader.lazy_catalog r) in
              Alcotest.(check bool) "v1 paging load round-trips" true
                (List.for_all2
                   (fun (a : Store.module_) (b : Store.module_) ->
                     a.Store.name = b.Store.name
                     && a.Store.extent = b.Store.extent)
                   stripped.Store.modules cat.Store.modules)))

let () =
  Alcotest.run "partition"
    [ ( "store",
        [ Alcotest.test_case "partitions reassemble extents" `Quick
            test_merge_is_identity;
          Alcotest.test_case "a multi-partition module exists" `Quick
            test_multi_partition_module_exists ] );
      ( "identity",
        [ QCheck_alcotest.to_alcotest byte_identity_prop;
          Alcotest.test_case "pruning surfaces in EXPLAIN" `Quick
            test_pruning_surfaces_in_explain ] );
      ( "snapshot",
        [ Alcotest.test_case "corrupt partition quarantines alone" `Quick
            test_corrupt_partition_quarantines_alone;
          Alcotest.test_case "version-1 files load" `Quick
            test_v1_snapshot_loads ] ) ]
