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

(* A one-path extent is not copied: its single partition's payload is the
   extent record itself, at positions 0..n-1. *)
let test_one_path_partition_is_the_extent () =
  let cat = Store.catalog_of doc (Models.path_partitioned summary) in
  List.iter
    (fun (m : Store.module_) ->
      match m.Store.parts with
      | Some { Store.pt_parts = [ p ]; _ } ->
          Alcotest.(check bool) (m.Store.name ^ ": payload == extent") true
            (p.Store.p_rel == m.Store.extent);
          Alcotest.(check bool) (m.Store.name ^ ": positions 0..n-1") true
            (p.Store.p_pos = Array.init (Rel.cardinality m.Store.extent) Fun.id)
      | Some { Store.pt_parts = []; _ } ->
          Alcotest.(check int) (m.Store.name ^ ": empty") 0
            (Rel.cardinality m.Store.extent)
      | Some _ -> Alcotest.failf "%s: a path module splits" m.Store.name
      | None -> Alcotest.failf "%s: no directory" m.Store.name)
    cat.Store.modules

(* Random documents under [tag_partitioned]: every multi-path module's
   partitions hold exactly the tuples φ puts on their path, at ascending
   positions, and reassemble the extent exactly. *)
let random_doc seed =
  let module W = Xworkload in
  match seed mod 4 with
  | 0 -> W.Gen_bib.generate_doc ~seed ~books:(1 + (seed mod 7)) ~theses:(seed mod 5) ()
  | 1 -> W.Gen_dblp.generate_doc ~seed ~entries:(1 + (seed mod 9)) ()
  | 2 -> W.Gen_sci.nasa_doc ~seed ~datasets:(1 + (seed mod 2)) ()
  | _ -> W.Gen_xmark.generate_doc ~seed W.Gen_xmark.tiny

let multi_path_reassembly_prop =
  QCheck2.Test.make ~name:"tag partitions classify by φ and reassemble extents"
    ~count:40
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let d = random_doc seed in
      let _, phi = S.build d in
      let cat = Store.catalog_of d (Models.tag_partitioned d) in
      let multi = ref 0 in
      List.iter
        (fun (m : Store.module_) ->
          match m.Store.parts with
          | None -> ()
          | Some p ->
              if List.length p.Store.pt_parts > 1 then incr multi;
              List.iter
                (fun (part : Store.partition) ->
                  let pos = Array.to_list part.Store.p_pos in
                  if List.sort_uniq compare pos <> pos then
                    QCheck2.Test.fail_reportf "%s: positions not ascending" m.Store.name;
                  List.iter
                    (fun t ->
                      let path =
                        match Rel.atom_field t p.Store.pt_col with
                        | Xalgebra.Value.Id id -> (
                            match Xdm.Doc.handle_of_id d id with
                            | Some h -> phi.(h)
                            | None -> -1)
                        | _ -> -1
                      in
                      if path <> part.Store.p_path then
                        QCheck2.Test.fail_reportf "%s: tuple on path %d in partition %d"
                          m.Store.name path part.Store.p_path)
                    part.Store.p_rel.Rel.tuples)
                p.Store.pt_parts;
              if
                not
                  (Store.rel_equal
                     (Store.merge_partitions m.Store.extent.Rel.schema p.Store.pt_parts)
                     m.Store.extent)
              then QCheck2.Test.fail_reportf "%s: partitions do not reassemble" m.Store.name)
        cat.Store.modules;
      !multi > 0 || QCheck2.assume_fail ())

(* --- Byte-identity across partitioning and domain counts ------------------ *)

let identical_answers ~seed ~domains =
  let pats = patterns_for seed in
  let run cat ~domains =
    let e = Engine.create ~doc cat in
    List.map
      (fun r ->
        match Result.to_option r with
        | Some r -> Some (r.Engine.rel, r.Engine.explain)
        | None -> None)
      (Engine.query_batch ~domains e pats)
  in
  let mono = run stripped ~domains:1 in
  let check part =
    List.for_all2
      (fun m p ->
        match (m, p) with
        | None, None -> true
        | Some (mr, _), Some (pr, _) -> mr = pr (* byte identity, not set *)
        | _ -> false)
      mono part
  in
  check (run catalog ~domains)

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

(* --- Snapshots ------------------------------------------------------------- *)

let tmp_path =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xam_part_%d_%s_%d.snap" (Unix.getpid ()) tag !n)

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

(* --- Version-1 snapshots still load --------------------------------------- *)

let test_v1_snapshot_loads () =
  (* A v1 file is a v2 file with no partition directories and the
     version word set to 1. Writers emit version 3 now, so the v1 file is
     committed: the stripped catalog below with the document, written by
     the version 2 writer and its version word patched to 1. It must load
     to exactly that image, and so must its rewrite as version 3. *)
  let path = Snapshot_images.fixture "snapshot_v1.snap" in
  let data = Snapshot_images.read_file path in
  Alcotest.(check int) "the fixture is version 1" 1 (Snapshot_images.version_of data);
  Alcotest.(check bool) "a v1 file has no partition directories" true
    (List.for_all
       (fun (n, _, _) -> String.length n < 5 || String.sub n 0 5 <> "pdir:")
       (toc_entries data));
  let declared =
    List.map (fun (m : Store.module_) -> (m.Store.name, m.Store.xam)) stripped.Store.modules
  in
  ignore
    (Snapshot_images.check_loads ~tmp:(tmp_path "v1") path
       { Snapshot.doc = Some doc; catalog = stripped; lsn = 0; declared; dormant = [] })

let () =
  Alcotest.run "partition"
    [ ( "store",
        [ Alcotest.test_case "partitions reassemble extents" `Quick
            test_merge_is_identity;
          Alcotest.test_case "a multi-partition module exists" `Quick
            test_multi_partition_module_exists;
          Alcotest.test_case "a one-path partition is its extent" `Quick
            test_one_path_partition_is_the_extent;
          QCheck_alcotest.to_alcotest multi_path_reassembly_prop ] );
      ( "identity",
        [ QCheck_alcotest.to_alcotest byte_identity_prop;
          Alcotest.test_case "pruning surfaces in EXPLAIN" `Quick
            test_pruning_surfaces_in_explain ] );
      ( "snapshot",
        [ Alcotest.test_case "version-1 files load" `Quick
            test_v1_snapshot_loads ] ) ]
