(* The crash-safe write path: WAL framing and codec, recovery by replay,
   the torn-tail vs mid-log corruption taxonomy, deterministic crash
   injection across random kill points, incremental maintenance
   (partition splicing, module quarantine and resurrection) and the
   checkpoint protocol. Everything is seeded — a failure reproduces
   exactly. *)

module Engine = Xengine.Engine
module Xerror = Xengine.Xerror
module Wal = Xwal.Wal
module Fsio = Xwal.Fsio
module Doc = Xdm.Doc
module T = Xdm.Xml_tree
module S = Xsummary.Summary
module Store = Xstorage.Store
module Models = Xstorage.Models
module Snapshot = Xpersist.Snapshot

(* --- scratch files ------------------------------------------------------ *)

let fresh =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xam_wal_%d_%s_%d" (Unix.getpid ()) tag !n)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_scratch tag f =
  let path = fresh tag in
  Fun.protect ~finally:(fun () -> try rm_rf path with _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* --- fixtures ----------------------------------------------------------- *)

let bib () = Xworkload.Gen_bib.generate_doc ~seed:31 ~books:8 ~theses:3 ()
let engine_of doc = Engine.of_doc doc (Models.path_partitioned (S.of_doc doc))

(* A deterministic mutation stream: op [i] is a pure function of [seed],
   [i] and the document state after ops 1..i-1 — the same generator the
   [uload churn] workload uses, so the suite exercises exactly the shape
   the CI recovery-smoke job replays. *)
let gen_op doc ~seed i =
  let rng = Random.State.make [| seed; i |] in
  let elements = ref [] and leaves = ref [] in
  Doc.iter
    (fun h ->
      match Doc.kind doc h with
      | Doc.Element -> if h <> 0 then elements := h :: !elements
      | Doc.Attribute | Doc.Text -> leaves := h :: !leaves)
    doc;
  let elements = Array.of_list (List.rev !elements) in
  let leaves = Array.of_list (List.rev !leaves) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let roll = Random.State.int rng 100 in
  if roll < 50 || Array.length elements = 0 then
    let parent = if Array.length elements = 0 then Doc.root doc else pick elements in
    Engine.Insert_subtree
      { parent;
        before = None;
        xml = Printf.sprintf "<w%d a=\"%d\">t%d</w%d>" (i mod 7) i i (i mod 7) }
  else if roll < 75 && Array.length leaves > 0 then
    Engine.Update_value { node = pick leaves; value = Printf.sprintf "v%d" i }
  else Engine.Delete_subtree { node = pick elements }

let apply_ok e op =
  match Engine.apply_r e op with
  | Ok r -> r
  | Error err -> Alcotest.failf "apply failed: %s" (Xerror.to_string err)

let churn e ~seed n =
  for i = 1 to n do
    let doc = Option.get (Engine.document e) in
    ignore (apply_ok e (gen_op doc ~seed i))
  done

(* The byte-level equality oracle: two engines are equivalent iff their
   persisted snapshots — document, summary, catalog, extents, LSN — are
   the same bytes. *)
let snapshot_bytes e =
  with_scratch "sig" (fun path ->
      match Engine.save_snapshot_r e path with
      | Ok _ -> read_file path
      | Error err -> Alcotest.failf "save failed: %s" (Xerror.to_string err))

let doc_string e =
  match Engine.document e with
  | Some d -> T.serialize (Doc.to_tree d (Doc.root d))
  | None -> ""

(* --- WAL record codec --------------------------------------------------- *)

let op_gen =
  QCheck2.Gen.(
    let str = string_size ~gen:(char_range '\000' '\255') (int_bound 48) in
    oneof
      [ (let* parent = int_bound 500 in
         let* before = opt (int_bound 500) in
         let* xml = str in
         return (Wal.Insert_subtree { parent; before; xml }));
        map (fun node -> Wal.Delete_subtree { node }) (int_bound 500);
        map2
          (fun node value -> Wal.Update_value { node; value })
          (int_bound 500) str ])

let roundtrip_prop =
  QCheck2.Test.make ~name:"record codec roundtrip through a segment" ~count:60
    QCheck2.Gen.(list_size (int_range 1 20) op_gen)
    (fun ops ->
      with_scratch "codec" (fun dir ->
          let w =
            match Wal.Writer.open_ ~dir ~lsn:0 () with
            | Ok w -> w
            | Error e -> Alcotest.failf "open failed: %s" e
          in
          List.iteri
            (fun i op ->
              match Wal.Writer.append w op with
              | Ok (lsn, _) ->
                  if lsn <> i + 1 then Alcotest.failf "lsn %d at append %d" lsn i
              | Error e -> Alcotest.failf "append failed: %s" e)
            ops;
          Wal.Writer.close w;
          match Wal.read ~dir with
          | Error e -> Alcotest.failf "read failed: %s" e
          | Ok (records, tail) ->
              tail = Wal.Clean
              && List.map (fun (r : Wal.record) -> r.Wal.op) records = ops
              && List.mapi (fun i _ -> i + 1) ops
                 = List.map (fun (r : Wal.record) -> r.Wal.lsn) records))

(* --- replay equivalence ------------------------------------------------- *)

(* Save a base snapshot, run [n] logged mutations, then recover
   [snapshot + WAL] into a fresh engine: byte-identical state. *)
let test_replay_equality () =
  with_scratch "snap" (fun snap ->
      with_scratch "wal" (fun wal ->
          let writer = engine_of (bib ()) in
          (match Engine.save_snapshot_r writer snap with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "save: %s" (Xerror.to_string e));
          Alcotest.(check int) "attach on fresh dir replays nothing" 0
            (Xerror.get_exn (Engine.attach_wal_r writer wal));
          churn writer ~seed:5 12;
          Engine.detach_wal writer;
          let recovered = Xerror.get_exn (Engine.of_snapshot_r snap) in
          Alcotest.(check int) "all records replay" 12
            (Xerror.get_exn (Engine.attach_wal_r recovered wal));
          Alcotest.(check int) "lsn restored" 12 (Engine.lsn recovered);
          Alcotest.(check string) "byte-identical state"
            (snapshot_bytes writer) (snapshot_bytes recovered)))

(* A snapshot taken mid-stream makes the older WAL prefix redundant;
   replay must skip it (idempotence via the snapshot's LSN). *)
let test_replay_idempotent () =
  with_scratch "snap" (fun snap ->
      with_scratch "mid" (fun mid ->
          with_scratch "wal" (fun wal ->
              let writer = engine_of (bib ()) in
              ignore (Xerror.get_exn (Engine.save_snapshot_r writer snap));
              ignore (Xerror.get_exn (Engine.attach_wal_r writer wal));
              churn writer ~seed:6 7;
              ignore (Xerror.get_exn (Engine.save_snapshot_r writer mid));
              for i = 8 to 11 do
                let doc = Option.get (Engine.document writer) in
                ignore (apply_ok writer (gen_op doc ~seed:6 i))
              done;
              Engine.detach_wal writer;
              let recovered = Xerror.get_exn (Engine.of_snapshot_r mid) in
              Alcotest.(check int) "snapshot lsn carried" 7 (Engine.lsn recovered);
              Alcotest.(check int) "only the suffix replays" 4
                (Xerror.get_exn (Engine.attach_wal_r recovered wal));
              Alcotest.(check string) "byte-identical state"
                (snapshot_bytes writer) (snapshot_bytes recovered))))

(* --- crash injection ---------------------------------------------------- *)

(* The engine's mutation on a bare document: lets a batch generate op
   [k+1] against the document after op [k] before any of it applies. *)
let doc_apply doc = function
  | Engine.Insert_subtree { parent; before; xml } ->
      Doc.insert_subtree doc ~parent ?before (T.parse xml)
  | Engine.Delete_subtree { node } -> Doc.delete_subtree doc node
  | Engine.Update_value { node; value } -> Doc.update_value doc node value

(* Kill the writer at the [kill]-th mutating filesystem operation while
   it applies the [gen_op] stream in batches of [sizes], and recover.
   The WAL may hold at most the one batch the engine never acknowledged
   (a crash between fsync and install, or a prefix of it when the write
   tore); replay goes record by record, so the recovered engine must be
   byte-identical to a never-crashed engine that applied exactly the
   replayed prefix one op at a time — and, when no crash hit, so must
   the batched engine itself. *)
let run_crash_point ~seed ~kill ~sizes =
  with_scratch "snap" (fun snap ->
      with_scratch "wal" (fun wal ->
          let base = engine_of (bib ()) in
          ignore (Xerror.get_exn (Engine.save_snapshot_r base snap));
          let harness = Fsio.Crash.create ~seed ~crash_after:kill () in
          let crashing = Xerror.get_exn (Engine.of_snapshot_r snap) in
          let applied = ref 0 and in_flight = ref 0 and crashed = ref false in
          (try
             ignore
               (Xerror.get_exn
                  (Engine.attach_wal_r ~fs:(Fsio.Crash.ops harness) crashing wal));
             let doc = ref (Option.get (Engine.document crashing)) and i = ref 0 in
             List.iter
               (fun n ->
                 let ops =
                   List.init n (fun _ ->
                       incr i;
                       let op = gen_op !doc ~seed !i in
                       doc := doc_apply !doc op;
                       op)
                 in
                 in_flight := n;
                 match Engine.apply_batch_r crashing ops with
                 | Ok _ ->
                     applied := !applied + n;
                     in_flight := 0
                 | Error e -> Alcotest.failf "apply_batch: %s" (Xerror.to_string e))
               sizes
           with Fsio.Crashed _ -> crashed := true);
          let recovered = Xerror.get_exn (Engine.of_snapshot_r snap) in
          let replayed = Xerror.get_exn (Engine.attach_wal_r recovered wal) in
          Engine.detach_wal recovered;
          if replayed < !applied || replayed > !applied + !in_flight then
            Alcotest.failf "kill=%d seed=%d: %d acknowledged but %d replayed"
              kill seed !applied replayed;
          let reference = Xerror.get_exn (Engine.of_snapshot_r snap) in
          for i = 1 to replayed do
            let doc = Option.get (Engine.document reference) in
            ignore (apply_ok reference (gen_op doc ~seed i))
          done;
          let expected = snapshot_bytes reference in
          if snapshot_bytes recovered <> expected then
            Alcotest.failf "kill=%d seed=%d: recovered state diverges" kill seed;
          if (not !crashed) && snapshot_bytes crashing <> expected then
            Alcotest.failf "kill=%d seed=%d: batched state diverges" kill seed;
          true))

(* Batches of one: what [apply_r] does. *)
let crash_equiv_prop =
  QCheck2.Test.make ~name:"recovery is crash-equivalent at random kill points"
    ~count:25
    QCheck2.Gen.(pair (int_range 1 60) (int_range 0 1000))
    (fun (kill, seed) ->
      run_crash_point ~seed ~kill ~sizes:(List.init 20 (fun _ -> 1)))

let batched_crash_equiv_prop =
  QCheck2.Test.make
    ~name:"batched applies recover to the per-record reference" ~count:25
    QCheck2.Gen.(
      triple (int_range 1 60) (int_range 0 1000)
        (list_size (int_range 1 8) (int_range 1 5)))
    (fun (kill, seed, sizes) -> run_crash_point ~seed ~kill ~sizes)

(* --- corruption taxonomy ------------------------------------------------ *)

(* A five-record WAL in a fresh directory, writer closed. *)
let sample_wal dir =
  let w =
    match Wal.Writer.open_ ~dir ~lsn:0 () with
    | Ok w -> w
    | Error e -> Alcotest.failf "open: %s" e
  in
  for i = 1 to 5 do
    match Wal.Writer.append w (Wal.Update_value { node = i; value = "v" }) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "append: %s" e
  done;
  Wal.Writer.close w

let only_segment dir =
  match
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".seg")
         (Array.to_list (Sys.readdir dir)))
  with
  | [ f ] -> Filename.concat dir f
  | l -> Alcotest.failf "expected one segment, found %d" (List.length l)

let flip_byte data i =
  let b = Bytes.of_string data in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

let expect_torn ~records what = function
  | Error e -> Alcotest.failf "%s: failed closed on a torn tail: %s" what e
  | Ok (recs, Wal.Torn _) ->
      Alcotest.(check int) (what ^ ": surviving records") records
        (List.length recs)
  | Ok (_, Wal.Clean) -> Alcotest.failf "%s: damage not detected" what

let expect_error what = function
  | Error _ -> ()
  | Ok (_, Wal.Torn _) ->
      Alcotest.failf "%s: mid-log corruption misread as a torn tail" what
  | Ok (_, Wal.Clean) -> Alcotest.failf "%s: corruption not detected" what

let test_torn_truncated_frame () =
  with_scratch "wal" (fun dir ->
      sample_wal dir;
      let seg = only_segment dir in
      let data = read_file seg in
      write_file seg (String.sub data 0 (String.length data - 3));
      expect_torn ~records:4 "truncated tail" (Wal.read ~dir);
      (match Wal.read ~dir with
      | Ok (_, (Wal.Torn _ as tail)) -> (
          match Wal.repair tail with
          | Ok () -> ()
          | Error e -> Alcotest.failf "repair: %s" e)
      | _ -> assert false);
      match Wal.read ~dir with
      | Ok (recs, Wal.Clean) ->
          Alcotest.(check int) "clean after repair" 4 (List.length recs)
      | _ -> Alcotest.fail "repair did not restore a clean tail")

let test_torn_bitflip_tail () =
  with_scratch "wal" (fun dir ->
      sample_wal dir;
      let seg = only_segment dir in
      let data = read_file seg in
      (* last payload byte: CRC mismatch with nothing valid after it *)
      write_file seg (flip_byte data (String.length data - 1));
      expect_torn ~records:4 "bit-flipped tail" (Wal.read ~dir))

let test_midlog_bitflip_fails_closed () =
  with_scratch "wal" (fun dir ->
      sample_wal dir;
      let seg = only_segment dir in
      let data = read_file seg in
      (* a byte in the second record's frame: valid frames follow, so this
         is damage to acknowledged history *)
      write_file seg (flip_byte data (24 + 30));
      expect_error "mid-log bit flip" (Wal.read ~dir))

let test_hostile_length () =
  with_scratch "wal" (fun dir ->
      sample_wal dir;
      let seg = only_segment dir in
      let data = read_file seg in
      (* an appended frame header whose length field points far out of
         bounds: tail damage, the five real records survive *)
      let huge = Bytes.make 16 '\x00' in
      Bytes.set huge 0 '\xff';
      Bytes.set huge 7 '\x7f';
      write_file seg (data ^ Bytes.to_string huge);
      expect_torn ~records:5 "hostile length" (Wal.read ~dir))

let test_duplicate_frame_fails_closed () =
  with_scratch "wal" (fun dir ->
      sample_wal dir;
      let seg = only_segment dir in
      let data = read_file seg in
      (* re-append the last frame verbatim: its CRC is valid but its LSN
         repeats — valid-looking bytes that contradict the sequence are
         corruption, not a torn tail *)
      let frame_len = (String.length data - 24) / 5 in
      let last = String.sub data (String.length data - frame_len) frame_len in
      write_file seg (data ^ last);
      expect_error "duplicate LSN with valid CRC" (Wal.read ~dir))

let test_empty_segment () =
  with_scratch "wal" (fun dir ->
      sample_wal dir;
      (* a zero-length segment left by a crashed rotation *)
      let stray = Filename.concat dir (Printf.sprintf "wal-%016d.seg" 6) in
      write_file stray "";
      expect_torn ~records:5 "empty trailing segment" (Wal.read ~dir);
      (match Wal.read ~dir with
      | Ok (_, (Wal.Torn _ as tail)) -> (
          match Wal.repair tail with
          | Ok () -> ()
          | Error e -> Alcotest.failf "repair: %s" e)
      | _ -> assert false);
      Alcotest.(check bool) "repair removed the stray segment" false
        (Sys.file_exists stray))

(* The engine boundary never raises on a damaged log: mid-log corruption
   and LSN gaps come back as typed [Wal_error]s. *)
let test_engine_fails_closed () =
  let wal_error = function
    | Error (Xerror.Wal_error _) -> ()
    | Error e -> Alcotest.failf "wrong error class: %s" (Xerror.to_string e)
    | Ok _ -> Alcotest.fail "corruption accepted"
  in
  with_scratch "wal" (fun dir ->
      sample_wal dir;
      let seg = only_segment dir in
      write_file seg (flip_byte (read_file seg) (24 + 30));
      wal_error (Engine.attach_wal_r (engine_of (bib ())) dir));
  with_scratch "wal" (fun dir ->
      (* force one record per segment, then delete a middle segment: every
         remaining segment is internally fine but committed history has a
         hole *)
      let w =
        match Wal.Writer.open_ ~segment_bytes:30 ~dir ~lsn:0 () with
        | Ok w -> w
        | Error e -> Alcotest.failf "open: %s" e
      in
      for i = 1 to 4 do
        ignore (Wal.Writer.append w (Wal.Delete_subtree { node = i }))
      done;
      Wal.Writer.close w;
      Sys.remove (Filename.concat dir (Printf.sprintf "wal-%016d.seg" 2));
      wal_error (Engine.attach_wal_r (engine_of (bib ())) dir))

(* --- checkpoint --------------------------------------------------------- *)

let test_checkpoint () =
  with_scratch "snap" (fun snap ->
      with_scratch "wal" (fun wal ->
          let e = engine_of (bib ()) in
          ignore (Xerror.get_exn (Engine.save_snapshot_r e snap));
          (* tiny segments so the log rotates and truncation has prefix
             segments to remove *)
          ignore (Xerror.get_exn (Engine.attach_wal_r ~segment_bytes:120 e wal));
          churn e ~seed:9 10;
          let _, removed = Xerror.get_exn (Engine.checkpoint_r e snap) in
          Alcotest.(check bool) "covered segments truncated" true (removed > 0);
          Alcotest.(check int) "no replay debt" (Engine.lsn e)
            (Engine.snapshot_lsn e);
          for i = 11 to 12 do
            let doc = Option.get (Engine.document e) in
            ignore (apply_ok e (gen_op doc ~seed:9 i))
          done;
          Engine.detach_wal e;
          let recovered = Xerror.get_exn (Engine.of_snapshot_r snap) in
          Alcotest.(check int) "replay resumes past the checkpoint" 2
            (Xerror.get_exn (Engine.attach_wal_r recovered wal));
          let reference = engine_of (bib ()) in
          churn reference ~seed:9 12;
          Alcotest.(check string) "same document" (doc_string reference)
            (doc_string recovered)))

(* --- incremental maintenance -------------------------------------------- *)

let test_splice_keeps_partitions () =
  let e = engine_of (bib ()) in
  let doc = Option.get (Engine.document e) in
  (* graft at the end of the document: earlier partitions' payloads are
     untouched and must be shared, not rebuilt *)
  let last_element =
    let best = ref (Doc.root doc) in
    Doc.iter (fun h -> if Doc.kind doc h = Doc.Element then best := h) doc;
    !best
  in
  let r =
    apply_ok e
      (Engine.Insert_subtree
         { parent = last_element; before = None; xml = "<z>tail</z>" })
  in
  Alcotest.(check bool)
    (Printf.sprintf "kept %d / rebuilt %d" r.Engine.ap_parts_kept
       r.Engine.ap_parts_rebuilt)
    true
    (r.Engine.ap_parts_kept > 0);
  Alcotest.(check bool) "new paths reported" true
    (List.length r.Engine.ap_paths_added >= 1)

let test_quarantine_and_resurrection () =
  let e = engine_of (bib ()) in
  let delete_all label =
    let rec go acc =
      let doc = Option.get (Engine.document e) in
      match Doc.nodes_with_label doc label with
      | [] -> acc
      | h :: _ -> go (apply_ok e (Engine.Delete_subtree { node = h }) :: acc)
    in
    go []
  in
  let reports = delete_all "phdthesis" in
  let dropped = List.concat_map (fun r -> r.Engine.ap_dropped) reports in
  Alcotest.(check bool) "modules on emptied paths are dropped" true
    (dropped <> []);
  Alcotest.(check bool) "dropped modules are dormant" true
    (Engine.dormant_modules e <> []);
  (* queries over surviving paths still answer *)
  (match Engine.query_string_r e "for $t in doc(\"d\")//title return $t" with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "degraded query: %s" (Xerror.to_string err));
  (* bring the path back: the dormant modules validate again and rejoin *)
  let doc = Option.get (Engine.document e) in
  let r =
    apply_ok e
      (Engine.Insert_subtree
         { parent = Doc.root doc;
           before = None;
           xml = "<phdthesis><author>A</author></phdthesis>" })
  in
  Alcotest.(check bool) "resurrection" true (r.Engine.ap_resurrected <> [])

let test_maintained_matches_scratch () =
  let e = engine_of (bib ()) in
  with_scratch "wal" (fun wal ->
      ignore (Xerror.get_exn (Engine.attach_wal_r e wal));
      churn e ~seed:13 15;
      let doc = Option.get (Engine.document e) in
      let scratch = engine_of doc in
      List.iter
        (fun q ->
          let out en =
            match Engine.query_string_r en q with
            | Ok r -> r.Engine.output
            | Error err -> "error: " ^ Xerror.stage err
          in
          Alcotest.(check string) q (out scratch) (out e))
        [ "for $t in doc(\"d\")//title return $t";
          "for $a in doc(\"d\")//author return $a";
          "for $b in doc(\"d\")//book return $b" ])

(* --- concurrent readers under a writer ---------------------------------- *)

let test_reader_writer_chaos () =
  with_scratch "snap" (fun snap ->
      with_scratch "wal" (fun wal ->
          let e = engine_of (bib ()) in
          ignore (Xerror.get_exn (Engine.save_snapshot_r e snap));
          ignore (Xerror.get_exn (Engine.attach_wal_r e wal));
          let stop = Atomic.make false in
          let probes =
            [ "for $t in doc(\"d\")//title return $t";
              "for $a in doc(\"d\")//author return $a" ]
          in
          let reader () =
            let n = ref 0 in
            while not (Atomic.get stop) do
              List.iter
                (fun q ->
                  match Engine.query_string_r e q with
                  | Ok _ | Error _ -> incr n)
                probes
            done;
            !n
          in
          let readers = List.init 2 (fun _ -> Domain.spawn reader) in
          churn e ~seed:17 25;
          Atomic.set stop true;
          let answered = List.map Domain.join readers in
          Engine.detach_wal e;
          Alcotest.(check bool) "readers made progress" true
            (List.for_all (fun n -> n > 0) answered);
          (* recovery still lands on the writer's exact state *)
          let recovered = Xerror.get_exn (Engine.of_snapshot_r snap) in
          Alcotest.(check int) "all records replay" 25
            (Xerror.get_exn (Engine.attach_wal_r recovered wal));
          Alcotest.(check string) "byte-identical state" (snapshot_bytes e)
            (snapshot_bytes recovered)))

(* --- group commit ------------------------------------------------------- *)

(* Ops whose identity encodes their origin: writer [d]'s [i]-th record
   is distinguishable in the recovered log. *)
let tagged_op d i = Wal.Update_value { node = (d * 10_000) + i; value = "g" }

(* N domains hammer one writer with sync:true appends; every
   acknowledged (lsn, op) pair must come back from a cold read, with
   contiguous LSNs and nothing duplicated. *)
let test_group_commit_concurrent () =
  with_scratch "wal" (fun dir ->
      let w =
        match
          Wal.Writer.open_ ~commit_window:0.0005 ~max_batch:8 ~dir ~lsn:0 ()
        with
        | Ok w -> w
        | Error e -> Alcotest.failf "open: %s" e
      in
      let domains = 4 and per = 50 in
      let worker d () =
        List.init per (fun i ->
            match Wal.Writer.append w (tagged_op d i) with
            | Ok (lsn, _) -> (lsn, tagged_op d i)
            | Error e -> Alcotest.failf "append (domain %d): %s" d e)
      in
      let acked =
        List.concat_map Domain.join
          (List.init domains (fun d -> Domain.spawn (worker d)))
      in
      Alcotest.(check int) "writer lsn is the record count" (domains * per)
        (Wal.Writer.lsn w);
      Wal.Writer.close w;
      match Wal.read ~dir with
      | Error e -> Alcotest.failf "read: %s" e
      | Ok (_, Wal.Torn _) -> Alcotest.fail "clean shutdown left a torn tail"
      | Ok (records, Wal.Clean) ->
          Alcotest.(check int) "every acknowledged record recovered"
            (domains * per) (List.length records);
          let by_lsn =
            List.map (fun (r : Wal.record) -> (r.Wal.lsn, r.Wal.op)) records
          in
          List.iter
            (fun (lsn, op) ->
              match List.assoc_opt lsn by_lsn with
              | Some op' when op' = op -> ()
              | Some _ ->
                  Alcotest.failf "lsn %d recovered a different record" lsn
              | None -> Alcotest.failf "acknowledged lsn %d lost" lsn)
            acked)

(* append_batch: one acknowledgement covers contiguous LSNs, and the
   batch interleaves correctly with plain appends. *)
let test_append_batch_contiguous () =
  with_scratch "wal" (fun dir ->
      let w =
        match Wal.Writer.open_ ~dir ~lsn:0 () with
        | Ok w -> w
        | Error e -> Alcotest.failf "open: %s" e
      in
      (match Wal.Writer.append_batch w [] with
      | Ok [] -> ()
      | _ -> Alcotest.fail "empty batch is Ok []");
      ignore (Wal.Writer.append w (tagged_op 9 0));
      (match Wal.Writer.append_batch w (List.init 5 (tagged_op 8)) with
      | Error e -> Alcotest.failf "append_batch: %s" e
      | Ok entries ->
          Alcotest.(check (list int)) "contiguous lsns after the single append"
            [ 2; 3; 4; 5; 6 ]
            (List.map fst entries));
      Wal.Writer.close w;
      match Wal.read ~dir with
      | Ok (records, Wal.Clean) ->
          Alcotest.(check int) "six records on disk" 6 (List.length records)
      | _ -> Alcotest.fail "unexpected read result")

(* Crash-equivalence under multi-writer group commit: kill the
   filesystem at a random mutating op while several domains append.
   Invariant: no acknowledged record is ever lost (acked pairs all
   recover at their LSN), and nothing recovers that was never submitted. *)
let group_commit_crash_prop =
  QCheck2.Test.make
    ~name:"group commit never loses an acknowledged record across a crash"
    ~count:20
    QCheck2.Gen.(pair (int_range 1 80) (int_range 0 1000))
    (fun (kill, seed) ->
      with_scratch "wal" (fun dir ->
          let harness = Fsio.Crash.create ~seed ~crash_after:kill () in
          let w =
            match
              Wal.Writer.open_ ~fs:(Fsio.Crash.ops harness)
                ~commit_window:0.0002 ~max_batch:6 ~dir ~lsn:0 ()
            with
            | Ok w -> w
            | Error e -> Alcotest.failf "open: %s" e
            | exception Fsio.Crashed _ -> Alcotest.failf "crashed in open"
          in
          let domains = 3 and per = 8 in
          let worker d () =
            let acked = ref [] in
            (try
               for i = 0 to per - 1 do
                 match Wal.Writer.append w (tagged_op d i) with
                 | Ok (lsn, _) -> acked := (lsn, tagged_op d i) :: !acked
                 | Error _ -> raise Exit
               done
             with Fsio.Crashed _ | Exit -> ());
            !acked
          in
          let acked =
            List.concat_map Domain.join
              (List.init domains (fun d -> Domain.spawn (worker d)))
          in
          (try Wal.Writer.close w with Fsio.Crashed _ -> ());
          let submitted =
            List.concat_map
              (fun d -> List.init per (tagged_op d))
              (List.init domains Fun.id)
          in
          let records =
            match Wal.read ~dir with
            | Ok (records, Wal.Clean) -> records
            | Ok (records, (Wal.Torn _ as tail)) ->
                (match Wal.repair tail with
                | Ok () -> ()
                | Error e -> Alcotest.failf "repair: %s" e);
                records
            | Error e ->
                Alcotest.failf "kill=%d seed=%d: recovery failed closed: %s"
                  kill seed e
          in
          let by_lsn =
            List.map (fun (r : Wal.record) -> (r.Wal.lsn, r.Wal.op)) records
          in
          List.iter
            (fun (lsn, op) ->
              match List.assoc_opt lsn by_lsn with
              | Some op' when op' = op -> ()
              | Some _ ->
                  Alcotest.failf
                    "kill=%d seed=%d: lsn %d holds a different record" kill
                    seed lsn
              | None ->
                  Alcotest.failf
                    "kill=%d seed=%d: acknowledged lsn %d lost" kill seed lsn)
            acked;
          List.iter
            (fun (_, op) ->
              if not (List.mem op submitted) then
                Alcotest.failf
                  "kill=%d seed=%d: recovered a record nobody submitted" kill
                  seed)
            by_lsn;
          true))

(* --- segment naming at the LSN boundary ---------------------------------- *)

(* Recovery must accept zero-padded names longer than the canonical 16
   digits instead of silently skipping the segment (fail-open), and the
   writer must refuse to create a segment past what the namespace can
   hold (fail-closed). *)
let test_segment_name_tolerant () =
  with_scratch "wal" (fun dir ->
      sample_wal dir;
      let seg = only_segment dir in
      (* the same first-LSN, zero-padded to 20 digits *)
      let wide = Filename.concat dir "wal-00000000000000000001.seg" in
      Sys.rename seg wide;
      match Wal.read ~dir with
      | Ok (records, Wal.Clean) ->
          Alcotest.(check int) "a wide-named segment is not skipped" 5
            (List.length records)
      | Ok (_, Wal.Torn _) -> Alcotest.fail "torn on a clean segment"
      | Error e -> Alcotest.failf "read: %s" e)

let test_segment_lsn_fail_closed () =
  with_scratch "wal" (fun dir ->
      (* tiny segments force a rotation per record *)
      let w =
        match
          Wal.Writer.open_ ~segment_bytes:30 ~dir
            ~lsn:9_999_999_999_999_998 ()
        with
        | Ok w -> w
        | Error e -> Alcotest.failf "open: %s" e
      in
      (match Wal.Writer.append w (Wal.Delete_subtree { node = 1 }) with
      | Ok (lsn, _) ->
          Alcotest.(check int) "the last nameable lsn still appends"
            9_999_999_999_999_999 lsn
      | Error e -> Alcotest.failf "append at the boundary: %s" e);
      (* the next record would need segment wal-10000000000000000.seg —
         17 digits, which pre-fix recovery silently skipped; creation
         must fail instead of planting an unrecoverable segment *)
      (match Wal.Writer.append w (Wal.Delete_subtree { node = 2 }) with
      | Ok (lsn, _) ->
          Alcotest.failf "created a segment past the namespace (lsn %d)" lsn
      | Error _ -> ());
      Wal.Writer.close w;
      Alcotest.(check bool) "no over-wide segment was left behind" true
        (Array.for_all
           (fun f ->
             (not (Filename.check_suffix f ".seg"))
             || String.length f = 24)
           (Sys.readdir dir)))

(* --- batched applies ----------------------------------------------------- *)

(* apply_batch_r is the same write path as N sequential applies: same
   final state, and the WAL holds N ordinary records that replay
   one-by-one to that state. *)
let test_batch_apply_equivalence () =
  let doc = bib () in
  let root = Doc.root doc in
  let ins i =
    Engine.Insert_subtree
      { parent = root;
        before = None;
        xml = Printf.sprintf "<g>batched %d</g>" i }
  in
  let ops = List.init 9 ins in
  let one_by_one = engine_of doc in
  List.iter (fun op -> ignore (apply_ok one_by_one op)) ops;
  with_scratch "snap" (fun snap ->
      with_scratch "wal" (fun wal ->
          let batched = engine_of doc in
          ignore (Xerror.get_exn (Engine.save_snapshot_r batched snap));
          ignore (Xerror.get_exn (Engine.attach_wal_r batched wal));
          let rec chunks = function
            | [] -> []
            | l ->
                let n = min 3 (List.length l) in
                List.filteri (fun i _ -> i < n) l
                :: chunks (List.filteri (fun i _ -> i >= n) l)
          in
          List.iter
            (fun chunk ->
              match Engine.apply_batch_r batched chunk with
              | Ok r ->
                  Alcotest.(check int) "report carries the final lsn"
                    (Engine.lsn batched) r.Engine.ap_lsn
              | Error e ->
                  Alcotest.failf "apply_batch: %s" (Xerror.to_string e))
            (chunks ops);
          Engine.detach_wal batched;
          Alcotest.(check string) "batched = one-by-one"
            (doc_string one_by_one) (doc_string batched);
          Alcotest.(check int) "one WAL record per op" 9 (Engine.lsn batched);
          let recovered = Xerror.get_exn (Engine.of_snapshot_r snap) in
          Alcotest.(check int) "batch records replay one-by-one" 9
            (Xerror.get_exn (Engine.attach_wal_r recovered wal));
          Alcotest.(check string) "recovery lands on the batched state"
            (snapshot_bytes batched) (snapshot_bytes recovered)))

(* An invalid op anywhere in the batch rejects the whole batch with
   state unchanged — no partial prefix, no WAL records. *)
let test_batch_apply_atomic () =
  let doc = bib () in
  let root = Doc.root doc in
  let e = engine_of doc in
  let before = snapshot_bytes e in
  (match
     Engine.apply_batch_r e
       [ Engine.Insert_subtree { parent = root; before = None; xml = "<a/>" };
         Engine.Delete_subtree { node = 9_999_999 } ]
   with
  | Ok _ -> Alcotest.fail "invalid op accepted"
  | Error (Xerror.Update_invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %s" (Xerror.to_string e));
  Alcotest.(check int) "no LSN consumed" 0 (Engine.lsn e);
  Alcotest.(check string) "state unchanged" before (snapshot_bytes e)

(* --- recovered catalog = live catalog ------------------------------------- *)

let module_names e =
  List.map (fun (m : Store.module_) -> m.Store.name) (Engine.catalog e).Store.modules

(* Delete every node labelled [label], highest handle first so the
   handles still to delete stay valid. *)
let delete_all_ops e label =
  let doc = Option.get (Engine.document e) in
  List.map
    (fun h -> Engine.Delete_subtree { node = h })
    (List.sort (fun a b -> compare b a) (Doc.nodes_with_label doc label))

let insert_under_root e xml =
  let doc = Option.get (Engine.document e) in
  Engine.Insert_subtree { parent = Doc.root doc; before = None; xml }

(* Run [before] on a logged bib engine, checkpoint, run [after], then
   recover snapshot + WAL eagerly and lazily: each recovered engine
   must hold the live catalog (same modules in the same order, same
   dormant set) and snapshot to the live bytes. *)
let check_recovery_after_checkpoint ~before ~after ~replays =
  with_scratch "snap" (fun snap ->
      with_scratch "wal" (fun wal ->
          let e = engine_of (bib ()) in
          ignore (Xerror.get_exn (Engine.attach_wal_r e wal));
          before e;
          ignore (Xerror.get_exn (Engine.checkpoint_r e snap));
          after e;
          Engine.detach_wal e;
          List.iter
            (fun lazy_extents ->
              let what = if lazy_extents then "lazy" else "eager" in
              let r = Xerror.get_exn (Engine.of_snapshot_r ~lazy_extents snap) in
              Alcotest.(check int) (what ^ ": records replayed") replays
                (Xerror.get_exn (Engine.attach_wal_r r wal));
              Engine.detach_wal r;
              Alcotest.(check (list string)) (what ^ ": modules") (module_names e)
                (module_names r);
              Alcotest.(check (list (pair string string))) (what ^ ": dormant")
                (Engine.dormant_modules e) (Engine.dormant_modules r);
              Alcotest.(check bool) (what ^ ": byte-identical state") true
                (snapshot_bytes e = snapshot_bytes r))
            [ false; true ]))

(* A checkpoint taken while modules are dormant must carry them: an
   insert after it resurrects them live, and recovery must too. *)
let test_checkpoint_keeps_dormant () =
  check_recovery_after_checkpoint ~replays:1
    ~before:(fun e ->
      Alcotest.(check int) "declared modules" 9 (List.length (module_names e));
      ignore
        (Xerror.get_exn (Engine.apply_batch_r e (delete_all_ops e "phdthesis")));
      Alcotest.(check int) "live after the deletes" 5
        (List.length (module_names e));
      Alcotest.(check int) "dormant after the deletes" 4
        (List.length (Engine.dormant_modules e)))
    ~after:(fun e ->
      ignore
        (Xerror.get_exn
           (Engine.apply_r e
              (insert_under_root e
                 "<phdthesis><author>A</author><title>T</title></phdthesis>")));
      Alcotest.(check int) "live after the insert" 8
        (List.length (module_names e)))

(* One batch drops the book modules (last book deleted) and brings them
   back (a book inserted). Replay sees the drop and the resurrection as
   separate records; both must leave the modules in declared order. *)
let test_batch_drop_and_resurrect () =
  check_recovery_after_checkpoint ~replays:9 ~before:ignore ~after:(fun e ->
      let ops =
        delete_all_ops e "book"
        @ [ insert_under_root e
              "<book year=\"1\"><title>T</title><author>A</author></book>" ]
      in
      Alcotest.(check int) "eight deletes and an insert" 9 (List.length ops);
      ignore (Xerror.get_exn (Engine.apply_batch_r e ops)))

(* --- background checkpoint ------------------------------------------------ *)

(* Park a background checkpoint between its snapshot write and its
   install point (the [before_install] seam); applies landing in that
   window must complete — the checkpoint holds no engine lock while
   parked. A checkpoint that wrongly held the apply lock would deadlock
   this test. *)
let test_background_checkpoint_nonblocking () =
  with_scratch "snap" (fun snap ->
      with_scratch "wal" (fun wal ->
          let e = engine_of (bib ()) in
          ignore (Xerror.get_exn (Engine.save_snapshot_r e snap));
          ignore (Xerror.get_exn (Engine.attach_wal_r ~segment_bytes:120 e wal));
          churn e ~seed:21 8;
          let m = Mutex.create () and c = Condition.create () in
          let parked = ref false and release = ref false in
          let before_install () =
            Mutex.lock m;
            parked := true;
            Condition.broadcast c;
            while not !release do
              Condition.wait c m
            done;
            Mutex.unlock m
          in
          let result =
            ref (Error (Xerror.Wal_error { path = ""; reason = "not run" }))
          in
          let ckpt =
            Thread.create
              (fun () ->
                result := Engine.checkpoint_r ~before_install e snap)
              ()
          in
          Mutex.lock m;
          while not !parked do
            Condition.wait c m
          done;
          Mutex.unlock m;
          (* the snapshot is written, the install hasn't happened:
             writes must keep flowing *)
          for i = 9 to 10 do
            let doc = Option.get (Engine.document e) in
            ignore (apply_ok e (gen_op doc ~seed:21 i))
          done;
          Mutex.lock m;
          release := true;
          Condition.broadcast c;
          Mutex.unlock m;
          Thread.join ckpt;
          (match !result with
          | Ok _ -> ()
          | Error err ->
              Alcotest.failf "checkpoint: %s" (Xerror.to_string err));
          Alcotest.(check int) "snapshot covers the captured prefix" 8
            (Engine.snapshot_lsn e);
          Alcotest.(check int) "applies landed during the write" 10
            (Engine.lsn e);
          Engine.detach_wal e;
          (* recovery: the checkpointed snapshot plus the uncovered WAL
             suffix is exactly the live state *)
          let recovered = Xerror.get_exn (Engine.of_snapshot_r snap) in
          Alcotest.(check int) "snapshot resumes at the captured lsn" 8
            (Engine.lsn recovered);
          Alcotest.(check int) "only the uncovered suffix replays" 2
            (Xerror.get_exn (Engine.attach_wal_r recovered wal));
          Engine.detach_wal recovered;
          Alcotest.(check string) "byte-identical state" (snapshot_bytes e)
            (snapshot_bytes recovered)))

let () =
  Alcotest.run "wal"
    [ ( "codec",
        [ QCheck_alcotest.to_alcotest roundtrip_prop ] );
      ( "replay",
        [ Alcotest.test_case "snapshot + wal is byte-identical" `Quick
            test_replay_equality;
          Alcotest.test_case "replay skips snapshot-covered records" `Quick
            test_replay_idempotent ] );
      ( "crash",
        [ QCheck_alcotest.to_alcotest crash_equiv_prop;
          QCheck_alcotest.to_alcotest batched_crash_equiv_prop ] );
      ( "corruption",
        [ Alcotest.test_case "truncated final frame" `Quick
            test_torn_truncated_frame;
          Alcotest.test_case "bit-flipped tail record" `Quick
            test_torn_bitflip_tail;
          Alcotest.test_case "mid-log bit flip fails closed" `Quick
            test_midlog_bitflip_fails_closed;
          Alcotest.test_case "hostile length field" `Quick test_hostile_length;
          Alcotest.test_case "valid-CRC duplicate LSN fails closed" `Quick
            test_duplicate_frame_fails_closed;
          Alcotest.test_case "zero-length segment" `Quick test_empty_segment;
          Alcotest.test_case "engine surfaces typed Wal_error" `Quick
            test_engine_fails_closed ] );
      ( "group-commit",
        [ Alcotest.test_case "concurrent appenders, one fsync per batch"
            `Quick test_group_commit_concurrent;
          Alcotest.test_case "append_batch is contiguous" `Quick
            test_append_batch_contiguous;
          QCheck_alcotest.to_alcotest group_commit_crash_prop;
          Alcotest.test_case "batched applies = sequential applies" `Quick
            test_batch_apply_equivalence;
          Alcotest.test_case "an invalid op rejects the whole batch" `Quick
            test_batch_apply_atomic ] );
      ( "segment-naming",
        [ Alcotest.test_case "wide zero-padded names are recovered" `Quick
            test_segment_name_tolerant;
          Alcotest.test_case "creation past the namespace fails closed"
            `Quick test_segment_lsn_fail_closed ] );
      ( "checkpoint",
        [ Alcotest.test_case "snapshot-then-truncate round-trip" `Quick
            test_checkpoint;
          Alcotest.test_case "background checkpoint never blocks applies"
            `Quick test_background_checkpoint_nonblocking;
          Alcotest.test_case "a checkpoint keeps dormant modules" `Quick
            test_checkpoint_keeps_dormant;
          Alcotest.test_case "drop and resurrect in one batch recovers" `Quick
            test_batch_drop_and_resurrect ] );
      ( "maintenance",
        [ Alcotest.test_case "tail edit keeps untouched partitions" `Quick
            test_splice_keeps_partitions;
          Alcotest.test_case "quarantine and resurrection" `Quick
            test_quarantine_and_resurrection;
          Alcotest.test_case "maintained catalog answers like scratch" `Quick
            test_maintained_matches_scratch ] );
      ( "chaos",
        [ Alcotest.test_case "concurrent readers under a writer" `Quick
            test_reader_writer_chaos ] ) ]
