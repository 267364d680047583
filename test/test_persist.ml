(* The persistence layer: binary codecs, snapshot save/load, the paging
   reader, crash-safety of the file format under corruption, and the
   engine's snapshot entry points. *)

module P = Xam.Pattern
module Rel = Xalgebra.Rel
module V = Xalgebra.Value
module S = Xsummary.Summary
module Doc = Xdm.Doc
module T = Xdm.Xml_tree
module Store = Xstorage.Store
module Models = Xstorage.Models
module Binio = Xpersist.Binio
module Codec = Xpersist.Codec
module Snapshot = Xpersist.Snapshot
module Engine = Xengine.Engine
module Xerror = Xengine.Xerror

let bib () = Xworkload.Gen_bib.generate_doc ~seed:41 ~books:12 ~theses:4 ()

let bib_catalog doc =
  let s = S.of_doc doc in
  Store.catalog_of doc (Models.path_partitioned s)

let tmp_path =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xam_test_%d_%s_%d.snap" (Unix.getpid ()) tag !n)

let with_snapshot ?doc catalog f =
  let path = tmp_path "snap" in
  (match Snapshot.save ?doc path catalog with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let doc_equal a b =
  String.equal (Doc.name a) (Doc.name b)
  && T.equal (Doc.to_tree a (Doc.root a)) (Doc.to_tree b (Doc.root b))

let catalog_equal (a : Store.catalog) (b : Store.catalog) =
  S.export a.Store.summary = S.export b.Store.summary
  && List.length a.Store.modules = List.length b.Store.modules
  && List.for_all2
       (fun (ma : Store.module_) (mb : Store.module_) ->
         String.equal ma.Store.name mb.Store.name
         && P.equal ma.Store.xam mb.Store.xam
         && Rel.equal_unordered ma.Store.extent mb.Store.extent)
       a.Store.modules b.Store.modules

(* --- Binio primitives ---------------------------------------------------- *)

let int_roundtrip_prop =
  QCheck2.Test.make ~name:"int encode/decode roundtrip" ~count:500
    QCheck2.Gen.int (fun i ->
      let w = Binio.writer () in
      Binio.w_int w i;
      let r = Binio.reader (Binio.contents w) in
      let got = Binio.r_int r in
      Binio.expect_end r;
      got = i)

let str_roundtrip_prop =
  QCheck2.Test.make ~name:"string encode/decode roundtrip" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 64))
    (fun s ->
      let w = Binio.writer () in
      Binio.w_str w s;
      let r = Binio.reader (Binio.contents w) in
      let got = Binio.r_str r in
      Binio.expect_end r;
      String.equal got s)

let test_binio_corrupt () =
  let corrupt f =
    match f () with
    | exception Binio.Corrupt _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "short int read" true
    (corrupt (fun () -> Binio.r_int (Binio.reader "abc")));
  (* A length prefix promising more bytes than remain must not allocate. *)
  let w = Binio.writer () in
  Binio.w_int w max_int;
  Alcotest.(check bool) "oversized string length" true
    (corrupt (fun () -> Binio.r_str (Binio.reader (Binio.contents w))));
  let w = Binio.writer () in
  Binio.w_u8 w 1;
  Binio.w_u8 w 2;
  Alcotest.(check bool) "trailing garbage rejected" true
    (corrupt (fun () ->
         let r = Binio.reader (Binio.contents w) in
         ignore (Binio.r_u8 r);
         Binio.expect_end r));
  Alcotest.(check bool) "out-of-bounds slice" true
    (corrupt (fun () -> Binio.reader ~pos:2 ~len:10 "abc"))

let test_crc32 () =
  (* Known vector: CRC-32("123456789") = 0xCBF43926. *)
  Alcotest.(check int) "IEEE test vector" 0xCBF43926 (Binio.crc32 "123456789");
  Alcotest.(check bool) "a flipped bit changes the checksum" true
    (Binio.crc32 "123456789" <> Binio.crc32 "123456788")

(* --- Codec round-trips --------------------------------------------------- *)

let via w r x =
  let b = Binio.writer () in
  w b x;
  let rd = Binio.reader (Binio.contents b) in
  let got = r rd in
  Binio.expect_end rd;
  got

let nid_gen =
  QCheck2.Gen.(
    oneof
      [ map (fun i -> Xdm.Nid.Simple_id i) nat;
        map (fun i -> Xdm.Nid.Ordinal_id i) nat;
        map3
          (fun pre post depth -> Xdm.Nid.Pre_post { pre; post; depth })
          nat nat (int_bound 32);
        map (fun l -> Xdm.Nid.Dewey l) (small_list nat) ])

let value_gen =
  QCheck2.Gen.(
    oneof
      [ map (fun i -> V.Int i) int;
        map (fun s -> V.Str s) (string_size (int_bound 12));
        map (fun b -> V.Bool b) bool;
        return V.Null;
        map (fun n -> V.Id n) nid_gen ])

let value_roundtrip_prop =
  QCheck2.Test.make ~name:"value codec roundtrip" ~count:300 value_gen (fun v ->
      via Codec.w_value Codec.r_value v = v)

let test_codec_structures () =
  let doc = bib () in
  let s = S.of_doc doc in
  Alcotest.(check bool) "summary roundtrips" true
    (S.export (via Codec.w_summary Codec.r_summary s) = S.export s);
  Alcotest.(check bool) "doc roundtrips" true
    (doc_equal (via Codec.w_doc Codec.r_doc doc) doc);
  let cat = bib_catalog doc in
  List.iter
    (fun (m : Store.module_) ->
      Alcotest.(check bool)
        (Printf.sprintf "pattern of %s roundtrips" m.Store.name)
        true
        (P.equal (via Codec.w_pattern Codec.r_pattern m.Store.xam) m.Store.xam);
      Alcotest.(check bool)
        (Printf.sprintf "extent of %s roundtrips" m.Store.name)
        true
        (Rel.equal_unordered (via Codec.w_rel Codec.r_rel m.Store.extent) m.Store.extent))
    cat.Store.modules

let pattern_roundtrip_prop =
  let doc = bib () in
  let s = S.of_doc doc in
  let patterns =
    Xworkload.Pattern_gen.generate_many ~seed:7 s
      { Xworkload.Pattern_gen.default with return_labels = [ "book" ] }
      ~count:40
  in
  QCheck2.Test.make ~name:"generated pattern codec roundtrip"
    ~count:(List.length patterns) (QCheck2.Gen.oneofl patterns) (fun p ->
      P.equal (via Codec.w_pattern Codec.r_pattern p) p)

(* --- Snapshot save/load -------------------------------------------------- *)

let test_save_load_eager () =
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot ~doc cat (fun path ->
      match Snapshot.load_with_lsn path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (d, cat', _) ->
          Alcotest.(check bool) "document survives" true
            (match d with Some d -> doc_equal d doc | None -> false);
          Alcotest.(check bool) "catalog is lossless" true (catalog_equal cat cat'))

let test_save_load_no_doc () =
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot cat (fun path ->
      match Snapshot.load_with_lsn path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (d, cat', _) ->
          Alcotest.(check bool) "no document section" true (d = None);
          Alcotest.(check bool) "catalog is lossless" true (catalog_equal cat cat'))

let test_save_atomic () =
  (* A failing save must leave the previous snapshot byte-identical. *)
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot ~doc cat (fun path ->
      let before = read_file path in
      let dup = List.hd cat.Store.modules in
      let broken = { cat with Store.modules = dup :: cat.Store.modules } in
      (match Snapshot.save path broken with
      | Ok _ -> Alcotest.fail "duplicate module names must not serialize"
      | Error _ -> ());
      Alcotest.(check bool) "previous snapshot intact" true
        (String.equal (read_file path) before);
      Alcotest.(check bool) "no temp file left behind" true
        (Sys.readdir (Filename.dirname path)
        |> Array.for_all (fun f ->
               not
                 (String.length f > String.length (Filename.basename path)
                 && String.sub f 0 (String.length (Filename.basename path))
                    = Filename.basename path))))

let test_lsn_roundtrip () =
  let doc = bib () in
  let cat = bib_catalog doc in
  let path = tmp_path "lsn" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Snapshot.save ~doc ~lsn:42 path cat with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save failed: %s" e);
      (match Snapshot.load_with_lsn path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (_, _, lsn) -> Alcotest.(check int) "eager load carries lsn" 42 lsn);
      (match Snapshot.Reader.open_ path with
      | Error e -> Alcotest.failf "reader open failed: %s" e
      | Ok r ->
          Fun.protect
            ~finally:(fun () -> Snapshot.Reader.close r)
            (fun () ->
              Alcotest.(check int) "reader carries lsn" 42 (Snapshot.Reader.lsn r)));
      (* a snapshot saved without an LSN reads back at 0 *)
      match Snapshot.save ~doc path cat with
      | Error e -> Alcotest.failf "save failed: %s" e
      | Ok _ -> (
          match Snapshot.load_with_lsn path with
          | Error e -> Alcotest.failf "load failed: %s" e
          | Ok (_, _, lsn) -> Alcotest.(check int) "default lsn" 0 lsn))

let test_save_concurrent_same_path () =
  (* Regression: two same-process saves to one path used to share a
     [path.tmp.<pid>] temp name — one racer renamed the other's
     half-written bytes into place. The per-save nonce keeps the temp
     names distinct, so whichever save renames last leaves a snapshot
     that verifies. *)
  let doc = bib () in
  let cat = bib_catalog doc in
  let path = tmp_path "race" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      for _ = 1 to 5 do
        let save () = Snapshot.save ~doc path cat in
        let d = Domain.spawn save in
        let a = save () in
        let b = Domain.join d in
        (match (a, b) with
        | Ok _, Ok _ -> ()
        | Error e, _ | _, Error e -> Alcotest.failf "racing save failed: %s" e);
        match Snapshot.load_with_lsn path with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "snapshot after racing saves: %s" e
      done)

let test_reader_lazy () =
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot ~doc cat (fun path ->
      match Snapshot.Reader.open_ path with
      | Error e -> Alcotest.failf "reader open failed: %s" e
      | Ok r ->
          Fun.protect
            ~finally:(fun () -> Snapshot.Reader.close r)
            (fun () ->
              let lc = Snapshot.Reader.lazy_catalog r in
              Alcotest.(check bool) "lazy catalog materializes losslessly" true
                (catalog_equal cat (Store.materialize_lazy lc));
              (* Thunks page through the LRU: forcing twice is a hit. *)
              let m = List.hd lc.Store.lc_modules in
              let a = m.Store.lm_extent () in
              let b = m.Store.lm_extent () in
              Alcotest.(check bool) "repeated page-in is stable" true
                (Rel.equal_unordered a b)))

let test_reader_closed () =
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot ~doc cat (fun path ->
      match Snapshot.Reader.open_ path with
      | Error e -> Alcotest.failf "reader open failed: %s" e
      | Ok r ->
          let lc = Snapshot.Reader.lazy_catalog r in
          Snapshot.Reader.close r;
          let m = List.hd lc.Store.lc_modules in
          Alcotest.(check bool) "forcing after close is a module fault" true
            (match m.Store.lm_extent () with
            | exception Store.Module_fault _ -> true
            | _ -> false))

(* --- Corruption injection ------------------------------------------------ *)

(* Either the load fails with [Error _] (never an exception) or — when the
   flip happens to land on ignorable slack, which the format does not have,
   but we assert rather than assume — the result is byte-for-byte the
   original catalog. No partial catalogs, ever. *)
let load_is_fail_closed original path =
  match Snapshot.load_with_lsn path with
  | Error _ -> true
  | Ok (_, cat, _) -> catalog_equal original cat
  | exception e ->
      Alcotest.failf "load raised %s on corrupt input" (Printexc.to_string e)

let reader_is_fail_closed original path =
  match Snapshot.Reader.open_ path with
  | Error _ -> true
  | Ok r ->
      Fun.protect
        ~finally:(fun () -> Snapshot.Reader.close r)
        (fun () ->
          (* An open that succeeded may still discover corruption when an
             extent pages in: that must surface as Module_fault, nothing
             else. *)
          let lc = Snapshot.Reader.lazy_catalog r in
          match Store.materialize_lazy lc with
          | cat -> catalog_equal original cat
          | exception Store.Module_fault _ -> true)
  | exception e ->
      Alcotest.failf "reader raised %s on corrupt input" (Printexc.to_string e)

let test_truncation () =
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot ~doc cat (fun path ->
      let data = read_file path in
      let n = String.length data in
      List.iter
        (fun keep ->
          let p = tmp_path "trunc" in
          write_file p (String.sub data 0 keep);
          Fun.protect
            ~finally:(fun () -> Sys.remove p)
            (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "truncation to %d bytes rejected" keep)
                true
                (match Snapshot.load_with_lsn p with
                | Error _ -> true
                | Ok _ -> false
                | exception e ->
                    Alcotest.failf "load raised %s" (Printexc.to_string e));
              Alcotest.(check bool)
                (Printf.sprintf "reader rejects truncation to %d" keep)
                true
                (reader_is_fail_closed cat p)))
        [ 0; 4; 8; 16; 31; n / 2; n - 1 ])

let test_bit_flips () =
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot ~doc cat (fun path ->
      let data = read_file path in
      let n = String.length data in
      (* Sweep the header and TOC densely, the payload sparsely. *)
      let offsets =
        List.init 64 Fun.id @ List.init ((n - 64) / 97) (fun i -> 64 + (i * 97))
      in
      List.iter
        (fun off ->
          let b = Bytes.of_string data in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x20));
          let p = tmp_path "flip" in
          write_file p (Bytes.to_string b);
          Fun.protect
            ~finally:(fun () -> Sys.remove p)
            (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "bit flip at %d fails closed (load)" off)
                true (load_is_fail_closed cat p);
              Alcotest.(check bool)
                (Printf.sprintf "bit flip at %d fails closed (reader)" off)
                true
                (reader_is_fail_closed cat p)))
        offsets)

let test_foreign_files () =
  let reject name data =
    let p = tmp_path "foreign" in
    write_file p data;
    Fun.protect
      ~finally:(fun () -> Sys.remove p)
      (fun () ->
        Alcotest.(check bool) (name ^ " rejected by load") true
          (match Snapshot.load_with_lsn p with Error _ -> true | Ok _ -> false);
        Alcotest.(check bool) (name ^ " rejected by reader") true
          (match Snapshot.Reader.open_ p with
          | Error _ -> true
          | Ok r ->
              Snapshot.Reader.close r;
              false))
  in
  reject "empty file" "";
  reject "text file" "this is not a snapshot, whatever the extension says\n";
  reject "magic alone" "XAMSNAP\x01";
  let doc = bib () in
  with_snapshot ~doc (bib_catalog doc) (fun path ->
      let data = Bytes.of_string (read_file path) in
      (* Version lives in the first header word after the 8-byte magic. *)
      Bytes.set data 8 '\x7f';
      reject "unknown format version" (Bytes.to_string data))

let test_missing_file () =
  Alcotest.(check bool) "missing file is an error, not an exception" true
    (match Snapshot.load_with_lsn "/nonexistent/dir/nothing.snap" with
    | Error _ -> true
    | Ok _ -> false);
  match Engine.of_snapshot_r "/nonexistent/dir/nothing.snap" with
  | Error (Xerror.Snapshot_error _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %s" (Xerror.to_string e)
  | Ok _ -> Alcotest.fail "opened a nonexistent snapshot"

let test_lazy_corrupt_extent_quarantined () =
  (* A flip in the tail of the file lands in the last extent's payload:
     the reader opens fine (TOC and eager sections verify) and the fault
     only surfaces on page-in — as Module_fault, which the engine's
     quarantine absorbs without failing the query. *)
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot ~doc cat (fun path ->
      let data = Bytes.of_string (read_file path) in
      let off = Bytes.length data - 3 in
      Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0x01));
      let p = tmp_path "lazyflip" in
      write_file p (Bytes.to_string data);
      Fun.protect
        ~finally:(fun () -> Sys.remove p)
        (fun () ->
          match Snapshot.Reader.open_ p with
          | Error e -> Alcotest.failf "reader should open: %s" e
          | Ok r ->
              let corrupt_xam =
                Fun.protect
                  ~finally:(fun () -> Snapshot.Reader.close r)
                  (fun () ->
                    let lc = Snapshot.Reader.lazy_catalog r in
                    let faults =
                      List.filter
                        (fun (m : Store.lazy_module) ->
                          match m.Store.lm_extent () with
                          | _ -> false
                          | exception Store.Module_fault _ -> true)
                        lc.Store.lc_modules
                    in
                    Alcotest.(check int) "exactly one extent is corrupt" 1
                      (List.length faults);
                    (List.hd faults).Store.lm_xam)
              in
              (* The engine over the same corrupt snapshot still answers —
                 even a query aimed squarely at the corrupt module: the
                 fault on page-in quarantines it and the re-plan (surviving
                 views, base-document fallback) produces the same answer a
                 healthy engine gives. *)
              (match Engine.of_snapshot_r ~lazy_extents:true p with
              | Error e -> Alcotest.failf "lazy open failed: %s" (Xerror.to_string e)
              | Ok e -> (
                  let healthy = Engine.of_doc doc (Models.path_partitioned (S.of_doc doc)) in
                  match
                    ( Result.to_option (Engine.query_r healthy corrupt_xam),
                      Result.to_option (Engine.query_r e corrupt_xam) )
                  with
                  | Some want, Some got ->
                      Alcotest.(check bool)
                        "degraded answer matches the healthy engine" true
                        (Rel.equal_unordered want.Engine.rel got.Engine.rel)
                  | None, None ->
                      Alcotest.fail "corrupt module's own xam should be answerable"
                  | _ -> Alcotest.fail "engines disagree on answerability"
                  | exception exn ->
                      Alcotest.failf "query raised %s" (Printexc.to_string exn)))))

(* A CRC-valid file can still carry hostile TOC geometry: offsets and
   lengths chosen so [e_off + e_len] overflows OCaml's int and wraps
   negative, slipping past a naive [> file_size] bound into an enormous
   allocation. Patch a real snapshot's first TOC entry, re-checksum the
   TOC so it reaches the bounds check, and require a clean [Error]. *)

let get_int data off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code data.[off + i]))
  done;
  Int64.to_int !v

let put_int b off v =
  let v = Int64.of_int v in
  for i = 0 to 7 do
    Bytes.set b (off + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
  done

(* [data] with section [name]'s payload replaced by [f payload] (same
   length), its CRC and the TOC CRC fixed up: a CRC-valid forgery. *)
let forge_section data name f =
  let toc_start = 32 in
  let toc_len = get_int data 16 in
  (* TOC: entry count, then per entry name length, name, off, len, crc. *)
  let rec find k pos =
    if k = get_int data toc_start then Alcotest.failf "no %s section" name
    else
      let name_len = get_int data pos in
      let fields = pos + 8 + name_len in
      if String.sub data (pos + 8) name_len = name then fields
      else find (k + 1) (fields + 24)
  in
  let fields = find 0 (toc_start + 8) in
  let off = get_int data fields and len = get_int data (fields + 8) in
  let section = f (String.sub data off len) in
  let b = Bytes.of_string data in
  Bytes.blit_string section 0 b off len;
  put_int b (fields + 16) (Binio.crc32 section);
  put_int b 24 (Binio.crc32 ~pos:toc_start ~len:toc_len (Bytes.to_string b));
  Bytes.to_string b

let test_hostile_toc_geometry () =
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot ~doc cat (fun path ->
      let data = read_file path in
      (* Layout: magic (8), version (8), toc_len (8), toc_crc (8), TOC.
         First TOC entry: name length (8), name, off (8), len (8), crc. *)
      let toc_start = 32 in
      let toc_len = get_int data 16 in
      let name_len = get_int data (toc_start + 8) in
      let off_field = toc_start + 8 + 8 + name_len in
      let len_field = off_field + 8 in
      let patched field v =
        let b = Bytes.of_string data in
        put_int b field v;
        put_int b 24 (Binio.crc32 ~pos:toc_start ~len:toc_len (Bytes.to_string b));
        Bytes.to_string b
      in
      let reject what hostile =
        let p = tmp_path "hostile" in
        write_file p hostile;
        Fun.protect
          ~finally:(fun () -> Sys.remove p)
          (fun () ->
            Alcotest.(check bool) (what ^ " rejected by load") true
              (match Snapshot.load_with_lsn p with
              | Error _ -> true
              | Ok _ -> false
              | exception e ->
                  Alcotest.failf "load raised %s" (Printexc.to_string e));
            Alcotest.(check bool) (what ^ " rejected by reader") true
              (match Snapshot.Reader.open_ p with
              | Error _ -> true
              | Ok r ->
                  Snapshot.Reader.close r;
                  false
              | exception e ->
                  Alcotest.failf "reader raised %s" (Printexc.to_string e)))
      in
      reject "overflowing section offset" (patched off_field (max_int - 4));
      reject "overflowing section length" (patched len_field (max_int - 64));
      reject "negative section offset" (patched off_field (-8)))

let test_hostile_counts () =
  (* Element counts inside a CRC-valid section must be bounded against the
     bytes actually present before any count-sized allocation happens:
     the decode fails with [Binio.Corrupt], never [Invalid_argument] from
     [Array.init] and never an attacker-sized allocation. *)
  let corrupt_only what f =
    Alcotest.(check bool) what true
      (match f () with
      | exception Binio.Corrupt _ -> true
      | exception e ->
          Alcotest.failf "%s raised %s" what (Printexc.to_string e)
      | _ -> false)
  in
  let rel_bytes =
    let w = Binio.writer () in
    Binio.w_int w 1;
    Binio.w_str w "c";
    Binio.w_u8 w 0;
    (* one atomic column, then an absurd tuple count *)
    Binio.w_int w max_int;
    Binio.contents w
  in
  corrupt_only "huge tuple count" (fun () -> Codec.r_rel (Binio.reader rel_bytes));
  let summary_bytes =
    let w = Binio.writer () in
    Binio.w_int w (max_int / 8);
    Binio.contents w
  in
  corrupt_only "huge summary row count" (fun () ->
      Codec.r_summary (Binio.reader summary_bytes));
  let doc_bytes =
    let w = Binio.writer () in
    Binio.w_str w "d";
    Binio.w_int w (max_int / 2);
    Binio.contents w
  in
  corrupt_only "huge document node count" (fun () ->
      Codec.r_doc (Binio.reader doc_bytes));
  let dewey_bytes =
    let w = Binio.writer () in
    Binio.w_u8 w 3;
    Binio.w_int w max_int;
    Binio.contents w
  in
  corrupt_only "huge dewey component count" (fun () ->
      Codec.r_nid (Binio.reader dewey_bytes))

(* A CRC-valid document section whose node array is inconsistent (a
   duplicate post label) must fail closed: [Doc.unpack] rejects it, so
   every open path reports a snapshot error instead of handing out a
   document whose structural predicates lie. *)
let test_hostile_doc_section () =
  let doc = Doc.of_string "<a><b><c/></b><d/></a>" in
  let cat = bib_catalog doc in
  (* The codec's document layout, re-encoded here so a node can be forged. *)
  let encode packed =
    let w = Binio.writer () in
    Binio.w_str w (Doc.name doc);
    Binio.w_int w (Array.length packed);
    Array.iter
      (fun (p : Doc.packed_node) ->
        List.iter (Binio.w_int w) [ p.p_post; p.p_depth; p.p_parent; p.p_ordinal ];
        Binio.w_u8 w (match p.p_kind with Doc.Element -> 0 | Doc.Attribute -> 1 | Doc.Text -> 2);
        Binio.w_str w p.p_label;
        Binio.w_str w p.p_value;
        Binio.w_int w p.p_subtree_end)
      packed;
    Binio.contents w
  in
  with_snapshot ~doc cat (fun path ->
      let forged =
        forge_section (read_file path) "doc" (fun section ->
            let packed = Doc.pack doc in
            Alcotest.(check string) "re-encoding matches the codec" section
              (encode packed);
            (* handles: a = 0, b = 1, c = 2, d = 3; give d the post of c *)
            packed.(3) <- { (packed.(3)) with Doc.p_post = 1 };
            encode packed)
      in
      let p = tmp_path "hostile_doc" in
      write_file p forged;
      Fun.protect
        ~finally:(fun () -> Sys.remove p)
        (fun () ->
          Alcotest.(check bool) "rejected by load" true
            (match Snapshot.load_with_lsn p with Error _ -> true | Ok _ -> false);
          Alcotest.(check bool) "rejected by the paging reader" true
            (match Snapshot.Reader.open_ p with
            | Error _ -> true
            | Ok r ->
                Snapshot.Reader.close r;
                false);
          match Engine.of_snapshot_r p with
          | Error (Xerror.Snapshot_error _) -> ()
          | Error e -> Alcotest.failf "wrong error class: %s" (Xerror.to_string e)
          | Ok _ -> Alcotest.fail "opened a snapshot with an inconsistent document"))

(* The optional dormant section: absent when there is nothing dormant
   (so [write] with none is byte-identical to [save]), read back exactly
   by both open paths, and positions that cannot describe a declared
   list fail closed. *)
let test_dormant_section () =
  let doc = bib () in
  let cat = bib_catalog doc in
  let xam = (List.hd cat.Store.modules).Store.xam in
  let path = tmp_path "dormant" and plain = tmp_path "plain" in
  let live =
    List.map (fun (m : Store.module_) -> (m.Store.name, m.Store.xam)) cat.Store.modules
  in
  let write declared dormant =
    Snapshot.write path
      { Snapshot.doc = Some doc; catalog = cat; lsn = 7; declared; dormant }
  in
  let declared =
    (("gone:first", xam) :: List.filteri (fun i _ -> i < 2) live)
    @ (("gone:later", xam) :: List.filteri (fun i _ -> i >= 2) live)
  in
  let dormant = [ ("gone:first", "path vanished"); ("gone:later", "r") ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; plain ])
    (fun () ->
      ignore (write live []);
      ignore (Snapshot.save ~doc ~lsn:7 plain cat);
      Alcotest.(check bool) "no dormant modules: the bytes save writes" true
        (read_file path = read_file plain);
      ignore (write declared dormant);
      (match Snapshot.read path with
      | Ok img ->
          Alcotest.(check bool) "eager read: declared list" true
            (img.Snapshot.declared = declared);
          Alcotest.(check bool) "eager read: dormant" true
            (img.Snapshot.dormant = dormant)
      | Error e -> Alcotest.failf "read failed: %s" e);
      (match Snapshot.Reader.open_ path with
      | Error e -> Alcotest.failf "reader open failed: %s" e
      | Ok r ->
          Fun.protect
            ~finally:(fun () -> Snapshot.Reader.close r)
            (fun () ->
              Alcotest.(check bool) "paging reader: declared list" true
                (Snapshot.Reader.declared r = declared);
              Alcotest.(check bool) "paging reader: dormant" true
                (Snapshot.Reader.dormant r = dormant)));
      let fails_closed what =
        Alcotest.(check bool) (what ^ ": eager read fails closed") true
          (Result.is_error (Snapshot.read path));
        Alcotest.(check bool) (what ^ ": paging reader fails closed") true
          (Result.is_error (Snapshot.Reader.open_ path))
      in
      (* the second entry's position (3) forged onto the first: positions
         no longer ascend *)
      write_file path
        (forge_section (read_file path) "dormant" (fun section ->
             let b = Bytes.of_string section in
             put_int b 8 3;
             Bytes.to_string b));
      fails_closed "repeated position";
      (* a declared list the catalog does not fit: a dormant module past
         the end *)
      ignore (write (live @ [ ("x", xam); ("gone", xam) ]) [ ("gone", "r") ]);
      fails_closed "position past the declared list";
      Alcotest.(check bool) "a dormant name shadowing a live module is refused"
        true
        (Result.is_error (write live [ (fst (List.hd live), "r") ])))

(* --- Engine entry points ------------------------------------------------- *)

let specs_of doc =
  let s = S.of_doc doc in
  Xstorage.Models.path_partitioned s

let test_engine_roundtrip () =
  let doc = bib () in
  let base = Engine.of_doc doc (specs_of doc) in
  let path = tmp_path "engine" in
  let bytes = Xerror.get_exn (Engine.save_snapshot_r base path) in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check bool) "snapshot has substance" true (bytes > 64);
      let eager = Xerror.get_exn (Engine.of_snapshot_r path) in
      (* A deliberately tight byte budget: partitions thrash in and out,
         which must stay correctness-neutral. *)
      let lazy_ =
        Xerror.get_exn
          (Engine.of_snapshot_r ~lazy_extents:true ~extent_cache:256 path)
      in
      let s = S.of_doc doc in
      let patterns =
        Xworkload.Pattern_gen.generate_many ~seed:17 s
          { Xworkload.Pattern_gen.default with return_labels = [ "book" ] }
          ~count:15
      in
      Alcotest.(check bool) "generated a workload" true (patterns <> []);
      let answered = ref 0 in
      let agree label r0 r1 =
        match (r0, r1) with
        | None, None -> ()
        | Some (a : Engine.result), Some b ->
            Alcotest.(check bool) label true
              (Rel.equal_unordered a.Engine.rel b.Engine.rel)
        | Some _, None | None, Some _ ->
            Alcotest.failf "%s: engines disagree on answerability" label
      in
      List.iter
        (fun pat ->
          let answer e = Result.to_option (Engine.query_r e pat) in
          let r0 = answer base in
          if r0 <> None then incr answered;
          agree "eager snapshot answers match" r0 (answer eager);
          agree "lazy snapshot answers match" r0 (answer lazy_))
        patterns;
      Alcotest.(check bool) "some patterns were answerable" true (!answered > 0))

let test_engine_hot_swap () =
  let doc = bib () in
  let base = Engine.of_doc doc (specs_of doc) in
  let pat =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book")
          [ P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]
  in
  let expected = (Xerror.get_exn (Engine.query_r base pat)).Engine.rel in
  let path = tmp_path "swap" in
  ignore (Xerror.get_exn (Engine.save_snapshot_r base path));
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* A fresh engine over just the document, then hot-swap the snapshot
         catalog in. *)
      let e = Engine.of_doc doc [] in
      Xerror.get_exn (Engine.load_snapshot_r e path);
      let r = Xerror.get_exn (Engine.query_r e pat) in
      Alcotest.(check bool) "swapped-in catalog answers" true
        (Rel.equal_unordered expected r.Engine.rel);
      (* A failing load must leave the running catalog untouched. *)
      let garbage = tmp_path "garbage" in
      write_file garbage "junk";
      Fun.protect
        ~finally:(fun () -> Sys.remove garbage)
        (fun () ->
          (match Engine.load_snapshot_r e garbage with
          | Error (Xerror.Snapshot_error _) -> ()
          | Error err -> Alcotest.failf "wrong error: %s" (Xerror.to_string err)
          | Ok () -> Alcotest.fail "loaded garbage");
          let r' = Xerror.get_exn (Engine.query_r e pat) in
          Alcotest.(check bool) "catalog survived the failed load" true
            (Rel.equal_unordered expected r'.Engine.rel)))

(* Splicing an edit into the document must leave nothing for the
   snapshot to notice: after a mixed batch, the engine's snapshot is
   byte-equal to one written with the document rebuilt from the
   tree-level edit, under the same catalog and LSN. *)
let test_spliced_snapshot_bytes () =
  let doc = Xworkload.Gen_bib.generate_doc ~seed:3 ~books:12 ~theses:4 () in
  let e = Engine.of_doc doc (specs_of doc) in
  let handles p = List.filter p (List.init (Doc.size doc) Fun.id) in
  let text = List.hd (handles (fun h -> Doc.kind doc h = Doc.Text)) in
  let attr = List.hd (handles (fun h -> Doc.kind doc h = Doc.Attribute)) in
  let entries = Doc.children doc (Doc.root doc) in
  let ops =
    [ Engine.Update_value { node = text; value = "Spliced title" };
      Engine.Update_value { node = attr; value = "1999" };
      Engine.Delete_subtree { node = List.nth entries (List.length entries - 1) };
      Engine.Insert_subtree
        { parent = Doc.root doc; before = Some (List.hd entries);
          xml = "<book year=\"2001\"><title>New</title><author>A. Author</author></book>" } ]
  in
  (match Engine.apply_batch_r e ops with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "apply failed: %s" (Xerror.to_string err));
  let rebuilt =
    List.fold_left (fun d op -> Doc_oracle.apply d (Doc_oracle.of_mutation op)) doc ops
  in
  Alcotest.(check bool) "spliced document = rebuilt document" true
    (match Engine.document e with
    | Some d -> Doc.pack d = Doc.pack rebuilt
    | None -> false);
  let spliced_path = tmp_path "spliced" and rebuilt_path = tmp_path "rebuilt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ spliced_path; rebuilt_path ])
    (fun () ->
      ignore (Xerror.get_exn (Engine.save_snapshot_r e spliced_path));
      (match Snapshot.save ~doc:rebuilt ~lsn:(Engine.lsn e) rebuilt_path (Engine.catalog e) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "save failed: %s" msg);
      Alcotest.(check bool) "snapshot bytes identical" true
        (String.equal (read_file spliced_path) (read_file rebuilt_path)))

let test_lazy_engine_save () =
  (* Regression: saving from a lazily-opened engine used to serialize the
     resident skeleton — a checksum-valid snapshot full of empty extents,
     silently destroying the data. The save must materialize through the
     backing reader and round-trip losslessly. *)
  let doc = bib () in
  let cat = bib_catalog doc in
  with_snapshot ~doc cat (fun path ->
      let lazy_ =
        Xerror.get_exn (Engine.of_snapshot_r ~lazy_extents:true ~extent_cache:4096 path)
      in
      let resaved = tmp_path "lazysave" in
      let bytes = Xerror.get_exn (Engine.save_snapshot_r lazy_ resaved) in
      Fun.protect
        ~finally:(fun () -> Sys.remove resaved)
        (fun () ->
          Alcotest.(check bool) "resaved snapshot has substance" true (bytes > 64);
          match Snapshot.load_with_lsn resaved with
          | Error e -> Alcotest.failf "reopening the lazy save failed: %s" e
          | Ok (d, cat', _) ->
              Alcotest.(check bool) "document survives a lazy save" true
                (match d with Some d -> doc_equal d doc | None -> false);
              Alcotest.(check bool) "lazy save keeps the real extents" true
                (catalog_equal cat cat')))

let test_lazy_engine_add_module () =
  (* Regression: a catalog swap on a lazy engine (add_module) used to
     rebuild the environment from the skeleton, after which every query
     scanned empty extents. The swap must materialize the paged extents
     first. *)
  let doc = bib () in
  let cat = bib_catalog doc in
  let pat =
    P.make
      [ P.v "book" ~node:(P.mk_node ~id:Xdm.Nid.Structural "book")
          [ P.v ~axis:P.Child "title" ~node:(P.mk_node ~value:true "title") [] ] ]
  in
  let base = Engine.of_doc doc (specs_of doc) in
  let expected = (Xerror.get_exn (Engine.query_r base pat)).Engine.rel in
  Alcotest.(check bool) "the workload answer is non-empty" true
    (Rel.cardinality expected > 0);
  with_snapshot ~doc cat (fun path ->
      let e = Xerror.get_exn (Engine.of_snapshot_r ~lazy_extents:true path) in
      Engine.add_module e (Store.materialize doc "extra_book_title" pat);
      let r = Xerror.get_exn (Engine.query_r e pat) in
      Alcotest.(check bool) "queries scan real extents after the swap" true
        (Rel.equal_unordered expected r.Engine.rel);
      (* And a save after the swap still carries every original extent. *)
      let resaved = tmp_path "swapsave" in
      ignore (Xerror.get_exn (Engine.save_snapshot_r e resaved));
      Fun.protect
        ~finally:(fun () -> Sys.remove resaved)
        (fun () ->
          match Snapshot.load_with_lsn resaved with
          | Error err -> Alcotest.failf "reopen failed: %s" err
          | Ok (_, cat', _) ->
              Alcotest.(check int) "all modules present plus the new one"
                (List.length cat.Store.modules + 1)
                (List.length cat'.Store.modules);
              Alcotest.(check bool) "no extent was emptied by the swap" true
                (List.for_all
                   (fun (m : Store.module_) ->
                     List.exists
                       (fun (m' : Store.module_) ->
                         String.equal m.Store.name m'.Store.name
                         && Rel.equal_unordered m.Store.extent m'.Store.extent)
                       cat'.Store.modules)
                   cat.Store.modules)))

let test_persist_metrics () =
  let doc = bib () in
  let cat = bib_catalog doc in
  let reg = Xobs.Metrics.create () in
  let path = tmp_path "metrics" in
  (match Snapshot.save ~doc ~metrics:reg path cat with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* The budget is in bytes and comfortably holds one module's
         sections, so the second force must hit the cache. *)
      (match Snapshot.Reader.open_ ~cache_capacity:65536 ~metrics:reg path with
      | Error e -> Alcotest.failf "open failed: %s" e
      | Ok r ->
          Fun.protect
            ~finally:(fun () -> Snapshot.Reader.close r)
            (fun () ->
              let lc = Snapshot.Reader.lazy_catalog r in
              let force (m : Store.lazy_module) = ignore (m.Store.lm_extent ()) in
              let m0 = List.hd lc.Store.lc_modules in
              force m0;
              force m0));
      let v name =
        match
          List.find_opt (fun (n, _, _) -> String.equal n name)
            (Xobs.Metrics.metrics reg)
        with
        | Some (_, _, Xobs.Metrics.Counter c) -> Xobs.Metrics.counter_value c
        | _ -> Alcotest.failf "metric %s missing" name
      in
      Alcotest.(check bool) "bytes written counted" true
        (v "persist_bytes_written_total" > 0);
      Alcotest.(check bool) "bytes read counted" true
        (v "persist_bytes_read_total" > 0);
      Alcotest.(check bool) "second page-in was a cache hit" true
        (v "persist_extent_cache_hits_total" >= 1);
      Alcotest.(check bool) "first page-in was a miss" true
        (v "persist_extent_cache_misses_total" >= 1))

let () =
  Alcotest.run "persist"
    [ ( "binio",
        [ QCheck_alcotest.to_alcotest int_roundtrip_prop;
          QCheck_alcotest.to_alcotest str_roundtrip_prop;
          Alcotest.test_case "corrupt inputs" `Quick test_binio_corrupt;
          Alcotest.test_case "crc32" `Quick test_crc32 ] );
      ( "codec",
        [ QCheck_alcotest.to_alcotest value_roundtrip_prop;
          QCheck_alcotest.to_alcotest pattern_roundtrip_prop;
          Alcotest.test_case "summary/doc/catalog structures" `Quick
            test_codec_structures ] );
      ( "snapshot",
        [ Alcotest.test_case "eager save/load is lossless" `Quick
            test_save_load_eager;
          Alcotest.test_case "snapshot without document" `Quick
            test_save_load_no_doc;
          Alcotest.test_case "failed save leaves previous intact" `Quick
            test_save_atomic;
          Alcotest.test_case "lsn round-trips through the meta section" `Quick
            test_lsn_roundtrip;
          Alcotest.test_case "dormant modules round-trip" `Quick
            test_dormant_section;
          Alcotest.test_case "concurrent saves to one path" `Quick
            test_save_concurrent_same_path;
          Alcotest.test_case "paging reader is lossless" `Quick test_reader_lazy;
          Alcotest.test_case "page-in after close faults" `Quick
            test_reader_closed ] );
      ( "corruption",
        [ Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "bit flips" `Quick test_bit_flips;
          Alcotest.test_case "foreign files and bad version" `Quick
            test_foreign_files;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "corrupt lazy extent is quarantined" `Quick
            test_lazy_corrupt_extent_quarantined;
          Alcotest.test_case "hostile TOC geometry" `Quick
            test_hostile_toc_geometry;
          Alcotest.test_case "hostile element counts" `Quick
            test_hostile_counts;
          Alcotest.test_case "hostile document section" `Quick
            test_hostile_doc_section ] );
      ( "engine",
        [ Alcotest.test_case "save / reopen equivalence" `Quick
            test_engine_roundtrip;
          Alcotest.test_case "hot-swap via load_snapshot" `Quick
            test_engine_hot_swap;
          Alcotest.test_case "spliced edits snapshot byte-identically" `Quick
            test_spliced_snapshot_bytes;
          Alcotest.test_case "lazy engine saves real extents" `Quick
            test_lazy_engine_save;
          Alcotest.test_case "lazy engine add_module materializes" `Quick
            test_lazy_engine_add_module;
          Alcotest.test_case "persist metrics" `Quick test_persist_metrics ] ) ]
