(* The persistence layer: binary codecs, snapshot save/load,
   crash-safety of the file format under corruption, and the engine's
   snapshot entry points. *)

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

(* Every stream property holds under both integer encodings. *)
let encodings = [ Binio.Fixed; Binio.Varint ]

let int_gen =
  QCheck2.Gen.(
    oneof [ oneofl [ min_int; max_int; -1; 0; 127; 128 ]; small_signed_int; int ])

let int_roundtrip_prop =
  QCheck2.Test.make ~name:"int encode/decode roundtrip" ~count:500 int_gen (fun i ->
      List.for_all
        (fun ints ->
          let w = Binio.writer ~ints () in
          Binio.w_int w i;
          Binio.w_sint w i;
          let r = Binio.reader ~ints (Binio.contents w) in
          let got = Binio.r_int r in
          let got_s = Binio.r_sint r in
          Binio.expect_end r;
          got = i && got_s = i)
        encodings)

let str_roundtrip_prop =
  QCheck2.Test.make ~name:"string encode/decode roundtrip" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 200))
    (fun s ->
      List.for_all
        (fun ints ->
          let w = Binio.writer ~ints () in
          Binio.w_str w s;
          let r = Binio.reader ~ints (Binio.contents w) in
          let got = Binio.r_str r in
          Binio.expect_end r;
          String.equal got s)
        encodings)

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
    (corrupt (fun () -> Binio.reader ~pos:2 ~len:10 "abc"));
  let varint data = Binio.reader ~ints:Binio.Varint data in
  List.iter
    (fun (what, data) ->
      Alcotest.(check bool) (what ^ " (r_int)") true
        (corrupt (fun () -> Binio.r_int (varint data)));
      Alcotest.(check bool) (what ^ " (r_sint)") true
        (corrupt (fun () -> Binio.r_sint (varint data))))
    [ ("empty varint", "");
      ("varint cut after a continuation byte", "\x80");
      ("10-byte varint", String.make 9 '\x80' ^ "\x00");
      ("varint overflowing 63 bits", String.make 9 '\xff' ^ "\x01") ];
  Alcotest.(check int) "the largest 9-byte varint is -1, not an overflow" (-1)
    (Binio.r_int (varint (String.make 8 '\xff' ^ "\x7f")));
  let w = Binio.writer ~ints:Binio.Varint () in
  Binio.w_int w max_int;
  Alcotest.(check bool) "oversized varint string length" true
    (corrupt (fun () -> Binio.r_str (varint (Binio.contents w))))

let test_crc32 () =
  (* Known vector: CRC-32("123456789") = 0xCBF43926. *)
  Alcotest.(check int) "IEEE test vector" 0xCBF43926 (Binio.crc32 "123456789");
  Alcotest.(check bool) "a flipped bit changes the checksum" true
    (Binio.crc32 "123456789" <> Binio.crc32 "123456788")

(* The slicing-by-8 CRC against the bytewise reference: short strings
   at every offset (the eight-byte loop and the byte tail meet at every
   alignment), random slices, and one string of about 1 MB. *)
let crc32_reference_prop =
  let slice =
    QCheck2.Gen.(
      let* s = string_size ~gen:(char_range '\000' '\255') (int_bound 80) in
      let* pos = int_bound (String.length s) in
      let* len = int_bound (String.length s - pos) in
      return (s, pos, len))
  in
  QCheck2.Test.make ~name:"crc32 equals the bytewise reference" ~count:500
    ~print:(fun (s, pos, len) -> Printf.sprintf "%S ~pos:%d ~len:%d" s pos len)
    slice (fun (s, pos, len) ->
      let want = Binio_ref.crc32 ~pos ~len s in
      (* and resumed at any split point, as a stream is checksummed *)
      let k = len / 3 in
      Binio.crc32 ~pos ~len s = want
      && Binio.crc32 ~crc:(Binio.crc32 ~pos ~len:k s) ~pos:(pos + k) ~len:(len - k) s = want)

let test_crc32_reference_edges () =
  let rng = Random.State.make [| 17 |] in
  let random n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let s = random 40 in
  for len = 0 to 17 do
    for pos = 0 to 8 do
      Alcotest.(check int)
        (Printf.sprintf "len %d at pos %d" len pos)
        (Binio_ref.crc32 ~pos ~len s) (Binio.crc32 ~pos ~len s)
    done
  done;
  let big = random ((1 lsl 20) + 13) in
  Alcotest.(check int) "about 1 MB"
    (Binio_ref.crc32 ~pos:0 ~len:(String.length big) big) (Binio.crc32 big);
  Alcotest.(check int) "about 1 MB at an unaligned offset"
    (Binio_ref.crc32 ~pos:5 ~len:(String.length big - 9) big)
    (Binio.crc32 ~pos:5 ~len:(String.length big - 9) big)

(* A spilling writer hands its sink exactly the bytes a plain writer
   keeps, in order, wherever its 64 KiB buffer fills: a filler of 60–200
   KB among small items makes it spill once to a few times, at varying
   offsets. *)
let spilling_writer_prop =
  QCheck2.Test.make ~name:"a spilling writer streams a plain writer's bytes" ~count:50
    QCheck2.Gen.(
      let item =
        oneof [ map (fun i -> `I i) int; map (fun s -> `S s) (string_size (int_bound 100)) ]
      in
      triple (list_size (int_bound 30) item)
        (map (fun n -> `S (String.make n 'x')) (int_range 60_000 200_000))
        (list_size (int_bound 30) item))
    (fun (before, filler, after) ->
      let items = before @ (filler :: after) in
      List.for_all
        (fun ints ->
          let out = Buffer.create 64 in
          let plain = Binio.writer ~ints () in
          let spill = Binio.spilling ~ints (fun b n -> Buffer.add_subbytes out b 0 n) in
          List.iter
            (fun w ->
              List.iter (function `I i -> Binio.w_int w i | `S s -> Binio.w_str w s) items)
            [ plain; spill ];
          Binio.flush spill;
          Binio.size spill = Binio.size plain
          && String.equal (Buffer.contents out) (Binio.contents plain))
        encodings)

let w_int_reference_prop =
  QCheck2.Test.make ~name:"w_int emits the reference's 8 bytes" ~count:500
    QCheck2.Gen.(oneof [ oneofl [ min_int; max_int; -1; 0; 1 ]; int ])
    (fun v ->
      let w = Binio.writer () in
      Binio.w_int w v;
      String.equal (Binio.contents w) (Binio_ref.int_bytes v))

let varint_reference_prop =
  QCheck2.Test.make ~name:"varint w_int emits the reference's LEB128 bytes" ~count:500
    int_gen (fun v ->
      let w = Binio.writer ~ints:Binio.Varint () in
      Binio.w_int w v;
      String.equal (Binio.contents w) (Binio_ref.varint_bytes v))

(* Sizes and bytes at the edges: one byte below 128, nine for anything
   negative through [w_int], and zigzag folding small magnitudes of
   either sign into one byte through [w_sint]. *)
let test_varint_bytes () =
  let bytes w v =
    let b = Binio.writer ~ints:Binio.Varint () in
    w b v;
    Binio.contents b
  in
  List.iter
    (fun (v, want) ->
      Alcotest.(check string) (Printf.sprintf "w_int %d" v) want (bytes Binio.w_int v))
    [ (0, "\x00"); (1, "\x01"); (127, "\x7f"); (128, "\x80\x01"); (300, "\xac\x02");
      (max_int, String.make 8 '\xff' ^ "\x3f"); (-1, String.make 8 '\xff' ^ "\x7f") ];
  List.iter
    (fun (v, want) ->
      Alcotest.(check string) (Printf.sprintf "w_sint %d" v) want (bytes Binio.w_sint v))
    [ (0, "\x00"); (-1, "\x01"); (1, "\x02"); (-64, "\x7f"); (64, "\x80\x01");
      (max_int, "\xfe" ^ String.make 7 '\xff' ^ "\x7f");
      (min_int, String.make 8 '\xff' ^ "\x7f") ]

(* --- Codec round-trips --------------------------------------------------- *)

let via ?(ints = Binio.Fixed) w r x =
  let b = Binio.writer ~ints () in
  w b x;
  let rd = Binio.reader ~ints (Binio.contents b) in
  let got = r rd in
  Binio.expect_end rd;
  got

(* [x] round-trips under both encodings. *)
let via_both w r x = List.map (fun ints -> via ~ints w r x) encodings

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
      List.for_all (( = ) v) (via_both Codec.w_value Codec.r_value v))

(* [Value.Int] is the one signed integer of the codecs: zigzag keeps
   -1 as short as 0, and the extremes take the full nine bytes. *)
let test_int_value_zigzag () =
  List.iter
    (fun (v, bytes) ->
      let b = Binio.writer ~ints:Binio.Varint () in
      Codec.w_value b (V.Int v);
      Alcotest.(check int) (Printf.sprintf "Int %d: tag and varint bytes" v) (1 + bytes)
        (Binio.size b);
      Alcotest.(check bool) (Printf.sprintf "Int %d round-trips" v) true
        (via ~ints:Binio.Varint Codec.w_value Codec.r_value (V.Int v) = V.Int v))
    [ (min_int, 9); (max_int, 9); (-1, 1); (0, 1) ]

let test_codec_structures () =
  let doc = bib () in
  let s = S.of_doc doc in
  Alcotest.(check bool) "summary roundtrips" true
    (List.for_all
       (fun s' -> S.export s' = S.export s)
       (via_both Codec.w_summary Codec.r_summary s));
  Alcotest.(check bool) "doc roundtrips" true
    (doc_equal (via ~ints:Binio.Varint Codec.w_doc Codec.r_doc doc) doc);
  Alcotest.(check bool) "the document layout is written with varints only" true
    (match Codec.w_doc (Binio.writer ()) doc with
    | exception Invalid_argument _ -> true
    | () -> false);
  let cat = bib_catalog doc in
  List.iter
    (fun (m : Store.module_) ->
      Alcotest.(check bool)
        (Printf.sprintf "pattern of %s roundtrips" m.Store.name)
        true
        (List.for_all (P.equal m.Store.xam) (via_both Codec.w_pattern Codec.r_pattern m.Store.xam));
      Alcotest.(check bool)
        (Printf.sprintf "extent of %s roundtrips" m.Store.name)
        true
        (List.for_all (( = ) m.Store.extent) (via_both Codec.w_rel Codec.r_rel m.Store.extent)))
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
      List.for_all (P.equal p) (via_both Codec.w_pattern Codec.r_pattern p))

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
      | Ok (_, _, lsn) -> Alcotest.(check int) "load carries lsn" 42 lsn);
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
                    Alcotest.failf "load raised %s" (Printexc.to_string e))))
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
                (Printf.sprintf "bit flip at %d fails closed" off)
                true (load_is_fail_closed cat p)))
        offsets)

let test_foreign_files () =
  let reject name data =
    let p = tmp_path "foreign" in
    write_file p data;
    Fun.protect
      ~finally:(fun () -> Sys.remove p)
      (fun () ->
        Alcotest.(check bool) (name ^ " rejected by load") true
          (match Snapshot.load_with_lsn p with Error _ -> true | Ok _ -> false))
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

(* [data] with section [name]'s payload replaced by [f payload] (of any
   length): the sections after it move, and every offset, the section's
   CRC and the TOC CRC are fixed up — a CRC-valid forgery. The TOC is
   fixed-width apart from the names, so its length does not change. *)
let forge_section data name f =
  let toc_len = get_int data 16 in
  let r = Binio.reader ~pos:32 ~len:toc_len data in
  (* TOC: entry count, then per entry name, offset, length, CRC. *)
  let sections =
    List.init (Binio.r_int r) (fun _ ->
        let sname = Binio.r_str r in
        let off = Binio.r_int r in
        let len = Binio.r_int r in
        ignore (Binio.r_int r);
        (sname, String.sub data off len))
  in
  if not (List.mem_assoc name sections) then Alcotest.failf "no %s section" name;
  let sections = List.map (fun (n, p) -> (n, if n = name then f p else p)) sections in
  let toc = Binio.writer () in
  Binio.w_int toc (List.length sections);
  ignore
    (List.fold_left
       (fun off (n, p) ->
         Binio.w_str toc n;
         Binio.w_int toc off;
         Binio.w_int toc (String.length p);
         Binio.w_int toc (Binio.crc32 p);
         off + String.length p)
       (32 + toc_len) sections);
  let toc = Binio.contents toc in
  let head = Binio.writer () in
  List.iter (Binio.w_int head) [ get_int data 8; toc_len; Binio.crc32 toc ];
  String.concat "" (String.sub data 0 8 :: Binio.contents head :: toc :: List.map snd sections)

(* [Snapshot.load_with_lsn] and [Engine.of_snapshot_r] reject [data]
   with an [Error], never an exception, and the snapshot error names
   [because] when it is given. *)
let rejected ?(because = "") what data =
  let p = tmp_path "hostile" in
  write_file p data;
  let says e =
    let n = String.length because in
    let rec at i = i + n <= String.length e && (String.sub e i n = because || at (i + 1)) in
    at 0 || Alcotest.failf "%s: the error %S does not say %S" what e because
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove p)
    (fun () ->
      Alcotest.(check bool) (what ^ ": load_with_lsn") true
        (match Snapshot.load_with_lsn p with
        | Error e -> says e
        | Ok _ -> false
        | exception e -> Alcotest.failf "%s: load raised %s" what (Printexc.to_string e));
      Alcotest.(check bool) (what ^ ": Engine.of_snapshot_r") true
        (match Engine.of_snapshot_r p with
        | Error (Xerror.Snapshot_error _) -> true
        | Error e -> Alcotest.failf "%s: wrong error class: %s" what (Xerror.to_string e)
        | Ok _ -> false
        | exception e -> Alcotest.failf "%s: open raised %s" what (Printexc.to_string e)))

(* A flip in the tail of the file lands in the last partition's
   payload, which only that section's checksum covers: the whole open
   fails, naming the section, and no engine is made over the rest. *)
let test_corrupt_partition_fails_open () =
  let doc = bib () in
  with_snapshot ~doc (bib_catalog doc) (fun path ->
      let data = Bytes.of_string (read_file path) in
      let off = Bytes.length data - 3 in
      Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0x01));
      rejected ~because:"part:" "a bit flip in the last partition" (Bytes.to_string data))

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
      rejected "overflowing section offset" (patched off_field (max_int - 4));
      rejected "overflowing section length" (patched len_field (max_int - 64));
      rejected "negative section offset" (patched off_field (-8)))

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
  (* Each payload in both integer encodings: the codecs are shared, and
     the count guards scale with the stream's smallest integer. *)
  List.iter
    (fun ints ->
      let enc = match ints with Binio.Fixed -> "8-byte integers" | Binio.Varint -> "varints" in
      let case what bytes r =
        let w = Binio.writer ~ints () in
        bytes w;
        corrupt_only (Printf.sprintf "%s (%s)" what enc) (fun () ->
            r (Binio.reader ~ints (Binio.contents w)))
      in
      case "huge tuple count"
        (fun w ->
          (* one atomic column, then an absurd tuple count *)
          Binio.w_int w 1;
          Binio.w_str w "c";
          Binio.w_u8 w 0;
          Binio.w_int w max_int)
        Codec.r_rel;
      case "huge summary row count" (fun w -> Binio.w_int w (max_int / 8)) Codec.r_summary;
      case "huge document node count"
        (fun w ->
          Binio.w_str w "d";
          (* the v3 layout has a one-label table before the node count *)
          if ints = Binio.Varint then begin
            Binio.w_int w 1;
            Binio.w_str w "a"
          end;
          Binio.w_int w (max_int / 2))
        Codec.r_doc;
      case "huge dewey component count"
        (fun w ->
          Binio.w_u8 w 3;
          Binio.w_int w max_int)
        Codec.r_nid)
    encodings;
  corrupt_only "huge label count (varints)" (fun () ->
      let w = Binio.writer ~ints:Binio.Varint () in
      Binio.w_str w "d";
      Binio.w_int w (max_int / 2);
      Codec.r_doc (Binio.reader ~ints:Binio.Varint (Binio.contents w)))

(* The document and catalog the pinned snapshot files hold. *)
let pinned_doc () = Xworkload.Gen_bib.generate_doc ~seed:7 ~books:10 ~theses:3 ()

(* Version 2 document sections, which old files hold, still go through
   the decoder that reads every column. A CRC-valid section whose node
   array is inconsistent (one node's post, depth, parent or ordinal
   forged) must fail closed: [Doc.of_columns] rejects it, so every open
   path reports a snapshot error instead of handing out a document whose
   structural predicates lie. The forgeries are made in the committed
   version 2 file. *)
let test_hostile_doc_section () =
  let doc = pinned_doc () in
  (* The version 2 document layout, re-encoded here so a node can be
     forged. *)
  let encode packed =
    let w = Binio.writer () in
    Binio.w_str w (Doc.name doc);
    Binio.w_int w (Array.length packed);
    Array.iter
      (fun (p : Doc_pack.packed_node) ->
        List.iter (Binio.w_int w) [ p.p_post; p.p_depth; p.p_parent; p.p_ordinal ];
        Binio.w_u8 w (match p.p_kind with Doc.Element -> 0 | Doc.Attribute -> 1 | Doc.Text -> 2);
        Binio.w_str w p.p_label;
        Binio.w_str w p.p_value;
        Binio.w_int w p.p_subtree_end)
      packed;
    Binio.contents w
  in
  let data = read_file (Snapshot_images.fixture "snapshot_v2.snap") in
  let packed = Doc_pack.pack doc in
  List.iter
    (fun (what, forge) ->
      let forged =
        forge_section data "doc" (fun section ->
            Alcotest.(check string) "re-encoding matches the v2 codec" section (encode packed);
            let copy = Array.copy packed in
            copy.(3) <- forge copy;
            encode copy)
      in
      rejected ~because:"document" what forged;
      let p = tmp_path "hostile_doc" in
      write_file p forged;
      Fun.protect
        ~finally:(fun () -> Sys.remove p)
        (fun () ->
          match Engine.of_snapshot_r p with
          | Error (Xerror.Snapshot_error _) -> ()
          | Error e -> Alcotest.failf "wrong error class: %s" (Xerror.to_string e)
          | Ok _ -> Alcotest.failf "%s: opened a snapshot with an inconsistent document" what))
    [ ("the post of another node", fun p ->
          { (p.(3)) with Doc_pack.p_post = p.(2).Doc_pack.p_post });
      ("a depth off by one", fun p ->
          { (p.(3)) with Doc_pack.p_depth = p.(3).Doc_pack.p_depth + 1 });
      ("a parent that is not the open node", fun p ->
          { (p.(3)) with Doc_pack.p_parent = p.(3).Doc_pack.p_parent + 1 });
      ("an ordinal off by one", fun p ->
          { (p.(3)) with Doc_pack.p_ordinal = p.(3).Doc_pack.p_ordinal + 1 }) ]

(* Version 3 sections are varints with a document of only what cannot be
   derived, so their hostile forms differ: varints too long to be an int,
   a label index past the table, subtree ends that do not nest, counts no
   section could hold, and a document section cut at every byte. Each,
   CRC-valid, must fail closed. *)
let test_hostile_v3_sections () =
  let doc = Doc.of_string "<a x=\"1\"><b>t</b><c/></a>" in
  let cat = bib_catalog doc in
  (* handles: a 0, @x 1, b 2, the text "t" 3, c 4 *)
  let labels = Array.init 5 (Doc.label doc) in
  (* The v3 document layout by hand: [(kind, label index, value, end - i)]. *)
  let encode nodes =
    let w = Binio.writer ~ints:Binio.Varint () in
    Binio.w_str w (Doc.name doc);
    Binio.w_int w (Array.length labels);
    Array.iter (Binio.w_str w) labels;
    Binio.w_int w (List.length nodes);
    List.iter
      (fun (kind, label, value, span) ->
        Binio.w_u8 w kind;
        Binio.w_int w label;
        Option.iter (Binio.w_str w) value;
        Binio.w_int w span)
      nodes;
    Binio.contents w
  in
  let good =
    [ (0, 0, None, 5); (1, 1, Some "1", 1); (0, 2, None, 2); (2, 3, Some "t", 1); (0, 4, None, 1) ]
  in
  (* [good] with node [i] replaced by [f] of it *)
  let forged i f = encode (List.mapi (fun j n -> if j = i then f n else n) good) in
  let varints ints =
    let w = Binio.writer ~ints:Binio.Varint () in
    List.iter (Binio.w_int w) ints;
    Binio.contents w
  in
  with_snapshot ~doc cat (fun path ->
      let data = read_file path in
      Alcotest.(check int) "the writer emits version 3" 3 (Snapshot_images.version_of data);
      let with_doc payload = forge_section data "doc" (fun _ -> payload) in
      let section = encode good in
      Alcotest.(check bool) "the hand encoding is the codec's" true
        (String.equal (with_doc section) data);
      rejected ~because:"varint" "a 10-byte varint"
        (with_doc (String.make 9 '\x80' ^ "\x00" ^ section));
      rejected ~because:"varint" "a varint overflowing 63 bits"
        (with_doc (String.make 9 '\xff' ^ "\x01" ^ section));
      rejected ~because:"outside a table" "a label index past the table"
        (with_doc (forged 4 (fun (k, _, v, s) -> (k, 5, v, s))));
      rejected ~because:"subtree end" "subtree ends that do not nest"
        (with_doc (forged 2 (fun (k, l, v, _) -> (k, l, v, 4))));
      rejected ~because:"subtree end" "an empty subtree"
        (with_doc (forged 4 (fun (k, l, v, _) -> (k, l, v, 0))));
      (* the attribute moved after b's subtree *)
      rejected ~because:"attribute after" "an attribute after a non-attribute sibling"
        (with_doc
           (encode
              [ (0, 0, None, 5); (0, 2, None, 2); (2, 3, Some "t", 1); (1, 1, Some "1", 1);
                (0, 4, None, 1) ]));
      (* the name, an empty label table, then the count *)
      let name_bytes = String.length (Doc.name doc) + 1 in
      rejected ~because:"node count" "a huge node count"
        (with_doc (String.sub section 0 name_bytes ^ varints [ 0; max_int / 2 ]));
      for keep = 0 to String.length section - 1 do
        rejected
          (Printf.sprintf "the document section cut to %d bytes" keep)
          (with_doc (String.sub section 0 keep))
      done;
      let partitioned =
        (List.find (fun (m : Store.module_) -> m.Store.parts <> None) cat.Store.modules).Store.name
      in
      (* nid, column, one partition of path 0 promising [max_int] positions *)
      rejected ~because:"position count" "a huge position count"
        (forge_section data ("pdir:" ^ partitioned) (fun _ -> varints [ 0; 0; 1; 0; max_int ]));
      rejected "a huge tuple count"
        (forge_section data ("part:" ^ partitioned ^ ":0") (fun _ ->
             (* one atomic column, then an absurd tuple count *)
             varints [ 1; 1 ] ^ "c\x00" ^ varints [ max_int ])))

(* The optional dormant section: absent when there is nothing dormant
   (so [write] with none is byte-identical to [save]), read back exactly,
   and positions that cannot describe a declared
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
      let fails_closed what =
        Alcotest.(check bool) (what ^ ": eager read fails closed") true
          (Result.is_error (Snapshot.read path))
      in
      (* the second entry's position (3) forged onto the first: positions
         no longer ascend. The section opens with the entry count and the
         first position, one varint byte each. *)
      write_file path
        (forge_section (read_file path) "dormant" (fun section ->
             Alcotest.(check string) "count 2, first position 0" "\002\000"
               (String.sub section 0 2);
             let b = Bytes.of_string section in
             Bytes.set b 1 '\003';
             Bytes.to_string b));
      fails_closed "repeated position";
      (* a declared list the catalog does not fit: a dormant module past
         the end *)
      ignore (write (live @ [ ("x", xam); ("gone", xam) ]) [ ("gone", "r") ]);
      fails_closed "position past the declared list";
      Alcotest.(check bool) "a dormant name shadowing a live module is refused"
        true
        (Result.is_error (write live [ (fst (List.hd live), "r") ])))

(* The snapshot format pinned by content: a fixed document and catalog
   must keep encoding to exactly these bytes, with and without a dormant
   module. A codec change that alters one byte of the format fails here
   before any round-trip test could notice. The same two images written
   by the version 2 writer are committed under fixtures/ (their digests
   are the ones this test pinned for version 2): each must still load to
   its image, and rewriting it must give the
   pinned version 3 bytes. *)
let test_pinned_snapshot_bytes () =
  let doc = pinned_doc () in
  let cat = bib_catalog doc in
  let live =
    List.map (fun (m : Store.module_) -> (m.Store.name, m.Store.xam)) cat.Store.modules
  in
  let xam = snd (List.hd live) in
  let digest_of path = Digest.to_hex (Digest.string (read_file path)) in
  List.iter
    (fun (what, fixture, declared, dormant, v2_digest, v3_digest) ->
      let image = { Snapshot.doc = Some doc; catalog = cat; lsn = 5; declared; dormant } in
      let path = tmp_path "pinned" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          (match Snapshot.write path image with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "write failed: %s" e);
          Alcotest.(check string) (what ^ ": version 3 bytes") v3_digest (digest_of path));
      let v2 = Snapshot_images.fixture fixture in
      Alcotest.(check string) (what ^ ": the committed version 2 file") v2_digest (digest_of v2);
      let rewritten = Snapshot_images.check_loads ~tmp:(tmp_path "rewrite") v2 image in
      Alcotest.(check string) (what ^ ": its rewrite is the version 3 bytes") v3_digest rewritten)
    [ ( "no dormant module", "snapshot_v2.snap", live, [],
        "475d330052794e85cbe9be660460f729", "ebba262d5ce3e24a6a56f7c6a3e7bbb3" );
      ( "one dormant module", "snapshot_v2_dormant.snap", live @ [ ("gone", xam) ],
        [ ("gone", "path vanished") ],
        "4231f9075381741d004b23a9b6580960", "0443fd01d0273f82c80f429a1f01891c" ) ]

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
      let s = S.of_doc doc in
      (* Patterns returning books, titles and authors: each label's own
         modules. *)
      let patterns =
        List.concat_map
          (fun label ->
            Xworkload.Pattern_gen.generate_many ~seed:17 s
              { Xworkload.Pattern_gen.default with return_labels = [ label ] }
              ~count:15)
          [ "book"; "title"; "author" ]
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
          agree "snapshot answers match" r0 (answer eager))
        patterns;
      Alcotest.(check bool) "some patterns were answerable" true (!answered > 0);
      (* The reopened engine saves the bytes it was opened from. *)
      let resaved = tmp_path "resave" in
      ignore (Xerror.get_exn (Engine.save_snapshot_r eager resaved));
      Fun.protect
        ~finally:(fun () -> Sys.remove resaved)
        (fun () ->
          Alcotest.(check bool) "the resave is byte-identical" true
            (String.equal (read_file path) (read_file resaved))))

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
    | Some d -> Doc_pack.pack d = Doc_pack.pack rebuilt
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

let test_add_module_after_open () =
  (* A module appended to an engine opened from a snapshot joins the
     catalog: queries can use it, and a save carries it next to every
     extent the snapshot held. *)
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
      let e = Xerror.get_exn (Engine.of_snapshot_r path) in
      Engine.add_module e (Store.materialize doc "extra_book_title" pat);
      let r = Xerror.get_exn (Engine.query_r e pat) in
      Alcotest.(check bool) "queries answer after the swap" true
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
      (match Snapshot.read ~metrics:reg path with
      | Error e -> Alcotest.failf "read failed: %s" e
      | Ok _ -> ());
      let v name =
        match
          List.find_opt (fun (n, _, _) -> String.equal n name)
            (Xobs.Metrics.metrics reg)
        with
        | Some (_, _, Xobs.Metrics.Counter c) -> Xobs.Metrics.counter_value c
        | _ -> Alcotest.failf "metric %s missing" name
      in
      let size = String.length (read_file path) in
      Alcotest.(check int) "bytes written counted" size (v "persist_bytes_written_total");
      Alcotest.(check int) "bytes read counted" size (v "persist_bytes_read_total"))

let () =
  Alcotest.run "persist"
    [ ( "binio",
        [ QCheck_alcotest.to_alcotest int_roundtrip_prop;
          QCheck_alcotest.to_alcotest str_roundtrip_prop;
          Alcotest.test_case "corrupt inputs" `Quick test_binio_corrupt;
          Alcotest.test_case "crc32" `Quick test_crc32;
          QCheck_alcotest.to_alcotest crc32_reference_prop;
          Alcotest.test_case "crc32 at every short length and offset" `Quick
            test_crc32_reference_edges;
          QCheck_alcotest.to_alcotest w_int_reference_prop;
          QCheck_alcotest.to_alcotest varint_reference_prop;
          Alcotest.test_case "varint bytes at the edges" `Quick test_varint_bytes;
          QCheck_alcotest.to_alcotest spilling_writer_prop ] );
      ( "codec",
        [ QCheck_alcotest.to_alcotest value_roundtrip_prop;
          QCheck_alcotest.to_alcotest pattern_roundtrip_prop;
          Alcotest.test_case "Value.Int through the zigzag varint" `Quick
            test_int_value_zigzag;
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
          Alcotest.test_case "pinned snapshot bytes" `Quick
            test_pinned_snapshot_bytes;
          Alcotest.test_case "concurrent saves to one path" `Quick
            test_save_concurrent_same_path ] );
      ( "corruption",
        [ Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "bit flips" `Quick test_bit_flips;
          Alcotest.test_case "foreign files and bad version" `Quick
            test_foreign_files;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "corrupt partition fails the open" `Quick
            test_corrupt_partition_fails_open;
          Alcotest.test_case "hostile TOC geometry" `Quick
            test_hostile_toc_geometry;
          Alcotest.test_case "hostile element counts" `Quick
            test_hostile_counts;
          Alcotest.test_case "hostile document section" `Quick
            test_hostile_doc_section;
          Alcotest.test_case "hostile version 3 sections" `Quick
            test_hostile_v3_sections ] );
      ( "engine",
        [ Alcotest.test_case "save / reopen equivalence" `Quick
            test_engine_roundtrip;
          Alcotest.test_case "hot-swap via load_snapshot" `Quick
            test_engine_hot_swap;
          Alcotest.test_case "spliced edits snapshot byte-identically" `Quick
            test_spliced_snapshot_bytes;
          Alcotest.test_case "add_module after a snapshot open" `Quick
            test_add_module_after_open;
          Alcotest.test_case "persist metrics" `Quick test_persist_metrics ] ) ]
