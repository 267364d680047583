(* Snapshot images compared field by field, and the snapshot files of
   older format versions committed under fixtures/ (see
   fixtures/README.md): each must keep loading, directly and through a
   rewrite by the current writer, to the image it was written from. *)

module P = Xam.Pattern
module Doc = Xdm.Doc
module Store = Xstorage.Store
module Snapshot = Xpersist.Snapshot

(* Under [dune runtest] the working directory is the test directory;
   under [dune exec test/<t>.exe] it is the repository root. *)
let fixture name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local else Filename.concat "test" local

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The first header word after the 8-byte magic. *)
let version_of data = Int64.to_int (String.get_int64_le data 8)

let doc_equal a b =
  String.equal (Doc.name a) (Doc.name b) && Doc_pack.pack a = Doc_pack.pack b

let module_equal (a : Store.module_) (b : Store.module_) =
  String.equal a.Store.name b.Store.name
  && P.equal a.Store.xam b.Store.xam
  && a.Store.extent = b.Store.extent
  && a.Store.parts = b.Store.parts

let catalog_equal (a : Store.catalog) (b : Store.catalog) =
  Xsummary.Summary.export a.Store.summary = Xsummary.Summary.export b.Store.summary
  && List.equal module_equal a.Store.modules b.Store.modules

(* Which field differs, or [None]. *)
let image_diff (a : Snapshot.image) (b : Snapshot.image) =
  let declared_equal =
    List.equal (fun (n, x) (n', x') -> String.equal n n' && P.equal x x')
  in
  if not (Option.equal doc_equal a.Snapshot.doc b.Snapshot.doc) then Some "document"
  else if not (catalog_equal a.Snapshot.catalog b.Snapshot.catalog) then Some "catalog"
  else if a.Snapshot.lsn <> b.Snapshot.lsn then Some "lsn"
  else if not (declared_equal a.Snapshot.declared b.Snapshot.declared) then Some "declared list"
  else if a.Snapshot.dormant <> b.Snapshot.dormant then Some "dormant set"
  else None

let check_image what want got =
  match image_diff want got with
  | None -> ()
  | Some field -> Alcotest.failf "%s: the %s differs" what field

let read_exn path =
  match Snapshot.read path with
  | Ok img -> img
  | Error e -> Alcotest.failf "reading %s: %s" path e

(* [path] must load to [want] through [Snapshot.read], and so must the
   file the current writer makes of what it loaded. Returns that file's
   MD5, in hex. *)
let check_loads ~tmp path want =
  check_image (path ^ " through Snapshot.read") want (read_exn path);
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      (match Snapshot.write tmp (read_exn path) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rewriting %s: %s" path e);
      Alcotest.(check int) "the rewrite is version 3" 3 (version_of (read_file tmp));
      check_image (path ^ " rewritten, through Snapshot.read") want (read_exn tmp);
      Digest.to_hex (Digest.string (read_file tmp)))
