module Nid = Xdm.Nid
module Doc = Xdm.Doc
module Summary = Xsummary.Summary
module Value = Xalgebra.Value
module Rel = Xalgebra.Rel
module Pattern = Xam.Pattern
module Formula = Xam.Formula

let corrupt fmt = Printf.ksprintf (fun s -> raise (Binio.Corrupt s)) fmt

(* [min_bytes] is the smallest possible encoding of one element; a count
   whose minimum footprint exceeds the bytes remaining in the section is
   corruption, caught here before [Array.init]/[List.init] would try to
   allocate attacker-controlled amounts of memory. Footprints are given
   as [ints r k + bytes]: [k] integers in the stream's encoding plus
   [bytes] single bytes. *)
let ints r k = k * Binio.int_bytes r

let r_count r ~min_bytes what =
  let n = Binio.r_int r in
  if n < 0 then corrupt "negative %s count %d" what n;
  if n > Binio.remaining r / min_bytes then
    corrupt "%s count %d exceeds the section" what n;
  n

(* --- Node identifiers ---------------------------------------------------- *)

let w_nid b = function
  | Nid.Simple_id i ->
      Binio.w_u8 b 0;
      Binio.w_int b i
  | Nid.Ordinal_id i ->
      Binio.w_u8 b 1;
      Binio.w_int b i
  | Nid.Pre_post { pre; post; depth } ->
      Binio.w_u8 b 2;
      Binio.w_int b pre;
      Binio.w_int b post;
      Binio.w_int b depth
  | Nid.Dewey path ->
      Binio.w_u8 b 3;
      Binio.w_int b (List.length path);
      List.iter (Binio.w_int b) path

let r_nid r =
  match Binio.r_u8 r with
  | 0 -> Nid.Simple_id (Binio.r_int r)
  | 1 -> Nid.Ordinal_id (Binio.r_int r)
  | 2 ->
      let pre = Binio.r_int r in
      let post = Binio.r_int r in
      let depth = Binio.r_int r in
      Nid.Pre_post { pre; post; depth }
  | 3 ->
      let n = r_count r ~min_bytes:(ints r 1) "dewey component" in
      Nid.Dewey (List.init n (fun _ -> Binio.r_int r))
  | t -> corrupt "nid tag %d" t

(* --- Atomic values ------------------------------------------------------- *)

let w_value b = function
  | Value.Null -> Binio.w_u8 b 0
  | Value.Bool v ->
      Binio.w_u8 b 1;
      Binio.w_bool b v
  | Value.Int v ->
      Binio.w_u8 b 2;
      Binio.w_sint b v
  | Value.Str v ->
      Binio.w_u8 b 3;
      Binio.w_str b v
  | Value.Id nid ->
      Binio.w_u8 b 4;
      w_nid b nid

let r_value r =
  match Binio.r_u8 r with
  | 0 -> Value.Null
  | 1 -> Value.Bool (Binio.r_bool r)
  | 2 -> Value.Int (Binio.r_sint r)
  | 3 -> Value.Str (Binio.r_str r)
  | 4 -> Value.Id (r_nid r)
  | t -> corrupt "value tag %d" t

(* --- Nested relations ---------------------------------------------------- *)

let rec w_schema b (schema : Rel.schema) =
  Binio.w_int b (List.length schema);
  List.iter
    (fun (c : Rel.column) ->
      Binio.w_str b c.Rel.cname;
      match c.Rel.ctype with
      | Rel.Atom -> Binio.w_u8 b 0
      | Rel.Nested inner ->
          Binio.w_u8 b 1;
          w_schema b inner)
    schema

let rec r_schema r : Rel.schema =
  (* name length prefix + type tag *)
  let n = r_count r ~min_bytes:(ints r 1 + 1) "column" in
  List.init n (fun _ ->
      let cname = Binio.r_str r in
      match Binio.r_u8 r with
      | 0 -> { Rel.cname; ctype = Rel.Atom }
      | 1 -> { Rel.cname; ctype = Rel.Nested (r_schema r) }
      | t -> corrupt "column type tag %d" t)

let rec w_tuple b (t : Rel.tuple) =
  Binio.w_int b (Array.length t);
  Array.iter
    (function
      | Rel.A v ->
          Binio.w_u8 b 0;
          w_value b v
      | Rel.N ts ->
          Binio.w_u8 b 1;
          Binio.w_int b (List.length ts);
          List.iter (w_tuple b) ts)
    t

let rec r_tuple r : Rel.tuple =
  (* field tag + value tag (Null) *)
  let n = r_count r ~min_bytes:2 "field" in
  Array.init n (fun _ ->
      match Binio.r_u8 r with
      | 0 -> Rel.A (r_value r)
      | 1 ->
          let k = r_count r ~min_bytes:(ints r 1) "nested tuple" in
          Rel.N (List.init k (fun _ -> r_tuple r))
      | t -> corrupt "field tag %d" t)

(* Decoded tuples are validated against the decoded schema: the rest of
   the engine indexes fields by schema position and kind, and a mismatch
   snuck past here would surface as an [Invalid_argument] mid-query. *)
let rec check_tuple schema (t : Rel.tuple) =
  if Array.length t <> List.length schema then
    corrupt "tuple arity %d against %d columns" (Array.length t) (List.length schema);
  List.iteri
    (fun i (c : Rel.column) ->
      match (c.Rel.ctype, t.(i)) with
      | Rel.Atom, Rel.A _ -> ()
      | Rel.Nested inner, Rel.N ts -> List.iter (check_tuple inner) ts
      | Rel.Atom, Rel.N _ -> corrupt "nested field in atomic column %S" c.Rel.cname
      | Rel.Nested _, Rel.A _ -> corrupt "atomic field in nested column %S" c.Rel.cname)
    schema

let w_rel b (rel : Rel.t) =
  w_schema b rel.Rel.schema;
  Binio.w_int b (List.length rel.Rel.tuples);
  List.iter (w_tuple b) rel.Rel.tuples

let r_rel r =
  let schema = r_schema r in
  let n = r_count r ~min_bytes:(ints r 1) "tuple" in
  let tuples = List.init n (fun _ -> r_tuple r) in
  List.iter (check_tuple schema) tuples;
  Rel.make schema tuples

(* --- XAM patterns -------------------------------------------------------- *)

let w_scheme_opt b = function
  | None -> Binio.w_u8 b 0
  | Some Nid.Simple -> Binio.w_u8 b 1
  | Some Nid.Ordinal -> Binio.w_u8 b 2
  | Some Nid.Structural -> Binio.w_u8 b 3
  | Some Nid.Parental -> Binio.w_u8 b 4

let r_scheme_opt r =
  match Binio.r_u8 r with
  | 0 -> None
  | 1 -> Some Nid.Simple
  | 2 -> Some Nid.Ordinal
  | 3 -> Some Nid.Structural
  | 4 -> Some Nid.Parental
  | t -> corrupt "id-scheme tag %d" t

let w_node b (n : Pattern.node) =
  Binio.w_int b n.Pattern.nid;
  Binio.w_str b n.Pattern.label;
  w_scheme_opt b n.Pattern.id_scheme;
  let bit i v = if v then 1 lsl i else 0 in
  Binio.w_u8 b
    (bit 0 n.Pattern.id_required lor bit 1 n.Pattern.tag_stored
    lor bit 2 n.Pattern.tag_required lor bit 3 n.Pattern.val_stored
    lor bit 4 n.Pattern.val_required lor bit 5 n.Pattern.cont_stored
    lor bit 6 n.Pattern.cont_required);
  Binio.w_str b (Formula.serialize n.Pattern.formula)

let r_node r : Pattern.node =
  let nid = Binio.r_int r in
  let label = Binio.r_str r in
  let id_scheme = r_scheme_opt r in
  let bits = Binio.r_u8 r in
  if bits land lnot 0x7f <> 0 then corrupt "node attribute bits %#x" bits;
  let bit i = bits land (1 lsl i) <> 0 in
  let formula =
    let s = Binio.r_str r in
    match Formula.of_string s with
    | Ok f -> f
    | Error e -> corrupt "formula %S: %s" s e
  in
  { Pattern.nid; label; id_scheme; id_required = bit 0; tag_stored = bit 1;
    tag_required = bit 2; val_stored = bit 3; val_required = bit 4;
    cont_stored = bit 5; cont_required = bit 6; formula }

let w_edge b (e : Pattern.edge) =
  Binio.w_u8 b (match e.Pattern.axis with Pattern.Child -> 0 | Pattern.Descendant -> 1);
  Binio.w_u8 b
    (match e.Pattern.sem with
    | Pattern.Join -> 0
    | Pattern.Outer -> 1
    | Pattern.Semi -> 2
    | Pattern.Nest_join -> 3
    | Pattern.Nest_outer -> 4)

let r_edge r : Pattern.edge =
  let axis =
    match Binio.r_u8 r with
    | 0 -> Pattern.Child
    | 1 -> Pattern.Descendant
    | t -> corrupt "axis tag %d" t
  in
  let sem =
    match Binio.r_u8 r with
    | 0 -> Pattern.Join
    | 1 -> Pattern.Outer
    | 2 -> Pattern.Semi
    | 3 -> Pattern.Nest_join
    | 4 -> Pattern.Nest_outer
    | t -> corrupt "edge semantics tag %d" t
  in
  { Pattern.axis; sem }

let rec w_tree b (t : Pattern.tree) =
  w_node b t.Pattern.node;
  w_edge b t.Pattern.edge;
  Binio.w_int b (List.length t.Pattern.children);
  List.iter (w_tree b) t.Pattern.children

let rec r_tree r : Pattern.tree =
  let node = r_node r in
  let edge = r_edge r in
  (* node (three ints, two bytes) + edge (two bytes) + child count *)
  let n = r_count r ~min_bytes:(ints r 4 + 4) "pattern child" in
  { Pattern.node; edge; children = List.init n (fun _ -> r_tree r) }

let w_pattern b (p : Pattern.t) =
  Binio.w_bool b p.Pattern.ordered;
  Binio.w_int b (List.length p.Pattern.roots);
  List.iter (w_tree b) p.Pattern.roots

let r_pattern r : Pattern.t =
  let ordered = Binio.r_bool r in
  let n = r_count r ~min_bytes:(ints r 4 + 4) "pattern root" in
  { Pattern.ordered; roots = List.init n (fun _ -> r_tree r) }

(* --- Path summaries ------------------------------------------------------ *)

let w_summary b s =
  let rows = Summary.export s in
  Binio.w_int b (Array.length rows);
  Array.iter
    (fun (label, parent, card, count) ->
      Binio.w_str b label;
      Binio.w_int b parent;
      Binio.w_u8 b
        (match card with Summary.One -> 0 | Summary.Plus -> 1 | Summary.Star -> 2);
      Binio.w_int b count)
    rows

let r_summary r =
  (* label prefix + parent + cardinality tag + count *)
  let n = r_count r ~min_bytes:(ints r 3 + 1) "summary row" in
  let rows =
    Array.init n (fun _ ->
        let label = Binio.r_str r in
        let parent = Binio.r_int r in
        let card =
          match Binio.r_u8 r with
          | 0 -> Summary.One
          | 1 -> Summary.Plus
          | 2 -> Summary.Star
          | t -> corrupt "cardinality tag %d" t
        in
        let count = Binio.r_int r in
        (label, parent, card, count))
  in
  try Summary.import rows with Invalid_argument e -> corrupt "summary: %s" e

(* --- Documents ----------------------------------------------------------- *)

(* The document section stores only what cannot be derived: the name, a
   table of the distinct labels in order of first use, then per node in
   handle order its kind, the index of its label in the table, its value
   (attributes and text only) and [subtree_end - handle]. Parent, depth,
   ordinal and post follow from the subtree ends. *)
let kind_tag = function Doc.Element -> 0 | Doc.Attribute -> 1 | Doc.Text -> 2

let r_kind r =
  match Binio.r_u8 r with
  | 0 -> Doc.Element
  | 1 -> Doc.Attribute
  | 2 -> Doc.Text
  | t -> corrupt "node kind tag %d" t

let w_doc b d =
  if Binio.writer_ints b <> Binio.Varint then
    invalid_arg "Codec.w_doc: the document layout is written with varints";
  let n = Doc.size d in
  let index = Hashtbl.create 64 and table = ref [] in
  let label_ix =
    Array.init n (fun i ->
        let l = Doc.label d i in
        match Hashtbl.find_opt index l with
        | Some k -> k
        | None ->
            let k = Hashtbl.length index in
            Hashtbl.add index l k;
            table := l :: !table;
            k)
  in
  Binio.w_str b (Doc.name d);
  Binio.w_int b (Hashtbl.length index);
  List.iter (Binio.w_str b) (List.rev !table);
  Binio.w_int b n;
  for i = 0 to n - 1 do
    let kind = Doc.kind d i in
    Binio.w_u8 b (kind_tag kind);
    Binio.w_int b label_ix.(i);
    if kind <> Doc.Element then Binio.w_str b (Doc.value d i);
    Binio.w_int b (Doc.subtree_end d i - i)
  done

let of_columns ~name ~kinds ~labels ~values ~depths ~parents ~ordinals ~ends ~posts =
  try Doc.of_columns ~name ~kinds ~labels ~values ~depths ~parents ~ordinals ~ends ~posts
  with Invalid_argument e -> corrupt "document: %s" e

(* The derived columns come from one forward stack pass over the subtree
   ends, the pass [Doc.of_columns] makes to check them: node [i]'s parent
   is the innermost node still open at [i], and the last node closed on
   the way there is its preceding sibling. On ends that do not nest the
   pass still terminates (every pop follows a parent link already
   derived), and [Doc.of_columns] rejects what it produced. Labels come
   back as the table's strings, so equal labels share one string. *)
let r_doc_v3 r =
  let name = Binio.r_str r in
  let table =
    let k = r_count r ~min_bytes:(ints r 1) "label" in
    Array.init k (fun _ -> Binio.r_str r)
  in
  (* kind + label index + subtree end *)
  let n = r_count r ~min_bytes:(ints r 2 + 1) "document node" in
  let kinds = Array.make n Doc.Text and labels = Array.make n "" and values = Array.make n "" in
  let posts = Array.make n 0 and depths = Array.make n 0 and parents = Array.make n 0 in
  let ordinals = Array.make n 0 and ends = Array.make n 0 in
  let open_ = ref (-1) in
  for i = 0 to n - 1 do
    let kind = r_kind r in
    kinds.(i) <- kind;
    let l = Binio.r_int r in
    if l < 0 || l >= Array.length table then
      corrupt "node %d: label %d outside a table of %d" i l (Array.length table);
    labels.(i) <- table.(l);
    if kind <> Doc.Element then values.(i) <- Binio.r_str r;
    ends.(i) <- i + Binio.r_int r;
    let prev = ref (-1) in
    while !open_ >= 0 && ends.(!open_) <= i do
      prev := !open_;
      open_ := parents.(!open_)
    done;
    let up = !open_ in
    parents.(i) <- up;
    if up >= 0 then begin
      depths.(i) <- depths.(up) + 1;
      ordinals.(i) <- (if !prev < 0 then 1 else ordinals.(!prev) + 1)
    end
    else begin
      depths.(i) <- 1;
      ordinals.(i) <- 1
    end;
    posts.(i) <- ends.(i) - depths.(i) + 1;
    open_ := i
  done;
  of_columns ~name ~kinds ~labels ~values ~depths ~parents ~ordinals ~ends ~posts

(* The version 1 and 2 layout, which old files still hold: per node its
   post, depth, parent, ordinal, kind, label, value and subtree end, all
   integers 8 bytes wide. *)
let r_doc_v2 r =
  let name = Binio.r_str r in
  (* five ints + kind tag + two string prefixes *)
  let n = r_count r ~min_bytes:(ints r 7 + 1) "document node" in
  let kinds = Array.make n Doc.Text and labels = Array.make n "" and values = Array.make n "" in
  let posts = Array.make n 0 and depths = Array.make n 0 and parents = Array.make n 0 in
  let ordinals = Array.make n 0 and ends = Array.make n 0 in
  let interned = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    posts.(i) <- Binio.r_int r;
    depths.(i) <- Binio.r_int r;
    parents.(i) <- Binio.r_int r;
    ordinals.(i) <- Binio.r_int r;
    kinds.(i) <- r_kind r;
    (labels.(i) <-
       let l = Binio.r_str r in
       match Hashtbl.find_opt interned l with
       | Some l -> l
       | None -> Hashtbl.add interned l l; l);
    values.(i) <- Binio.r_str r;
    ends.(i) <- Binio.r_int r
  done;
  of_columns ~name ~kinds ~labels ~values ~depths ~parents ~ordinals ~ends ~posts

let r_doc r =
  match Binio.reader_ints r with Binio.Varint -> r_doc_v3 r | Binio.Fixed -> r_doc_v2 r
