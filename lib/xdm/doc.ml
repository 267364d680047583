type kind = Element | Attribute | Text

(* The document is stored by column, one array per field, indexed by
   handle. A mutation copies only the columns it changes and shares the
   rest with the source version. Columns rather than one record per node:
   records shared between versions mix long- and short-lived small blocks
   in the major heap and measurably raised peak memory, while a version's
   columns are a few flat arrays that live and die together.
   The post-order rank is not stored: the nodes closed by the time a node
   closes are those before its subtree end except its [depth - 1]
   ancestors, so post = subtree_end - depth + 1. *)
type t = {
  name : string;
  kinds : kind array;
  labels : string array;
  values : string array;
  depths : int array;
  parents : int array;
  ordinals : int array;
  ends : int array;  (* subtree ends *)
  mutable label_index : (string, int list) Hashtbl.t option;
}

let name d = d.name
let size d = Array.length d.kinds
let root _ = 0

let post_of d i = d.ends.(i) - d.depths.(i) + 1

let set d i kind label value ~depth ~parent ~ordinal ~stop =
  d.kinds.(i) <- kind;
  d.labels.(i) <- label;
  d.values.(i) <- value;
  d.depths.(i) <- depth;
  d.parents.(i) <- parent;
  d.ordinals.(i) <- ordinal;
  d.ends.(i) <- stop

(* Lay [tree] out in pre-order into the columns of [d] from index [at], as
   child number [ordinal] of [parent] at [depth]. Returns one past its last
   node. Shared by [of_tree] and [insert_subtree]. *)
let rec fill d at tree ~depth ~parent ~ordinal =
  match tree with
  | Xml_tree.Text s ->
      set d at Text "#text" s ~depth ~parent ~ordinal ~stop:(at + 1);
      at + 1
  | Xml_tree.Element { tag; attrs; children } ->
      let next = ref (at + 1) in
      let ord = ref 0 in
      List.iter
        (fun (aname, avalue) ->
          incr ord;
          set d !next Attribute ("@" ^ aname) avalue ~depth:(depth + 1) ~parent:at
            ~ordinal:!ord ~stop:(!next + 1);
          incr next)
        attrs;
      List.iter
        (fun child ->
          incr ord;
          next := fill d !next child ~depth:(depth + 1) ~parent:at ~ordinal:!ord)
        children;
      set d at Element tag "" ~depth ~parent ~ordinal ~stop:!next;
      !next

let create name n =
  { name; kinds = Array.make n Text; labels = Array.make n ""; values = Array.make n "";
    depths = Array.make n 0; parents = Array.make n 0; ordinals = Array.make n 0;
    ends = Array.make n 0; label_index = None }

let of_tree ?(name = "doc") tree =
  let d = create name (Xml_tree.node_count tree) in
  ignore (fill d 0 tree ~depth:1 ~parent:(-1) ~ordinal:1);
  d

let of_string ?name s = of_tree ?name (Xml_tree.parse s)

let element_size d =
  Array.fold_left (fun acc k -> if k = Element then acc + 1 else acc) 0 d.kinds

let kind d i = d.kinds.(i)
let label d i = d.labels.(i)
let pre _ i = i
let post = post_of
let depth d i = d.depths.(i)
let parent d i = d.parents.(i)
let ordinal d i = d.ordinals.(i)
let subtree_end d i = d.ends.(i)

let is_ancestor d a b = a < b && b < d.ends.(a)
let is_parent d a b = is_ancestor d a b && d.parents.(b) = a

let children d i =
  let stop = d.ends.(i) in
  let rec go j acc = if j >= stop then List.rev acc else go d.ends.(j) (j :: acc) in
  go (i + 1) []

let descendants d i =
  let stop = d.ends.(i) in
  List.init (stop - i - 1) (fun k -> i + 1 + k)

let descendants_with_label d i lbl =
  let stop = d.ends.(i) in
  let rec go j acc =
    if j >= stop then List.rev acc
    else go (j + 1) (if String.equal d.labels.(j) lbl then j :: acc else acc)
  in
  go (i + 1) []

let build_label_index d =
  match d.label_index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create 64 in
      for i = size d - 1 downto 0 do
        let lbl = d.labels.(i) in
        let prev = try Hashtbl.find idx lbl with Not_found -> [] in
        Hashtbl.replace idx lbl (i :: prev)
      done;
      d.label_index <- Some idx;
      idx

let nodes_with_label d lbl =
  match Hashtbl.find_opt (build_label_index d) lbl with
  | Some l -> l
  | None -> []

let labels d =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  Array.iter
    (fun lbl ->
      if not (Hashtbl.mem seen lbl) then (
        Hashtbl.add seen lbl ();
        acc := lbl :: !acc))
    d.labels;
  List.rev !acc

let iter f d =
  for i = 0 to size d - 1 do
    f i
  done

let value d i =
  match d.kinds.(i) with
  | Text | Attribute -> d.values.(i)
  | Element ->
      let buf = Buffer.create 32 in
      for j = i + 1 to d.ends.(i) - 1 do
        if d.kinds.(j) = Text then Buffer.add_string buf d.values.(j)
      done;
      Buffer.contents buf

let attr_name d i =
  let l = d.labels.(i) in
  String.sub l 1 (String.length l - 1)

let rec to_tree d i =
  match d.kinds.(i) with
  | Text -> Xml_tree.Text d.values.(i)
  | Attribute ->
      (* An attribute serialized standalone becomes an element carrying its
         value, mirroring the R^a tag-derived collections of §2.2.2. *)
      Xml_tree.Element
        { tag = attr_name d i; attrs = []; children = [ Xml_tree.Text d.values.(i) ] }
  | Element ->
      let attrs, children =
        List.fold_left
          (fun (attrs, children) j ->
            if d.kinds.(j) = Attribute then ((attr_name d j, d.values.(j)) :: attrs, children)
            else (attrs, to_tree d j :: children))
          ([], []) (children d i)
      in
      Xml_tree.Element
        { tag = d.labels.(i); attrs = List.rev attrs; children = List.rev children }

let content d i =
  match d.kinds.(i) with
  | Text -> d.values.(i)
  | Attribute -> Printf.sprintf "%s=\"%s\"" (attr_name d i) d.values.(i)
  | Element -> Xml_tree.serialize (to_tree d i)

let id scheme d i =
  match scheme with
  | Nid.Simple -> Nid.Simple_id i
  | Nid.Ordinal -> Nid.Ordinal_id i
  | Nid.Structural -> Nid.Pre_post { pre = i; post = post_of d i; depth = d.depths.(i) }
  | Nid.Parental ->
      let rec path i acc = if i < 0 then acc else path d.parents.(i) (d.ordinals.(i) :: acc) in
      Nid.Dewey (path i [])

type packed_node = {
  p_post : int;
  p_depth : int;
  p_parent : int;
  p_ordinal : int;
  p_kind : kind;
  p_label : string;
  p_value : string;
  p_subtree_end : int;
}

let pack d =
  Array.init (size d) (fun i ->
      { p_post = post_of d i; p_depth = d.depths.(i); p_parent = d.parents.(i);
        p_ordinal = d.ordinals.(i); p_kind = d.kinds.(i); p_label = d.labels.(i);
        p_value = d.values.(i); p_subtree_end = d.ends.(i) })

(* One pre-order pass. The nodes still open at [i] are the parent chain
   of the node checked before it, so closing every node whose subtree
   ended is a walk up that chain; the last node it closes is [i]'s
   previous sibling. *)
let unpack ~name packed =
  let n = Array.length packed in
  let fail fmt = Printf.ksprintf (fun msg -> invalid_arg ("Doc.unpack: " ^ msg)) fmt in
  if n = 0 then fail "empty node array";
  if packed.(0).p_subtree_end <> n then fail "root subtree does not span the array";
  let open_ = ref (-1) in
  for i = 0 to n - 1 do
    let p = packed.(i) in
    let prev = ref (-1) in
    while !open_ >= 0 && packed.(!open_).p_subtree_end <= i do
      prev := !open_;
      open_ := packed.(!open_).p_parent
    done;
    (* The root spans the array, so it stays open: [up] is [-1] only at 0. *)
    let up = !open_ in
    if p.p_parent <> up then
      fail "node %d: parent %d is not the innermost open node %d" i p.p_parent up;
    let depth, limit, ordinal =
      if up < 0 then (1, n, 1)
      else
        let q = packed.(up) in
        (q.p_depth + 1, q.p_subtree_end,
         if !prev < 0 then 1 else packed.(!prev).p_ordinal + 1)
    in
    if p.p_depth <> depth then fail "node %d: depth %d inconsistent with parent" i p.p_depth;
    if p.p_subtree_end <= i || p.p_subtree_end > limit then
      fail "node %d: subtree end %d outside (%d, %d]" i p.p_subtree_end i limit;
    if p.p_post <> p.p_subtree_end - p.p_depth + 1 then
      fail "node %d: post %d inconsistent with subtree end and depth" i p.p_post;
    if p.p_kind <> Element && p.p_subtree_end <> i + 1 then
      fail "node %d: text or attribute node has descendants" i;
    if p.p_ordinal <> ordinal then
      fail "node %d: ordinal %d is not its rank %d among siblings" i p.p_ordinal ordinal;
    if p.p_kind = Attribute then begin
      if not (String.length p.p_label > 1 && p.p_label.[0] = '@') then
        fail "node %d: attribute label %S lacks '@'" i p.p_label;
      if up < 0 then fail "the root is an attribute";
      if !prev >= 0 && packed.(!prev).p_kind <> Attribute then
        fail "node %d: attribute after a non-attribute sibling" i
    end;
    open_ := i
  done;
  let column f = Array.map f packed in
  { name; kinds = column (fun p -> p.p_kind); labels = column (fun p -> p.p_label);
    values = column (fun p -> p.p_value); depths = column (fun p -> p.p_depth);
    parents = column (fun p -> p.p_parent); ordinals = column (fun p -> p.p_ordinal);
    ends = column (fun p -> p.p_subtree_end); label_index = None }

(* --- Mutations ---------------------------------------------------------
   Functional updates by column splice; the source is never written. An
   update copies the value column (pointers only) and shares every other
   column. A structural edit builds each column from the prefix before the
   edit point and the suffix after it, then adjusts what moved: the
   subtree ends of the edit point's ancestors and, in the suffix, subtree
   ends and parents (by the edit's size) and the ordinals of following
   siblings (by one). Labels, values, kinds and depths of moved nodes are
   plain copies. Handles are pre-order ranks, so a structural edit still
   shifts the handle of every node at or after the edit point; callers
   must re-resolve handles against the returned document. *)

let check_handle d i ctx =
  if i < 0 || i >= size d then
    invalid_arg
      (Printf.sprintf "Doc.%s: handle %d out of range (document has %d nodes)"
         ctx i (size d))

(* [a] with [drop] entries removed at [at] and [room] unset entries
   (holding [x]) opened there. *)
let splice a ~at ~drop ~room x =
  let n = Array.length a in
  let b = Array.make (n - drop + room) x in
  Array.blit a 0 b 0 at;
  Array.blit a (at + drop) b (at + room) (n - at - drop);
  b

(* The columns of [d] with [drop] nodes removed and [room] opened at [at],
   then moved into place: the subtree ends of [up] (the edit point's
   parent) and its ancestors move by [delta] = [room - drop], and so do
   the suffix's subtree ends and its parents that lay in it; the suffix's
   children of [up] (the following siblings) move one ordinal the same
   way. *)
let reshape d ~at ~drop ~room ~up =
  let delta = room - drop in
  let r =
    { name = d.name; kinds = splice d.kinds ~at ~drop ~room Text;
      labels = splice d.labels ~at ~drop ~room ""; values = splice d.values ~at ~drop ~room "";
      depths = splice d.depths ~at ~drop ~room 0; parents = splice d.parents ~at ~drop ~room 0;
      ordinals = splice d.ordinals ~at ~drop ~room 0; ends = splice d.ends ~at ~drop ~room 0;
      label_index = None }
  in
  let rec widen i = if i >= 0 then (r.ends.(i) <- r.ends.(i) + delta; widen r.parents.(i)) in
  widen up;
  let step = if delta > 0 then 1 else -1 in
  for j = at + room to size r - 1 do
    r.ends.(j) <- r.ends.(j) + delta;
    let p = r.parents.(j) in
    if p >= at + drop then r.parents.(j) <- p + delta
    else if p = up then r.ordinals.(j) <- r.ordinals.(j) + step
  done;
  r

let insert_subtree d ~parent ?before tree =
  check_handle d parent "insert_subtree";
  if d.kinds.(parent) <> Element then
    invalid_arg "Doc.insert_subtree: parent is not an element";
  (match before with
  | None -> ()
  | Some b ->
      check_handle d b "insert_subtree";
      if d.parents.(b) <> parent then
        invalid_arg "Doc.insert_subtree: ~before is not a child of ~parent";
      if d.kinds.(b) = Attribute then
        invalid_arg "Doc.insert_subtree: cannot insert before an attribute");
  let at, ordinal =
    match before with
    | Some b -> (b, d.ordinals.(b))
    | None -> (d.ends.(parent), List.length (children d parent) + 1)
  in
  let r = reshape d ~at ~drop:0 ~room:(Xml_tree.node_count tree) ~up:parent in
  ignore (fill r at tree ~depth:(d.depths.(parent) + 1) ~parent ~ordinal);
  r

let delete_subtree d i =
  check_handle d i "delete_subtree";
  if i = 0 then invalid_arg "Doc.delete_subtree: cannot delete the root";
  reshape d ~at:i ~drop:(d.ends.(i) - i) ~room:0 ~up:d.parents.(i)

let update_value d i v =
  check_handle d i "update_value";
  if d.kinds.(i) = Element then
    invalid_arg "Doc.update_value: values live on text and attribute nodes";
  let values = Array.copy d.values in
  values.(i) <- v;
  (* Labels and handles are unchanged, so the label index carries over. *)
  { d with values }

let handle_of_id d nid =
  let check i = if i >= 0 && i < size d then Some i else None in
  match nid with
  | Nid.Simple_id i | Nid.Ordinal_id i -> check i
  | Nid.Pre_post { pre; post; _ } -> (
      match check pre with
      | Some i when post_of d i = post -> Some i
      | _ -> None)
  | Nid.Dewey path ->
      let rec follow i = function
        | [] -> Some i
        | ord :: rest -> (
            match List.find_opt (fun j -> d.ordinals.(j) = ord) (children d i) with
            | Some j -> follow j rest
            | None -> None)
      in
      (match path with 1 :: rest -> follow 0 rest | _ -> None)
