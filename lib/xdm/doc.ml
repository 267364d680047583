type kind = Element | Attribute | Text

(* The document is stored by column, one array per field, indexed by
   handle. A mutation copies only the columns it changes and shares the
   rest with the source version. Columns rather than one record per node:
   records shared between versions mix long- and short-lived small blocks
   in the major heap and measurably raised peak memory, while a version's
   columns are a few flat arrays that live and die together.
   The post-order rank is not stored: the nodes closed by the time a node
   closes are those before its subtree end except its [depth - 1]
   ancestors, so post = subtree_end - depth + 1.
   The columns hold at least [len] entries, and only the first [len] are
   the document: a batch of edits keeps its working copy's spare room,
   when that is no more than [len], rather than copying every column
   once more to cut it. *)
type t = {
  name : string;
  len : int;
  kinds : kind array;
  labels : string array;
  values : string array;
  depths : int array;
  parents : int array;
  ordinals : int array;
  ends : int array;  (* subtree ends *)
  label_index : (string, int list) Hashtbl.t option Atomic.t;
      (* built on first use; published atomically, so domains reading one
         version concurrently may each build it but never see it half
         built *)
}

let name d = d.name
let size d = d.len
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
   node. Shared by [of_tree] and [apply_edits]. *)
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
  { name; len = n; kinds = Array.make n Text; labels = Array.make n ""; values = Array.make n "";
    depths = Array.make n 0; parents = Array.make n 0; ordinals = Array.make n 0;
    ends = Array.make n 0; label_index = Atomic.make None }

let of_tree ?(name = "doc") tree =
  let d = create name (Xml_tree.node_count tree) in
  ignore (fill d 0 tree ~depth:1 ~parent:(-1) ~ordinal:1);
  d

let of_string ?name s = of_tree ?name (Xml_tree.parse s)

let element_size d =
  let n = ref 0 in
  for i = 0 to size d - 1 do
    if d.kinds.(i) = Element then incr n
  done;
  !n

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
  match Atomic.get d.label_index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create 64 in
      for i = size d - 1 downto 0 do
        let lbl = d.labels.(i) in
        let prev = try Hashtbl.find idx lbl with Not_found -> [] in
        Hashtbl.replace idx lbl (i :: prev)
      done;
      Atomic.set d.label_index (Some idx);
      idx

let nodes_with_label d lbl =
  match Hashtbl.find_opt (build_label_index d) lbl with
  | Some l -> l
  | None -> []

let labels d =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  for i = 0 to size d - 1 do
    let lbl = d.labels.(i) in
    if not (Hashtbl.mem seen lbl) then (
      Hashtbl.add seen lbl ();
      acc := lbl :: !acc)
  done;
  List.rev !acc

let iter f d =
  for i = 0 to size d - 1 do
    f i
  done

let value d i =
  match d.kinds.(i) with
  | Text | Attribute -> d.values.(i)
  | Element -> (
      (* Most elements hold at most one text node: return its string as
         it is, and concatenate only when there are several. *)
      let stop = d.ends.(i) in
      let rec first j = if j >= stop || d.kinds.(j) = Text then j else first (j + 1) in
      let t = first (i + 1) in
      if t >= stop then ""
      else
        match first (t + 1) with
        | u when u >= stop -> d.values.(t)
        | _ ->
            let buf = Buffer.create 32 in
            for j = t to stop - 1 do
              if d.kinds.(j) = Text then Buffer.add_string buf d.values.(j)
            done;
            Buffer.contents buf)

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

(* One pre-order pass. The nodes still open at [i] are the parent chain
   of the node checked before it, so closing every node whose subtree
   ended is a walk up that chain; the last node it closes is [i]'s
   previous sibling. *)
let of_columns ~name ~kinds ~labels ~values ~depths ~parents ~ordinals ~ends ~posts =
  let n = Array.length kinds in
  let fail fmt = Printf.ksprintf (fun msg -> invalid_arg ("Doc.of_columns: " ^ msg)) fmt in
  if n = 0 then fail "empty node array";
  let same a what = if Array.length a <> n then fail "%s column holds %d of %d nodes" what (Array.length a) n in
  same labels "label";
  same values "value";
  same depths "depth";
  same parents "parent";
  same ordinals "ordinal";
  same ends "subtree end";
  same posts "post";
  if ends.(0) <> n then fail "root subtree does not span the array";
  let open_ = ref (-1) in
  for i = 0 to n - 1 do
    let prev = ref (-1) in
    while !open_ >= 0 && ends.(!open_) <= i do
      prev := !open_;
      open_ := parents.(!open_)
    done;
    (* The root spans the array, so it stays open: [up] is [-1] only at 0. *)
    let up = !open_ in
    if parents.(i) <> up then
      fail "node %d: parent %d is not the innermost open node %d" i parents.(i) up;
    let depth, limit, ordinal =
      if up < 0 then (1, n, 1)
      else (depths.(up) + 1, ends.(up), if !prev < 0 then 1 else ordinals.(!prev) + 1)
    in
    if depths.(i) <> depth then fail "node %d: depth %d inconsistent with parent" i depths.(i);
    if ends.(i) <= i || ends.(i) > limit then
      fail "node %d: subtree end %d outside (%d, %d]" i ends.(i) i limit;
    if posts.(i) <> ends.(i) - depths.(i) + 1 then
      fail "node %d: post %d inconsistent with subtree end and depth" i posts.(i);
    if kinds.(i) <> Element && ends.(i) <> i + 1 then
      fail "node %d: text or attribute node has descendants" i;
    if ordinals.(i) <> ordinal then
      fail "node %d: ordinal %d is not its rank %d among siblings" i ordinals.(i) ordinal;
    if kinds.(i) = Attribute then begin
      let l = labels.(i) in
      if not (String.length l > 1 && l.[0] = '@') then
        fail "node %d: attribute label %S lacks '@'" i l;
      if up < 0 then fail "the root is an attribute";
      if !prev >= 0 && kinds.(!prev) <> Attribute then
        fail "node %d: attribute after a non-attribute sibling" i
    end;
    if kinds.(i) = Element && values.(i) <> "" then fail "node %d: element carries a value" i;
    open_ := i
  done;
  { name; len = n; kinds; labels; values; depths; parents; ordinals; ends;
    label_index = Atomic.make None }

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

(* Edits are checked against the first [n] nodes of a document: those
   in use in a batch's working copy. *)
let check_handle n i ctx =
  if i < 0 || i >= n then
    invalid_arg
      (Printf.sprintf "Doc.%s: handle %d out of range (document has %d nodes)" ctx i n)

(* Where an insert under [parent] lands: its handle and ordinal. *)
let insert_point d n ~parent ?before () =
  check_handle n parent "insert_subtree";
  if d.kinds.(parent) <> Element then
    invalid_arg "Doc.insert_subtree: parent is not an element";
  match before with
  | Some b ->
      check_handle n b "insert_subtree";
      if d.parents.(b) <> parent then
        invalid_arg "Doc.insert_subtree: ~before is not a child of ~parent";
      if d.kinds.(b) = Attribute then
        invalid_arg "Doc.insert_subtree: cannot insert before an attribute";
      (b, d.ordinals.(b))
  | None -> (d.ends.(parent), List.length (children d parent) + 1)

let check_delete n i =
  check_handle n i "delete_subtree";
  if i = 0 then invalid_arg "Doc.delete_subtree: cannot delete the root"

let check_update d n i =
  check_handle n i "update_value";
  if d.kinds.(i) = Element then
    invalid_arg "Doc.update_value: values live on text and attribute nodes"

(* The first [n] entries of [a] with [drop] entries removed at [at] and
   [room] unset entries opened there, in a fresh array of [cap] entries
   (holding [x] where unset). *)
let splice a ~n ~at ~drop ~room ~cap x =
  let b = Array.make cap x in
  Array.blit a 0 b 0 at;
  Array.blit a (at + drop) b (at + room) (n - at - drop);
  b

(* Move what an edit shifted into place, in columns whose first [stop]
   nodes are the edited document: the subtree ends of [up] (the edit
   point's parent) and its ancestors move by [delta] = [room - drop], and
   so do the suffix's subtree ends and its parents that lay in it; the
   suffix's children of [up] (the following siblings) move one ordinal
   the same way. *)
let adjust r ~at ~drop ~room ~up ~stop =
  let delta = room - drop in
  let rec widen i = if i >= 0 then (r.ends.(i) <- r.ends.(i) + delta; widen r.parents.(i)) in
  widen up;
  let step = if delta > 0 then 1 else -1 in
  for j = at + room to stop - 1 do
    r.ends.(j) <- r.ends.(j) + delta;
    let p = r.parents.(j) in
    if p >= at + drop then r.parents.(j) <- p + delta
    else if p = up then r.ordinals.(j) <- r.ordinals.(j) + step
  done

type edit =
  | Insert of { parent : int; before : int option; tree : Xml_tree.t }
  | Delete of int
  | Update of int * string

type owned = Shared | Values | Columns

(* The edits fold over one working copy, [r], whose first [len] nodes are
   the document so far. Nothing is copied until an edit needs it: an
   update copies the value column once, and a structural edit that does
   not fit the working copy (the first one always) splices every column
   into fresh arrays: exactly as long as it needs when it is the last
   edit, as a lone edit must be, and an eighth longer otherwise, so
   later edits shift nodes within them. The copy grows geometrically
   with what a batch inserts and never runs more than an eighth past
   the batch's peak length. At the end, columns more than half spare
   are cut. Each edit is taken from [edits] only once the one before it
   has passed its checks, so the first edit that does not apply is the
   one reported. *)
let apply_edits d edits =
  let r = ref d and len = ref d.len and owned = ref Shared in
  let cap () = Array.length !r.kinds in
  let structural ~more ~at ~drop ~room ~up =
    let n = !len and c = !r in
    let stop = n - drop + room in
    if !owned = Columns && stop <= cap () then begin
      let move a = Array.blit a (at + drop) a (at + room) (n - at - drop) in
      move c.kinds; move c.labels; move c.values; move c.depths; move c.parents;
      move c.ordinals; move c.ends
    end
    else begin
      let cap = if more () then stop + (stop / 8) else stop in
      let sp a x = splice a ~n ~at ~drop ~room ~cap x in
      r :=
        { c with kinds = sp c.kinds Text; labels = sp c.labels ""; values = sp c.values "";
          depths = sp c.depths 0; parents = sp c.parents 0; ordinals = sp c.ordinals 0;
          ends = sp c.ends 0; label_index = Atomic.make None };
      owned := Columns
    end;
    adjust !r ~at ~drop ~room ~up ~stop;
    len := stop
  in
  let rec go = function
    | Seq.Nil -> ()
    | Seq.Cons (e, rest) ->
        (* [more] looks ahead only once [e] has passed its checks *)
        let next = lazy (rest ()) in
        let more () = match Lazy.force next with Seq.Nil -> false | Seq.Cons _ -> true in
        (match e with
        | Update (i, v) ->
            check_update !r !len i;
            if !owned = Shared then begin
              (* Labels and handles are unchanged, so the label index
                 carries over: both versions share its cell. *)
              r := { !r with values = Array.sub !r.values 0 !len };
              owned := Values
            end;
            !r.values.(i) <- v
        | Delete i ->
            check_delete !len i;
            structural ~more ~at:i ~drop:(!r.ends.(i) - i) ~room:0 ~up:!r.parents.(i)
        | Insert { parent; before; tree } ->
            let at, ordinal = insert_point !r !len ~parent ?before () in
            structural ~more ~at ~drop:0 ~room:(Xml_tree.node_count tree) ~up:parent;
            ignore (fill !r at tree ~depth:(!r.depths.(parent) + 1) ~parent ~ordinal));
        go (Lazy.force next)
  in
  go (edits ());
  let n = !len and c = !r in
  if !owned <> Columns then c
  else if cap () - n > n then
    let cut a = Array.sub a 0 n in
    { c with len = n; kinds = cut c.kinds; labels = cut c.labels; values = cut c.values;
      depths = cut c.depths; parents = cut c.parents; ordinals = cut c.ordinals;
      ends = cut c.ends }
  else begin
    (* the spare room keeps no strings alive *)
    Array.fill c.labels n (cap () - n) "";
    Array.fill c.values n (cap () - n) "";
    { c with len = n }
  end

let insert_subtree d ~parent ?before tree = apply_edits d (Seq.return (Insert { parent; before; tree }))
let delete_subtree d i = apply_edits d (Seq.return (Delete i))
let update_value d i v = apply_edits d (Seq.return (Update (i, v)))

let handle_index d nid =
  let check i = if i >= 0 && i < size d then i else -1 in
  match nid with
  | Nid.Simple_id i | Nid.Ordinal_id i -> check i
  | Nid.Pre_post { pre; post; _ } ->
      let i = check pre in
      if i >= 0 && post_of d i = post then i else -1
  | Nid.Dewey path ->
      let rec follow i = function
        | [] -> i
        | ord :: rest -> (
            match List.find_opt (fun j -> d.ordinals.(j) = ord) (children d i) with
            | Some j -> follow j rest
            | None -> -1)
      in
      (match path with 1 :: rest -> follow 0 rest | _ -> -1)

let handle_of_id d nid =
  let i = handle_index d nid in
  if i < 0 then None else Some i
