type card = One | Plus | Star

type t = {
  labels : string array;
  parents : int array;
  children : int list array;
  cards : card array;
  depths : int array;
  ends : int array;
  counts : int array;
}

let size s = Array.length s.labels
let root _ = 0
let label s p = s.labels.(p)
let parent s p = s.parents.(p)
let children s p = s.children.(p)
let depth s p = s.depths.(p)
let card s p = s.cards.(p)
let count s p = s.counts.(p)
let subtree_end s p = s.ends.(p)
let is_ancestor s a b = a < b && b < s.ends.(a)
let is_parent s a b = is_ancestor s a b && s.parents.(b) = a

let descendants s p = List.init (s.ends.(p) - p - 1) (fun k -> p + 1 + k)

let child_with_label s p lbl =
  List.find_opt (fun c -> String.equal s.labels.(c) lbl) s.children.(p)

let nodes_with_label s lbl =
  let acc = ref [] in
  for p = Array.length s.labels - 1 downto 0 do
    if String.equal s.labels.(p) lbl then acc := p :: !acc
  done;
  !acc

let path_string s p =
  let rec go p acc = if p < 0 then acc else go s.parents.(p) ("/" ^ s.labels.(p) ^ acc) in
  go p ""

let find_path s labels =
  let rec go p = function
    | [] -> Some p
    | lbl :: rest -> (
        match child_with_label s p lbl with Some c -> go c rest | None -> None)
  in
  match labels with
  | [] -> None
  | first :: rest -> if String.equal s.labels.(0) first then go 0 rest else None

let strong_edge_count s =
  let n = ref 0 in
  for p = 1 to Array.length s.labels - 1 do
    if s.cards.(p) = Plus || s.cards.(p) = One then incr n
  done;
  !n

let one_edge_count s =
  let n = ref 0 in
  for p = 1 to Array.length s.labels - 1 do
    if s.cards.(p) = One then incr n
  done;
  !n

let one_to_one_chain s a b =
  let rec up p = p = a || (p > a && s.cards.(p) = One && up s.parents.(p)) in
  (a = b || is_ancestor s a b) && up b

(* The planning inputs of a summary: its (label, parent, card) rows in
   path-id order. Counts are data, not shape, and are ignored. Constant
   constructors are immediates, so [==] compares cards; the loop is a
   top-level function so that no closure is allocated. *)
let rec same_rows a b i =
  i < 0
  || a.parents.(i) = b.parents.(i)
     && a.cards.(i) == b.cards.(i)
     && String.equal a.labels.(i) b.labels.(i)
     && same_rows a b (i - 1)

let same_shape a b =
  a == b
  || Array.length a.labels = Array.length b.labels
     && same_rows a b (Array.length a.labels - 1)

(* --- Construction ------------------------------------------------------- *)

(* Pack (label, parent, card) rows listed in pre-order into a summary. *)
let pack rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Summary.pack: empty";
  let labels = Array.map (fun (l, _, _) -> l) rows in
  let parents = Array.map (fun (_, p, _) -> p) rows in
  let cards = Array.map (fun (_, _, c) -> c) rows in
  let depths = Array.make n 1 in
  let children = Array.make n [] in
  let ends = Array.init n (fun i -> i + 1) in
  for i = 1 to n - 1 do
    let p = parents.(i) in
    if p < 0 || p >= i then invalid_arg "Summary.pack: rows not in pre-order";
    depths.(i) <- depths.(p) + 1;
    children.(p) <- i :: children.(p)
  done;
  for i = n - 1 downto 1 do
    let p = parents.(i) in
    if ends.(p) < ends.(i) then ends.(p) <- ends.(i)
  done;
  Array.iteri (fun p l -> children.(p) <- List.rev l) children;
  { labels; parents; children; cards; depths; ends; counts = Array.make n 0 }

let of_edges triples =
  match triples with
  | [] -> invalid_arg "Summary.of_edges: empty"
  | (rp, rl, _) :: _ when rp = -1 ->
      pack
        (Array.of_list
           (List.mapi
              (fun i (p, l, c) ->
                if i = 0 then (rl, -1, One)
                else if p < 0 then invalid_arg "Summary.of_edges: non-root with parent -1"
                else (l, p, c))
              triples))
  | _ -> invalid_arg "Summary.of_edges: first triple must be the root (parent -1)"

let export s =
  Array.init (size s) (fun p ->
      (s.labels.(p), s.parents.(p), s.cards.(p), s.counts.(p)))

let import rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Summary.import: empty";
  (match rows.(0) with
  | _, -1, _, _ -> ()
  | _ -> invalid_arg "Summary.import: first row must be the root (parent -1)");
  let s = pack (Array.map (fun (l, p, c, _) -> (l, p, c)) rows) in
  Array.iteri (fun p (_, _, _, count) -> s.counts.(p) <- count) rows;
  s

(* Per-path accumulators of [build], indexed by temporary path id (paths
   numbered in first-occurrence order) and grown by doubling: their size
   follows the summary, not the document. *)
type acc = {
  mutable m : int;  (* paths so far *)
  mutable a_label : string array;
  mutable a_parent : int array;  (* parent path; -1 on the root *)
  mutable a_kids : (string * int) list array;  (* (label, child path), newest first *)
  mutable a_occ : int array;  (* document nodes on the path *)
  mutable a_last : int array;  (* document parent of the path's latest node *)
  mutable a_run : int array;  (* children of [a_last] on the path so far *)
  mutable a_with : int array;  (* document parents with a child on the path *)
  mutable a_max : int array;  (* longest run: most children of one parent *)
}

let grow a =
  let cap = max 64 (2 * Array.length a.a_label) in
  let ext arr fill =
    let b = Array.make cap fill in
    Array.blit arr 0 b 0 a.m;
    b
  in
  a.a_label <- ext a.a_label "";
  a.a_parent <- ext a.a_parent (-1);
  a.a_kids <- ext a.a_kids [];
  a.a_occ <- ext a.a_occ 0;
  a.a_last <- ext a.a_last (-1);
  a.a_run <- ext a.a_run 0;
  a.a_with <- ext a.a_with 0;
  a.a_max <- ext a.a_max 0

let new_path a label parent =
  if a.m = Array.length a.a_label then grow a;
  let id = a.m in
  a.m <- id + 1;
  a.a_label.(id) <- label;
  a.a_parent.(id) <- parent;
  if parent >= 0 then a.a_kids.(parent) <- (label, id) :: a.a_kids.(parent);
  id

let rec kid_with_label label = function
  | [] -> -1
  | (l, id) :: rest -> if String.equal l label then id else kid_with_label label rest

(* One pass in document order. The 1/+ cardinalities need, per path, how
   many children each document parent has on it; those counts come from
   runs, with no table keyed on (parent, path). In pre-order the nodes of
   one path are grouped by parent: they all sit at one depth, so no node
   of the path lies inside another's subtree, and between two children of
   a parent [p] on the path there can only be other children of [p]. A
   path's nodes therefore arrive as one run per parent, and a new run
   starts exactly when the parent changes. *)
let build doc =
  let open Xdm in
  let n = Doc.size doc in
  let a =
    { m = 0; a_label = [||]; a_parent = [||]; a_kids = [||]; a_occ = [||];
      a_last = [||]; a_run = [||]; a_with = [||]; a_max = [||] }
  in
  (* φ, on temporary path ids until the renumbering below. *)
  let paths = Array.make n (-1) in
  for i = 0 to n - 1 do
    let p = Doc.parent doc i in
    let lbl = Doc.label doc i in
    let pid =
      if p < 0 then new_path a lbl (-1)
      else
        let pp = paths.(p) in
        let id = kid_with_label lbl a.a_kids.(pp) in
        if id >= 0 then id else new_path a lbl pp
    in
    paths.(i) <- pid;
    a.a_occ.(pid) <- a.a_occ.(pid) + 1;
    if p >= 0 then begin
      if a.a_last.(pid) = p then a.a_run.(pid) <- a.a_run.(pid) + 1
      else begin
        a.a_last.(pid) <- p;
        a.a_run.(pid) <- 1;
        a.a_with.(pid) <- a.a_with.(pid) + 1
      end;
      if a.a_run.(pid) > a.a_max.(pid) then a.a_max.(pid) <- a.a_run.(pid)
    end
  done;
  let m = a.m in
  let tmp_children = Array.make m [] in
  for i = m - 1 downto 1 do
    tmp_children.(a.a_parent.(i)) <- i :: tmp_children.(a.a_parent.(i))
  done;
  let card_of tmp =
    if tmp = 0 then One
    else if a.a_with.(tmp) = a.a_occ.(a.a_parent.(tmp)) then
      if a.a_max.(tmp) = 1 then One else Plus
    else Star
  in
  (* Renumber in pre-order so that subtrees are contiguous. *)
  let order = Array.make m (-1) in
  let rows = Array.make m ("", -1, Star) in
  let next = ref 0 in
  let rec visit tmp parent_new =
    let id = !next in
    incr next;
    order.(tmp) <- id;
    rows.(id) <- (a.a_label.(tmp), parent_new, card_of tmp);
    List.iter (fun c -> visit c id) tmp_children.(tmp)
  in
  visit 0 (-1);
  let s = pack rows in
  for tmp = 0 to m - 1 do
    s.counts.(order.(tmp)) <- a.a_occ.(tmp)
  done;
  for i = 0 to n - 1 do
    paths.(i) <- order.(paths.(i))
  done;
  (s, paths)

let of_doc doc = fst (build doc)

let strictness = function One -> 2 | Plus -> 1 | Star -> 0

let conforms s doc =
  let s', _ = build doc in
  size s = size s'
  && (let ok = ref true in
      for p = 0 to size s - 1 do
        if
          (not (String.equal s.labels.(p) s'.labels.(p)))
          || s.parents.(p) <> s'.parents.(p)
          || strictness s'.cards.(p) < strictness s.cards.(p)
        then ok := false
      done;
      !ok)

let pp ppf s =
  for p = 0 to size s - 1 do
    let mark = match s.cards.(p) with One -> "1" | Plus -> "+" | Star -> "*" in
    Format.fprintf ppf "%3d %s%s [%s] ×%d@." p (String.make (2 * (s.depths.(p) - 1)) ' ')
      s.labels.(p) mark s.counts.(p)
  done
