(* Hash-table reference for [Summary.build]: child paths looked up by
   (parent path, label), per-(document parent, child path) child counts
   and per-path occurrence counts each kept in a [Hashtbl], the 1/+/*
   cardinalities read off those counts, then a renumbering in pre-order.
   The library builds the same summary in one pass over per-path arrays;
   the two must agree on every [Summary.export] row and on φ. *)

module Doc = Xdm.Doc
module S = Xsummary.Summary

let build doc =
  let n = Doc.size doc in
  (* Temporary summary nodes in first-occurrence order. *)
  let tmp_label = ref [] and tmp_parent = ref [] in
  let tmp_count = ref 0 in
  let kids : (int * string, int) Hashtbl.t = Hashtbl.create 256 in
  let new_tmp label parent =
    let id = !tmp_count in
    incr tmp_count;
    tmp_label := label :: !tmp_label;
    tmp_parent := parent :: !tmp_parent;
    if parent >= 0 then Hashtbl.replace kids (parent, label) id;
    id
  in
  let paths = Array.make n (-1) in
  (* Per (document parent node, child path) child counts, for the 1/+
     annotations. *)
  let counts : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let occ = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    let p = Doc.parent doc i in
    let lbl = Doc.label doc i in
    let pid =
      if p < 0 then new_tmp lbl (-1)
      else
        let pp = paths.(p) in
        match Hashtbl.find_opt kids (pp, lbl) with
        | Some id -> id
        | None -> new_tmp lbl pp
    in
    paths.(i) <- pid;
    Hashtbl.replace occ pid (1 + Option.value ~default:0 (Hashtbl.find_opt occ pid));
    if p >= 0 then
      Hashtbl.replace counts (p, pid)
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts (p, pid)))
  done;
  let m = !tmp_count in
  let tmp_labels = Array.of_list (List.rev !tmp_label) in
  let tmp_parents = Array.of_list (List.rev !tmp_parent) in
  let tmp_children = Array.make m [] in
  for i = m - 1 downto 1 do
    tmp_children.(tmp_parents.(i)) <- i :: tmp_children.(tmp_parents.(i))
  done;
  (* Edge cardinalities on tmp ids. *)
  let parents_with_child = Array.make m 0 in
  let max_count = Array.make m 0 in
  Hashtbl.iter
    (fun (_, child_path) c ->
      parents_with_child.(child_path) <- parents_with_child.(child_path) + 1;
      if c > max_count.(child_path) then max_count.(child_path) <- c)
    counts;
  let card_of tmp =
    if tmp = 0 then S.One
    else
      let parent_occ =
        Option.value ~default:0 (Hashtbl.find_opt occ tmp_parents.(tmp))
      in
      if parents_with_child.(tmp) = parent_occ then
        if max_count.(tmp) = 1 then S.One else S.Plus
      else S.Star
  in
  (* Renumber in pre-order so that subtrees are contiguous. *)
  let order = Array.make m (-1) in
  let rows = Array.make m ("", -1, S.Star, 0) in
  let next = ref 0 in
  let rec visit tmp parent_new =
    let id = !next in
    incr next;
    order.(tmp) <- id;
    rows.(id) <-
      ( tmp_labels.(tmp),
        parent_new,
        card_of tmp,
        Option.value ~default:0 (Hashtbl.find_opt occ tmp) );
    List.iter (fun c -> visit c id) tmp_children.(tmp)
  in
  visit 0 (-1);
  let mapping = Array.map (fun tmp -> order.(tmp)) paths in
  (S.import rows, mapping)
