module Rel = Xalgebra.Rel
module Pattern = Xam.Pattern
module Nid = Xdm.Nid
module Summary = Xsummary.Summary

(* --- Summary-path partitions --------------------------------------------- *)

(* A partition holds the extent tuples whose partitioning column — the ID
   of one designated pattern node — identifies a document node on one
   summary path. [p_pos] remembers each tuple's position in the original
   extent, so any subset of partitions reassembles in exact extent order
   (document order for embedded extents): partitioned and monolithic
   execution stay byte-identical. *)
type partition = {
  p_path : int;  (* summary path id; -1 = unclassifiable (nulls, foreign ids) *)
  p_pos : int array;  (* original extent positions, ascending *)
  p_rel : Rel.t;
  p_lo : Nid.t option;  (* bounds of the partition column in document order; *)
  p_hi : Nid.t option;  (* [None] when any tuple's column is not an identifier *)
}

type parts = {
  pt_nid : int;  (* pattern node whose ID column partitions the extent *)
  pt_col : int;  (* its column index in the extent schema *)
  pt_parts : partition list;  (* ascending [p_path]; the [-1] bucket first *)
}

type module_ = {
  name : string;
  xam : Pattern.t;
  extent : Rel.t;
  parts : parts option;  (* [None]: monolithic extent, no directory *)
}

type catalog = { summary : Summary.t; modules : module_ list }

exception Module_fault of { name : string; reason : string }

exception Invalid_module of { name : string; reason : string }

(* The partitioning column: the first return node (in schema order) that
   stores an ID. Patterns storing no identifier have nothing to key a
   partition directory on. *)
let partition_column xam (schema : Rel.schema) =
  List.find_map
    (fun (n : Pattern.node) ->
      if List.mem Pattern.ID (Pattern.stored_attrs n) then
        match Rel.find_col schema (Pattern.attr_col n.Pattern.nid Pattern.ID) with
        | Some (i, c) when c.Rel.ctype = Rel.Atom -> Some (n.Pattern.nid, i)
        | _ -> None
      else None)
    (Pattern.return_nodes xam)

let id_at col (t : Rel.tuple) =
  if col >= Array.length t then None
  else match t.(col) with Rel.A (Xalgebra.Value.Id id) -> Some id | _ -> None

let id_bounds col tuples =
  let rec go lo hi = function
    | [] -> (Some lo, Some hi)
    | (t : Rel.tuple) :: rest -> (
        if col >= Array.length t then (None, None)
        else
          match t.(col) with
          | Rel.A (Xalgebra.Value.Id id) ->
              go
                (if Nid.compare lo id <= 0 then lo else id)
                (if Nid.compare hi id >= 0 then hi else id)
                rest
          | _ -> (None, None))
  in
  match tuples with
  | [] -> (None, None)
  | t :: rest -> (
      match id_at col t with Some id -> go id id rest | None -> (None, None))

let mk_partition ~col ~path ~pos rel =
  let lo, hi = id_bounds col rel.Rel.tuples in
  { p_path = path; p_pos = pos; p_rel = rel; p_lo = lo; p_hi = hi }

(* Split an extent into per-summary-path partitions: each tuple is
   classified by φ of the document node its partitioning column
   identifies. Tuples whose column holds no resolvable identifier land in
   the [-1] bucket, which pruning never drops. An extent whose tuples all
   fall on one path is that path's partition as it stands — the
   [path_partitioned] model's extents are single-path by construction —
   so only a multi-path extent is copied, bucket by bucket. *)
let partition_extent ~phi doc xam (extent : Rel.t) =
  match partition_column xam extent.Rel.schema with
  | None -> None
  | Some (pt_nid, pt_col) ->
      let path_of (t : Rel.tuple) =
        if pt_col >= Array.length t then -1
        else
          match t.(pt_col) with
          | Rel.A (Xalgebra.Value.Id id) ->
              let h = Xdm.Doc.handle_index doc id in
              if h >= 0 && h < Array.length phi then phi.(h) else -1
          | _ -> -1
      in
      let n = List.length extent.Rel.tuples in
      let mk = mk_partition ~col:pt_col in
      (* Bucket [path + 1] for each path, the [-1] bucket at 0: a counting
         pass sizes every bucket, a backward pass fills positions and
         tuples in extent order. *)
      let group () =
        let tuples = Array.of_list extent.Rel.tuples in
        let cls = Array.map path_of tuples in
        let buckets = 2 + Array.fold_left max (-1) cls in
        let count = Array.make buckets 0 in
        Array.iter (fun path -> count.(path + 1) <- count.(path + 1) + 1) cls;
        let pos = Array.map (fun c -> Array.make c 0) count in
        let tups = Array.make buckets [] in
        for k = n - 1 downto 0 do
          let b = cls.(k) + 1 in
          count.(b) <- count.(b) - 1;
          pos.(b).(count.(b)) <- k;
          tups.(b) <- tuples.(k) :: tups.(b)
        done;
        List.filter_map
          (fun b ->
            if Array.length pos.(b) = 0 then None
            else Some (mk ~path:(b - 1) ~pos:pos.(b) (Rel.make extent.Rel.schema tups.(b))))
          (List.init buckets Fun.id)
      in
      let pt_parts =
        match extent.Rel.tuples with
        | [] -> []
        | t :: rest ->
            let path = path_of t in
            if List.for_all (fun u -> path_of u = path) rest then
              [ mk ~path ~pos:(Array.init n Fun.id) extent ]
            else group ()
      in
      Some { pt_nid; pt_col; pt_parts }

(* Reassemble a subset of partitions in original extent order. One
   partition's positions ascend, so it needs no sort. *)
let merge_partitions schema = function
  | [ p ] -> Rel.make schema p.p_rel.Rel.tuples
  | ps ->
      let pairs =
        List.concat_map
          (fun p -> List.mapi (fun k t -> (p.p_pos.(k), t)) p.p_rel.Rel.tuples)
          ps
      in
      let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs in
      Rel.make schema (List.map snd sorted)

let partition_paths parts = List.map (fun p -> p.p_path) parts.pt_parts

let kept_partition path allowed = path < 0 || List.mem path allowed

let prune_counts parts ~allowed =
  List.fold_left
    (fun (s, p) part ->
      if kept_partition part.p_path allowed then (s + 1, p) else (s, p + 1))
    (0, 0) parts.pt_parts

let pruned_extent m ~allowed =
  match m.parts with
  | None -> m.extent
  | Some parts ->
      let kept =
        List.filter (fun p -> kept_partition p.p_path allowed) parts.pt_parts
      in
      if List.length kept = List.length parts.pt_parts then m.extent
      else merge_partitions m.extent.Rel.schema kept

let materialize doc name xam =
  { name; xam; extent = Xam.Embed.eval doc xam; parts = None }

let partitioned ~phi doc m =
  match m.parts with
  | Some _ -> m
  | None -> { m with parts = partition_extent ~phi doc m.xam m.extent }

(* --- Incremental maintenance --------------------------------------------
   Structural document edits shift pre-order ranks, so every stored Nid
   in an extent can change and extents are re-materialized wholesale.
   What *is* incremental is the physical change-set: per summary path,
   a partition whose tuple payload came out identical shares the old
   payload; only the partitions actually touched by the edit are fresh
   allocations. *)

let rel_equal (a : Rel.t) (b : Rel.t) =
  a.Rel.schema = b.Rel.schema
  && List.compare_lengths a.Rel.tuples b.Rel.tuples = 0
  && List.for_all2 Rel.equal_tuple a.Rel.tuples b.Rel.tuples

let spliced ~prev (fresh : module_) =
  match (prev.parts, fresh.parts) with
  | Some op, Some fp when op.pt_nid = fp.pt_nid && op.pt_col = fp.pt_col ->
      let kept = ref 0 and rebuilt = ref 0 in
      let pt_parts =
        List.map
          (fun (p : partition) ->
            match
              List.find_opt (fun (q : partition) -> q.p_path = p.p_path) op.pt_parts
            with
            | Some q when rel_equal q.p_rel p.p_rel ->
                incr kept;
                (* Same payload: share the old physical record. The
                   directory metadata (positions, bounds) stays fresh —
                   global extent positions shift even for untouched
                   partitions. *)
                { p with p_rel = q.p_rel }
            | _ ->
                incr rebuilt;
                p)
          fp.pt_parts
      in
      (* A single-path extent is its own partition's payload: when that
         payload is kept, the module's extent is the old record too. *)
      let extent =
        match (pt_parts, fp.pt_parts) with
        | [ kept_p ], [ p ] when p.p_rel == fresh.extent -> kept_p.p_rel
        | _ -> fresh.extent
      in
      ({ fresh with extent; parts = Some { fp with pt_parts } }, (!kept, !rebuilt))
  | _ ->
      if rel_equal prev.extent fresh.extent then
        ({ fresh with extent = prev.extent }, (1, 0))
      else (fresh, (0, 1))

(* A module is consistent with the summary when every required pattern
   node can bind to at least one summary path and every optional node's
   label exists somewhere in the summary: a pattern referencing a path
   the summary does not know describes data the store cannot hold, and
   would otherwise surface as a silent empty scan (or a crash) deep
   inside some later query.

   Optional (outer-edge) subtrees must not constrain the required part —
   a universal-table module legitimately outer-joins every label of the
   document under one node — so the structural check runs on the pattern
   with optional subtrees pruned; pruning preserves nids. *)
let check_against summary =
  let s = summary in
  let size = Summary.size s in
  let label_known label =
    let matches p =
      let pl = Summary.label s p in
      if String.equal label "*" then
        (not (Pattern.label_is_attribute pl)) && not (String.equal pl "#text")
      else if String.equal label "@*" then Pattern.label_is_attribute pl
      else String.equal label pl
    in
    let rec any p = p < size && (matches p || any (p + 1)) in
    any 0
  in
  let required_skeleton (pat : Pattern.t) =
    let rec prune (t : Pattern.tree) =
      { t with
        children =
          List.filter_map
            (fun (c : Pattern.tree) ->
              if Pattern.optional_edge c.Pattern.edge then None else Some (prune c))
            t.Pattern.children }
    in
    { pat with Pattern.roots = List.map prune pat.Pattern.roots }
  in
  let check name xam =
    let skeleton = required_skeleton xam in
    let required =
      List.fold_left
        (fun acc (n : Pattern.node) -> n.Pattern.nid :: acc)
        [] (Pattern.nodes skeleton)
    in
    List.find_map
      (fun (n : Pattern.node) ->
        let bad reason =
          Some
            ( name,
              Printf.sprintf "pattern node %S (nid %d) %s" n.Pattern.label
                n.Pattern.nid reason )
        in
        if not (label_known n.Pattern.label) then
          bad "references a label absent from the summary"
        else if
          List.mem n.Pattern.nid required
          && Xam.Canonical.path_annotation s skeleton n.Pattern.nid = []
        then bad "matches no summary path"
        else None)
      (Pattern.nodes xam)
  in
  check

(* Every failing module is reported, not just the first: a catalog
   arriving from a migration or a snapshot typically breaks in several
   modules at once, and fixing them one validation round at a time was a
   real operational papercut. *)
let validate catalog =
  let check = check_against catalog.summary in
  match List.filter_map (fun m -> check m.name m.xam) catalog.modules with
  | [] -> Ok ()
  | errs -> Error errs

let validated catalog =
  match validate catalog with
  | Ok () -> catalog
  | Error ((name, reason) :: _) -> raise (Invalid_module { name; reason })
  | Error [] -> catalog

let catalog_of doc specs =
  (* [Summary.build] yields the summary together with φ — the map from
     document nodes to their paths — which is what classifies every
     extent tuple into its summary-path partition. *)
  let summary, phi = Summary.build doc in
  validated
    { summary;
      modules =
        List.map
          (fun (name, xam) -> partitioned ~phi doc (materialize doc name xam))
          specs }

let env catalog =
  (* Hashtable-backed: executed plans resolve the same module names on
     every scan, and catalogs (one module per summary path, say) can hold
     hundreds of modules. *)
  let tbl = Hashtbl.create (max 16 (List.length catalog.modules)) in
  List.iter
    (fun m -> if not (Hashtbl.mem tbl m.name) then Hashtbl.add tbl m.name m.extent)
    catalog.modules;
  fun name -> Hashtbl.find_opt tbl name

let views catalog =
  List.filter_map
    (fun m ->
      if Pattern.has_required m.xam then None
      else Some { Xam.Rewrite.vname = m.name; vpattern = m.xam })
    catalog.modules

let index_views catalog =
  List.filter_map
    (fun m ->
      if Pattern.has_required m.xam then
        Some { Xam.Rewrite.vname = m.name; vpattern = m.xam }
      else None)
    catalog.modules

(* --- Partition-pruned plan access ---------------------------------------- *)

(* Decide, for one plan, which partitions each scanned module needs. The
   rewriter's [scan_paths] lists — per view, per view-pattern node — the
   summary paths that node's bindings can take in any tuple combination
   contributing to the answer; a partition keyed outside that set (and not
   the unclassifiable [-1] bucket) cannot contribute and is pruned.
   Returns the per-module allowed path lists (only for modules where
   pruning actually drops something) plus total partitions scanned and
   pruned across the plan's scans — the counts EXPLAIN surfaces.
   Modules without a directory count as one scanned partition. *)
let plan_pruning ~views_used ~parts_of ~scan_paths =
  let views_used = List.sort_uniq String.compare views_used in
  List.fold_left
    (fun (overrides, scanned, pruned) name ->
      match parts_of name with
      | None -> (overrides, scanned + 1, pruned)
      | Some (pt_nid, dir) -> (
          let total = List.length dir in
          match
            Option.bind (List.assoc_opt name scan_paths) (List.assoc_opt pt_nid)
          with
          | None -> (overrides, scanned + total, pruned)
          | Some allowed ->
              let kept =
                List.length (List.filter (fun p -> kept_partition p allowed) dir)
              in
              if kept < total then
                ((name, allowed) :: overrides, scanned + kept, pruned + (total - kept))
              else (overrides, scanned + total, pruned)))
    ([], 0, 0) views_used

(* --- Restricted access ---------------------------------------------------- *)

(* Binding tuples that pin the partitioning column to one identifier can
   skip every partition whose document-order ID range excludes it — the
   per-partition [p_lo]/[p_hi] bounds make the test O(partitions). *)
let lookup_tuples m (bsch : Rel.schema) b =
  match m.parts with
  | None -> m.extent.Rel.tuples
  | Some parts -> (
      let col_name =
        match List.nth_opt m.extent.Rel.schema parts.pt_col with
        | Some c -> c.Rel.cname
        | None -> ""
      in
      match Rel.find_col bsch col_name with
      | None -> m.extent.Rel.tuples
      | Some (bi, _) -> (
          match id_at bi b with
          | None -> m.extent.Rel.tuples
          | Some id ->
              let candidate p =
                match (p.p_lo, p.p_hi) with
                | Some lo, Some hi ->
                    Nid.compare lo id <= 0 && Nid.compare id hi <= 0
                | _ -> true  (* unknown bounds: cannot exclude *)
              in
              let kept = List.filter candidate parts.pt_parts in
              if List.length kept = List.length parts.pt_parts then
                m.extent.Rel.tuples
              else (merge_partitions m.extent.Rel.schema kept).Rel.tuples))

let lookup_seq m ~bindings : Rel.tuple Seq.t =
  (* Restricted access as a cursor: tuples stream out as the extent is
     walked, deduplicated on the fly, so a consumer that stops early never
     pays for the rest of the extent. *)
  let bsch = Xam.Binding.binding_schema m.xam in
  let seen = Rel.Tuple_table.create 64 in
  List.to_seq bindings
  |> Seq.concat_map (fun b ->
         List.to_seq (lookup_tuples m bsch b)
         |> Seq.filter_map (fun t -> Xam.Binding.intersect m.extent.Rel.schema bsch t b))
  |> Seq.filter (fun t ->
         if Rel.Tuple_table.mem seen t then false
         else (
           Rel.Tuple_table.add seen t ();
           true))

let lookup m ~bindings =
  Rel.make m.extent.Rel.schema (List.of_seq (lookup_seq m ~bindings))

let total_tuples catalog =
  List.fold_left (fun acc m -> acc + Rel.cardinality m.extent) 0 catalog.modules

let pp ppf catalog =
  List.iter
    (fun m ->
      Format.fprintf ppf "%-24s %6d tuples  (%s)%s@." m.name (Rel.cardinality m.extent)
        (Rel.schema_to_string m.extent.Rel.schema)
        (match m.parts with
        | Some p -> Printf.sprintf "  [%d partitions]" (List.length p.pt_parts)
        | None -> ""))
    catalog.modules
