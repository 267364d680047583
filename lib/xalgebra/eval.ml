type env = string -> Rel.t option

exception Unknown_relation of string

let env_of_list bindings =
  (* Hashtable-backed: plans scan the same few names many times, and
     catalogs can hold hundreds of modules. *)
  let tbl = Hashtbl.create (max 16 (List.length bindings)) in
  List.iter
    (fun (name, r) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name r)
    bindings;
  fun name -> Hashtbl.find_opt tbl name

(* --- Structural matching ------------------------------------------------ *)

let id_matches axis l r =
  let open Xdm in
  match axis with
  | Logical.Child -> Nid.is_parent l r = Some true
  | Logical.Descendant -> Nid.is_ancestor l r = Some true

let is_structural = function
  | Xdm.Nid.Pre_post _ | Xdm.Nid.Dewey _ -> true
  | Xdm.Nid.Simple_id _ | Xdm.Nid.Ordinal_id _ -> false

(* In document order, the descendants of a node form a contiguous run
   immediately after the first identifier greater than the node's, for both
   (pre, post) and Dewey labels. *)
let struct_matches axis key sorted =
  let open Xdm in
  let n = Array.length sorted in
  (* Leftmost index whose id is greater than key. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Nid.compare (fst sorted.(mid)) key <= 0 then search (mid + 1) hi
      else search lo mid
  in
  let start = search 0 n in
  let rec collect i acc =
    if i >= n then List.rev acc
    else
      let id, payload = sorted.(i) in
      if Nid.is_ancestor key id = Some true then
        let acc =
          match axis with
          | Logical.Descendant -> payload :: acc
          | Logical.Child ->
              if Nid.is_parent key id = Some true then payload :: acc else acc
        in
        collect (i + 1) acc
      else List.rev acc
  in
  collect start []

(* Build a matcher returning, for a left identifier value, the matching
   right tuples. *)
let build_matcher axis right_schema rpath (right : Rel.tuple list) =
  let keyed =
    List.map
      (fun t ->
        let id =
          match Rel.atoms_of_path right_schema t rpath with
          | [ Value.Id id ] -> Some id
          | _ -> None
        in
        (id, t))
      right
  in
  let all_structural =
    List.for_all (function Some id, _ -> is_structural id | None, _ -> false) keyed
  in
  if all_structural then (
    let arr =
      Array.of_list (List.map (function Some id, t -> (id, t) | None, _ -> assert false) keyed)
    in
    Array.sort (fun (a, _) (b, _) -> Xdm.Nid.compare a b) arr;
    fun lv ->
      match lv with
      | Value.Id key when is_structural key -> struct_matches axis key arr
      | _ -> [])
  else fun lv ->
    match lv with
    | Value.Id key ->
        List.filter_map
          (function
            | Some id, t when id_matches axis key id -> Some t
            | _ -> None)
          keyed
    | _ -> []

(* --- map meta-operator -------------------------------------------------- *)

(* [map_tuple schema path f] applies [f] to every innermost tuple reached by
   descending the nested prefix of [path]; a tuple all of whose rewritten
   collections are empty is eliminated (existential semantics of §1.2.2).
   [f] receives each level's schema once, before any tuple. *)
let rec map_tuple schema path f =
  match path with
  | [] | [ _ ] -> f schema
  | name :: rest -> (
      let i = Rel.col_index schema name in
      match (List.nth schema i).Rel.ctype with
      | Rel.Atom -> invalid_arg "Eval: map path crosses an atomic column"
      | Rel.Nested sub ->
          let inner_f = map_tuple sub rest f in
          fun t ->
            match t.(i) with
            | Rel.N inner ->
                let inner' = List.filter_map inner_f inner in
                if inner' = [] && inner <> [] then None
                else
                  let t' = Array.copy t in
                  t'.(i) <- Rel.N inner';
                  Some t'
            | Rel.A _ -> invalid_arg "Eval: map path crosses an atomic field")

(* Rewrite a predicate addressed at [path] so it addresses [last] relative
   to the innermost tuple the map descent reaches. *)
let rebase_pred pred path last =
  let rebase p = if p = path then last else p in
  let operand = function Pred.Col p -> Pred.Col (rebase p) | op -> op in
  let rec go = function
    | Pred.Cmp (l, c, r) -> Pred.Cmp (operand l, c, operand r)
    | Pred.Contains (p, w) -> Pred.Contains (rebase p, w)
    | Pred.Is_null p -> Pred.Is_null (rebase p)
    | Pred.Not_null p -> Pred.Not_null (rebase p)
    | Pred.And (a, b) -> Pred.And (go a, go b)
    | Pred.Or (a, b) -> Pred.Or (go a, go b)
    | Pred.Not a -> Pred.Not (go a)
    | (Pred.True | Pred.False) as p -> p
  in
  go pred

let select schema pred =
  match Pred.paths pred with
  | [ (name :: _ :: _ as path) ]
    when (match Rel.find_col schema name with
         | Some (_, { Rel.ctype = Rel.Nested _; _ }) -> true
         | _ -> false) ->
      let pred = rebase_pred pred path [ List.nth path (List.length path - 1) ] in
      map_tuple schema path (fun sch t -> if Pred.eval sch t pred then Some t else None)
  | _ -> fun t -> if Pred.eval schema t pred then Some t else None

(* --- Joins -------------------------------------------------------------- *)

let combine kind ~null_right lt ms =
  match ((kind : Logical.join_kind), ms) with
  | (Logical.Semi | Logical.NestJoin), [] -> []
  | Logical.Semi, _ -> [ lt ]
  | Logical.LeftOuter, [] -> [ Rel.concat_tuples lt null_right ]
  | (Logical.Inner | Logical.LeftOuter), _ -> List.map (Rel.concat_tuples lt) ms
  | (Logical.NestJoin | Logical.NestOuter), _ -> [ Array.append lt [| Rel.N ms |] ]

let struct_expand kind lsch lpath ~null_right matcher =
  match (kind : Logical.join_kind) with
  | Logical.Inner | Logical.LeftOuter ->
      let i =
        match lpath with
        | [ name ] -> Rel.col_index lsch name
        | _ -> invalid_arg "Eval: flat structural join requires a top-level column"
      in
      fun lt -> combine kind ~null_right lt (matcher (Rel.atom_field lt i))
  | Logical.Semi ->
      (* The key may live under a nested path: keep left tuples for which
         some reachable identifier has a match, reducing nothing. *)
      fun lt ->
        if List.exists (fun v -> matcher v <> []) (Rel.atoms_of_path lsch lt lpath) then [ lt ]
        else []
  | Logical.NestJoin | Logical.NestOuter ->
      (* The matches nest beside the key, inside the collection the key's
         path descends into. *)
      let nest =
        map_tuple lsch lpath (fun sch ->
            let key =
              match List.rev lpath with
              | last :: _ -> Option.map fst (Rel.find_col sch last)
              | [] -> None
            in
            fun t ->
              let k = match key with Some i -> Rel.atom_field t i | None -> Value.Null in
              match combine kind ~null_right t (matcher k) with
              | [ t' ] -> Some t'
              | _ -> None)
      in
      fun lt -> Option.to_list (nest lt)

(* --- Navigation inside serialized content -------------------------------- *)

type hit = Hit_node of Xdm.Xml_tree.t | Hit_attr of string

let rec tree_descendants t =
  match t with
  | Xdm.Xml_tree.Text _ -> []
  | Xdm.Xml_tree.Element { children; _ } ->
      List.concat_map (fun c -> c :: tree_descendants c) children

let step_matches label t =
  match (label, t) with
  | "*", Xdm.Xml_tree.Element _ -> true
  | "#text", Xdm.Xml_tree.Text _ -> true
  | l, Xdm.Xml_tree.Element { tag; _ } -> String.equal l tag
  | _, Xdm.Xml_tree.Text _ -> false

let navigate root steps =
  let rec go frontier = function
    | [] -> List.map (fun t -> Hit_node t) frontier
    | (axis, label) :: rest ->
        if String.length label > 0 && label.[0] = '@' then
          (* Attribute steps only make sense as the last step. *)
          let aname = String.sub label 1 (String.length label - 1) in
          let scope t =
            match axis with
            | Logical.Child -> [ t ]
            | Logical.Descendant -> t :: tree_descendants t
          in
          List.concat_map
            (fun t ->
              List.filter_map
                (function
                  | Xdm.Xml_tree.Element { attrs; _ } ->
                      Option.map (fun v -> Hit_attr v) (List.assoc_opt aname attrs)
                  | Xdm.Xml_tree.Text _ -> None)
                (scope t))
            frontier
          |> fun hits -> if rest = [] then hits else []
        else
          let next =
            List.concat_map
              (fun t ->
                let pool =
                  match (axis, t) with
                  | Logical.Child, Xdm.Xml_tree.Element { children; _ } -> children
                  | Logical.Child, Xdm.Xml_tree.Text _ -> []
                  | Logical.Descendant, _ -> tree_descendants t
                in
                List.filter (step_matches label) pool)
              frontier
          in
          go next rest
  in
  go [ root ] steps

let hit_value = function
  | Hit_node t -> Value.of_string_literal (Xdm.Xml_tree.text_of t)
  | Hit_attr v -> Value.of_string_literal v

let hit_content = function
  | Hit_node t -> Value.Str (Xdm.Xml_tree.serialize t)
  | Hit_attr v -> Value.Str v

(* --- XML construction --------------------------------------------------- *)

let add_value buf = function
  | Value.Null -> ()
  | Value.Str s -> Buffer.add_string buf s
  | Value.Int i -> Buffer.add_string buf (string_of_int i)
  | Value.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Value.Id id -> Buffer.add_string buf (Xdm.Nid.to_string id)

(* The atoms reached from column [i] (of type [ctype]) of one tuple
   through the rest of a hole's path, appended in order. *)
let rec atoms_at i ctype rest =
  match (rest, ctype) with
  | [], _ -> (
      fun buf (t : Rel.tuple) ->
        match t.(i) with
        | Rel.A v -> add_value buf v
        | Rel.N _ -> invalid_arg "Eval: template hole ends on a nested column")
  | name :: rest, Rel.Nested sub -> (
      let j = Rel.col_index sub name in
      let below = atoms_at j (List.nth sub j).Rel.ctype rest in
      fun buf t ->
        match t.(i) with
        | Rel.N inner -> List.iter (fun u -> below buf u) inner
        | Rel.A _ -> invalid_arg "Eval: template hole crosses an atomic field")
  | _ :: _, Rel.Atom -> invalid_arg "Eval: template hole crosses an atomic column"

(* A staged template runs over a frame array: frame 0 holds the input
   tuple and frame [k] the current tuple of the [k]-th enclosing
   [T_foreach]. Names resolve once, against the schemas in scope,
   outermost first — the first occurrence wins, as it would in the outer
   schema extended with the inner one. *)
let stage_template schema template =
  let depth = ref 1 in
  let resolve scope name =
    let rec go f = function
      | [] ->
          invalid_arg
            (Printf.sprintf "Eval: template column %S is not in scope (%s)" name
               (Rel.schema_to_string (List.concat scope)))
      | sch :: rest -> (
          match Rel.find_col sch name with
          | Some (i, c) -> (f, i, c.Rel.ctype)
          | None -> go (f + 1) rest)
    in
    go 0 scope
  in
  let rec stage scope = function
    | Logical.T_text s -> fun buf _ -> Buffer.add_string buf s
    | Logical.T_tag ("", children) ->
        (* Anonymous grouping: emit the children only. *)
        seq scope children
    | Logical.T_tag (tag, children) ->
        let open_ = "<" ^ tag ^ ">" and close = "</" ^ tag ^ ">" in
        let body = seq scope children in
        fun buf frames ->
          Buffer.add_string buf open_;
          body buf frames;
          Buffer.add_string buf close
    | Logical.T_col [] -> fun _ _ -> ()
    | Logical.T_col (name :: rest) ->
        let f, i, ctype = resolve scope name in
        let atoms = atoms_at i ctype rest in
        fun buf frames -> atoms buf frames.(f)
    | Logical.T_foreach ([], _) -> invalid_arg "Eval: T_foreach on an empty path"
    | Logical.T_foreach (name :: rest, body) -> (
        let f, i, ctype = resolve scope name in
        let sub =
          match ctype with
          | Rel.Nested s -> s
          | Rel.Atom -> invalid_arg "Eval: T_foreach on an atomic column"
        in
        (* A multi-step path iterates each level in turn, the deeper
           steps resolved in the scope the first one opened. *)
        let d = List.length scope in
        depth := max !depth (d + 1);
        let body = match rest with [] -> body | _ -> Logical.T_foreach (rest, body) in
        let run_body = stage (scope @ [ sub ]) body in
        fun buf frames ->
          match frames.(f).(i) with
          | Rel.N inner ->
              List.iter
                (fun t ->
                  frames.(d) <- t;
                  run_body buf frames)
                inner
          | Rel.A _ -> invalid_arg "Eval: T_foreach on an atomic field")
  and seq scope templates =
    let parts = Array.of_list (List.map (stage scope) templates) in
    fun buf frames ->
      for k = 0 to Array.length parts - 1 do
        parts.(k) buf frames
      done
  in
  let run = stage [ schema ] template in
  let depth = !depth in
  fun buf t -> run buf (Array.make depth t)

(* --- Per-tuple operators -------------------------------------------------- *)

let extract schema ~src ~steps ~mode kind =
  let value_of = match mode with `Value -> hit_value | `Content -> hit_content in
  let null_right = [| Rel.A Value.Null |] in
  fun t ->
    let hits =
      match Rel.atoms_of_path schema t src with
      | [ Value.Str content ] -> (
          match Xdm.Xml_tree.parse_result content with
          | Ok root -> List.map (fun h -> [| Rel.A (value_of h) |]) (navigate root steps)
          | Error _ -> [])
      | _ -> []
    in
    combine kind ~null_right t hits

let derive schema ~src ~levels t =
  let rec up id k =
    if k = 0 then Some id
    else match Xdm.Nid.parent id with Some p -> up p (k - 1) | None -> None
  in
  let v =
    match Rel.atoms_of_path schema t src with
    | [ Value.Id id ] -> (
        match up id levels with Some a -> Value.Id a | None -> Value.Null)
    | _ -> Value.Null
  in
  Array.append t [| Rel.A v |]

let unnest schema path =
  match path with
  | [ name ] ->
      let i = Rel.col_index schema name in
      fun t ->
        let keep = Array.init (Array.length t - 1) (fun j -> t.(if j < i then j else j + 1)) in
        List.map (Rel.concat_tuples keep) (Rel.nested_field t i)
  | _ -> invalid_arg "Eval: unnest only supports top-level columns"
