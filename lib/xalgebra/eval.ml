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

(* Apply [f] to every innermost tuple reached by descending the nested
   prefix of [path]; a tuple all of whose rewritten collections are empty is
   eliminated (existential semantics of §1.2.2). *)
let rec map_tuples schema path f tuples =
  match path with
  | [] | [ _ ] -> List.filter_map (f schema) tuples
  | name :: rest ->
      let i = Rel.col_index schema name in
      let sub =
        match (List.nth schema i).Rel.ctype with
        | Rel.Nested s -> s
        | Rel.Atom -> invalid_arg "Eval: map path crosses an atomic column"
      in
      List.filter_map
        (fun t ->
          match t.(i) with
          | Rel.N inner ->
              let inner' = map_tuples sub rest f inner in
              if inner' = [] && inner <> [] then None
              else
                let t' = Array.copy t in
                t'.(i) <- Rel.N inner';
                Some t'
          | Rel.A _ -> invalid_arg "Eval: map path crosses an atomic field")
        tuples

(* --- Joins -------------------------------------------------------------- *)

let hashable_eq_join pred =
  match pred with
  | Pred.Cmp (Pred.Col l, Pred.Eq, Pred.Col r) -> Some (l, r)
  | _ -> None

let value_join kind pred lsch rsch (lts : Rel.tuple list) (rts : Rel.tuple list) =
  let joined_schema = Rel.concat_schemas lsch rsch in
  let matches_of =
    (* Hash join on top-level equality columns, nested loops otherwise. *)
    match hashable_eq_join pred with
    | Some (lp, rp) when Rel.mem_path lsch lp && Rel.mem_path rsch rp ->
        let table = Hashtbl.create (List.length rts) in
        List.iteri
          (fun pos rt ->
            List.iter
              (fun v ->
                if not (Value.is_null v) then
                  Hashtbl.add table (Value.hash v) (v, pos, rt))
              (Rel.atoms_of_path rsch rt rp))
          rts;
        fun lt ->
          (* A left tuple may reach one right tuple through several atoms:
             keep each right tuple once, by position, so that equal right
             tuples still each join, as in the nested-loop path. *)
          let seen = Hashtbl.create 8 in
          List.concat_map
            (fun lv ->
              Hashtbl.find_all table (Value.hash lv)
              |> List.rev
              |> List.filter_map (fun (rv, pos, rt) ->
                     if Value.equal lv rv && not (Hashtbl.mem seen pos) then (
                       Hashtbl.add seen pos ();
                       Some rt)
                     else None))
            (Rel.atoms_of_path lsch lt lp)
    | _ ->
        fun lt ->
          List.filter
            (fun rt -> Pred.eval joined_schema (Rel.concat_tuples lt rt) pred)
            rts
  in
  let null_right = Rel.null_tuple rsch in
  match kind with
  | Logical.Inner ->
      List.concat_map
        (fun lt -> List.map (fun rt -> Rel.concat_tuples lt rt) (matches_of lt))
        lts
  | Logical.LeftOuter ->
      List.concat_map
        (fun lt ->
          match matches_of lt with
          | [] -> [ Rel.concat_tuples lt null_right ]
          | ms -> List.map (fun rt -> Rel.concat_tuples lt rt) ms)
        lts
  | Logical.Semi -> List.filter (fun lt -> matches_of lt <> []) lts
  | Logical.NestJoin ->
      List.filter_map
        (fun lt ->
          match matches_of lt with
          | [] -> None
          | ms -> Some (Array.append lt [| Rel.N ms |]))
        lts
  | Logical.NestOuter ->
      List.map (fun lt -> Array.append lt [| Rel.N (matches_of lt) |]) lts
  | exception e -> raise e

let struct_join kind axis lpath rpath nest_as lsch rsch lts rts =
  ignore nest_as;
  let matcher = build_matcher axis rsch rpath rts in
  let null_right = Rel.null_tuple rsch in
  let flat_key lt =
    match lpath with
    | [ name ] -> Rel.atom_field lt (Rel.col_index lsch name)
    | _ -> invalid_arg "Eval: flat structural join requires a top-level column"
  in
  match kind with
  | Logical.Inner ->
      List.concat_map
        (fun lt -> List.map (fun rt -> Rel.concat_tuples lt rt) (matcher (flat_key lt)))
        lts
  | Logical.LeftOuter ->
      List.concat_map
        (fun lt ->
          match matcher (flat_key lt) with
          | [] -> [ Rel.concat_tuples lt null_right ]
          | ms -> List.map (fun rt -> Rel.concat_tuples lt rt) ms)
        lts
  | Logical.Semi ->
      (* The key may live under a nested path: keep left tuples for which
         some reachable identifier has a match, reducing nothing. *)
      List.filter
        (fun lt ->
          List.exists (fun v -> matcher v <> []) (Rel.atoms_of_path lsch lt lpath))
        lts
  | Logical.NestJoin ->
      map_tuples lsch lpath
        (fun sch t ->
          let key =
            match lpath with
            | [] -> Value.Null
            | _ -> (
                let last = List.nth lpath (List.length lpath - 1) in
                match Rel.find_col sch last with
                | Some (i, _) -> Rel.atom_field t i
                | None -> Value.Null)
          in
          match matcher key with
          | [] -> None
          | ms -> Some (Array.append t [| Rel.N ms |]))
        lts
  | Logical.NestOuter ->
      map_tuples lsch lpath
        (fun sch t ->
          let key =
            match lpath with
            | [] -> Value.Null
            | _ -> (
                let last = List.nth lpath (List.length lpath - 1) in
                match Rel.find_col sch last with
                | Some (i, _) -> Rel.atom_field t i
                | None -> Value.Null)
          in
          Some (Array.append t [| Rel.N (matcher key) |]))
        lts

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

let value_to_fragment = function
  | Value.Null -> ""
  | Value.Str s -> s
  | Value.Int i -> string_of_int i
  | Value.Bool b -> string_of_bool b
  | Value.Id id -> Xdm.Nid.to_string id

let rec eval_template buf schema tuple template =
  match template with
  | Logical.T_text s -> Buffer.add_string buf s
  | Logical.T_col path ->
      List.iter
        (fun v -> Buffer.add_string buf (value_to_fragment v))
        (Rel.atoms_of_path schema tuple path)
  | Logical.T_tag ("", children) ->
      (* Anonymous grouping: emit the children only. *)
      List.iter (eval_template buf schema tuple) children
  | Logical.T_tag (tag, children) ->
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      Buffer.add_char buf '>';
      List.iter (eval_template buf schema tuple) children;
      Buffer.add_string buf "</";
      Buffer.add_string buf tag;
      Buffer.add_char buf '>'
  | Logical.T_foreach (path, body) ->
      let i = Rel.col_index schema (List.hd path) in
      let sub =
        match (List.nth schema i).Rel.ctype with
        | Rel.Nested s -> s
        | Rel.Atom -> invalid_arg "Eval: T_foreach on an atomic column"
      in
      (* The body is evaluated against the outer tuple extended with the
         inner one, so holes referring to enclosing columns still
         resolve (inner columns shadow-free: names are unique). *)
      let scoped inner = (schema @ sub, Rel.concat_tuples tuple inner) in
      (match (List.tl path, tuple.(i)) with
      | [], Rel.N inner ->
          List.iter
            (fun t ->
              let sch, tup = scoped t in
              eval_template buf sch tup body)
            inner
      | rest, Rel.N inner ->
          List.iter
            (fun t ->
              let sch, tup = scoped t in
              eval_template buf sch tup (Logical.T_foreach (rest, body)))
            inner
      | _, Rel.A _ -> invalid_arg "Eval: T_foreach on an atomic field")

(* --- Interpreter -------------------------------------------------------- *)

(* [step recurse env plan] evaluates only the top operator of [plan]
   set-at-a-time, obtaining every input relation through [recurse]. The
   plain interpreter ties the knot with [recurse = run]; the physical
   layer ties it with a cursor-draining callback, so a non-streamable
   operator materializes just its own inputs while everything below keeps
   piping cursors (the streaming discipline of §1.2.3). *)
let rec run env plan = step run env plan

and step recurse env plan =
  let run = recurse in
  match plan with
  | Logical.Scan name -> (
      match env name with Some r -> r | None -> raise (Unknown_relation name))
  | Logical.Table r -> r
  | Logical.Select (pred, input) ->
      let r = run env input in
      (* Predicates over nested paths reduce the nested collections they
         traverse (map semantics): a tuple survives iff some reachable
         binding satisfies the predicate. For single-path predicates we also
         reduce; for multi-path ones we only filter. *)
      (match Pred.paths pred with
      | [ path ] when List.length path > 1 && nested_prefix r.Rel.schema path ->
          let last = [ List.nth path (List.length path - 1) ] in
          let tuples =
            map_tuples r.Rel.schema path
              (fun sch t ->
                if Pred.eval sch t (rebase_pred pred path last) then Some t else None)
              r.Rel.tuples
          in
          { r with tuples }
      | _ ->
          { r with tuples = List.filter (fun t -> Pred.eval r.Rel.schema t pred) r.Rel.tuples })
  | Logical.Project { cols; dedup; input } ->
      let r = run env input in
      Rel.project r.Rel.schema cols ~dedup r.Rel.tuples
  | Logical.Product (l, r) ->
      let lr = run env l and rr = run env r in
      Rel.make
        (Rel.concat_schemas lr.Rel.schema rr.Rel.schema)
        (List.concat_map
           (fun lt -> List.map (fun rt -> Rel.concat_tuples lt rt) rr.Rel.tuples)
           lr.Rel.tuples)
  | Logical.Join { kind; pred; nest_as; left; right } ->
      let lr = run env left and rr = run env right in
      let out_schema =
        Logical.(
          match kind with
          | Inner | LeftOuter -> Rel.concat_schemas lr.Rel.schema rr.Rel.schema
          | Semi -> lr.Rel.schema
          | NestJoin | NestOuter ->
              lr.Rel.schema @ [ Rel.nested nest_as rr.Rel.schema ])
      in
      Rel.make out_schema
        (value_join kind pred lr.Rel.schema rr.Rel.schema lr.Rel.tuples rr.Rel.tuples)
  | Logical.Struct_join { kind; axis; lpath; rpath; nest_as; left; right } ->
      let lr = run env left and rr = run env right in
      let out_schema =
        Logical.(
          match kind with
          | Inner | LeftOuter -> Rel.concat_schemas lr.Rel.schema rr.Rel.schema
          | Semi -> lr.Rel.schema
          | NestJoin | NestOuter -> graft_schema lr.Rel.schema lpath nest_as rr.Rel.schema)
      in
      Rel.make out_schema
        (struct_join kind axis lpath rpath nest_as lr.Rel.schema rr.Rel.schema
           lr.Rel.tuples rr.Rel.tuples)
  | Logical.Union (l, r) -> Rel.union (run env l) (run env r)
  | Logical.Diff (l, r) -> Rel.difference (run env l) (run env r)
  | Logical.Extract { src; steps; mode; kind; out; input } ->
      let r = run env input in
      let value_of = match mode with `Value -> hit_value | `Content -> hit_content in
      let hits_of t =
        match Rel.atoms_of_path r.Rel.schema t src with
        | [ Value.Str content ] -> (
            match Xdm.Xml_tree.parse_result content with
            | Ok root -> List.map value_of (navigate root steps)
            | Error _ -> [])
        | _ -> []
      in
      let schema =
        Logical.(
          match kind with
          | Semi -> r.Rel.schema
          | Inner | LeftOuter -> r.Rel.schema @ [ Rel.atom out ]
          | NestJoin | NestOuter -> r.Rel.schema @ [ Rel.nested out [ Rel.atom "x" ] ])
      in
      let tuples =
        List.concat_map
          (fun t ->
            let hits = hits_of t in
            match (kind : Logical.join_kind) with
            | Logical.Semi -> if hits = [] then [] else [ t ]
            | Logical.Inner ->
                List.map (fun v -> Array.append t [| Rel.A v |]) hits
            | Logical.LeftOuter ->
                if hits = [] then [ Array.append t [| Rel.A Value.Null |] ]
                else List.map (fun v -> Array.append t [| Rel.A v |]) hits
            | Logical.NestJoin ->
                if hits = [] then []
                else [ Array.append t [| Rel.N (List.map (fun v -> [| Rel.A v |]) hits) |] ]
            | Logical.NestOuter ->
                [ Array.append t [| Rel.N (List.map (fun v -> [| Rel.A v |]) hits) |] ])
          r.Rel.tuples
      in
      Rel.make schema tuples
  | Logical.Derive { src; levels; out; input } ->
      let r = run env input in
      let derive t =
        let rec up id k =
          if k = 0 then Some id
          else match Xdm.Nid.parent id with Some p -> up p (k - 1) | None -> None
        in
        let v =
          match Rel.atoms_of_path r.Rel.schema t src with
          | [ Value.Id id ] -> (
              match up id levels with Some a -> Value.Id a | None -> Value.Null)
          | _ -> Value.Null
        in
        Array.append t [| Rel.A v |]
      in
      Rel.make (r.Rel.schema @ [ Rel.atom out ]) (List.map derive r.Rel.tuples)
  | Logical.Reorder (positions, input) ->
      let r = run env input in
      let sch = Array.of_list r.Rel.schema in
      Rel.make
        (List.map (fun i -> sch.(i)) positions)
        (List.map (fun t -> Array.of_list (List.map (fun i -> t.(i)) positions)) r.Rel.tuples)
  | Logical.Rename (renames, input) ->
      let r = run env input in
      let schema =
        List.map
          (fun (c : Rel.column) ->
            match List.assoc_opt c.Rel.cname renames with
            | Some cname -> { c with Rel.cname }
            | None -> c)
          r.Rel.schema
      in
      Rel.make schema r.Rel.tuples
  | Logical.Nest { cname; input } ->
      let r = run env input in
      Rel.make [ Rel.nested cname r.Rel.schema ] [ [| Rel.N r.Rel.tuples |] ]
  | Logical.Unnest (path, input) ->
      let r = run env input in
      let name = List.nth path (List.length path - 1) in
      (match path with
      | [ _ ] ->
          let i = Rel.col_index r.Rel.schema name in
          let sub =
            match (List.nth r.Rel.schema i).Rel.ctype with
            | Rel.Nested s -> s
            | Rel.Atom -> invalid_arg "Eval: unnest of an atomic column"
          in
          let keep_schema = List.filteri (fun j _ -> j <> i) r.Rel.schema in
          let tuples =
            List.concat_map
              (fun t ->
                let keep = Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list t)) in
                List.map (fun inner -> Rel.concat_tuples keep inner) (Rel.nested_field t i))
              r.Rel.tuples
          in
          Rel.make (Rel.concat_schemas keep_schema sub) tuples
      | _ -> invalid_arg "Eval: unnest only supports top-level columns")
  | Logical.Sort (path, input) ->
      let r = run env input in
      Rel.sort_by r.Rel.schema path r
  | Logical.Xml (template, input) ->
      let r = run env input in
      Rel.make [ Rel.atom "xml" ]
        (List.map
           (fun t ->
             let buf = Buffer.create 128 in
             eval_template buf r.Rel.schema t template;
             [| Rel.A (Value.Str (Buffer.contents buf)) |])
           r.Rel.tuples)

and nested_prefix schema path =
  match path with
  | [] | [ _ ] -> false
  | name :: _ -> (
      match Rel.find_col schema name with
      | Some (_, { Rel.ctype = Rel.Nested _; _ }) -> true
      | _ -> false)

(* Rewrite a predicate addressed at [path] so it addresses [last] relative
   to the innermost tuple the map descent reaches. *)
and rebase_pred pred path last =
  let rec go = function
    | Pred.Cmp (l, c, r) -> Pred.Cmp (rebase_operand l, c, rebase_operand r)
    | Pred.Contains (p, w) -> Pred.Contains ((if p = path then last else p), w)
    | Pred.Is_null p -> Pred.Is_null (if p = path then last else p)
    | Pred.Not_null p -> Pred.Not_null (if p = path then last else p)
    | Pred.And (a, b) -> Pred.And (go a, go b)
    | Pred.Or (a, b) -> Pred.Or (go a, go b)
    | Pred.Not a -> Pred.Not (go a)
    | (Pred.True | Pred.False) as p -> p
  and rebase_operand = function
    | Pred.Col p when p = path -> Pred.Col last
    | op -> op
  in
  go pred

and graft_schema schema path cname sub =
  match path with
  | [] | [ _ ] -> schema @ [ Rel.nested cname sub ]
  | name :: rest ->
      List.map
        (fun (c : Rel.column) ->
          if String.equal c.Rel.cname name then
            match c.Rel.ctype with
            | Rel.Nested inner ->
                { c with Rel.ctype = Rel.Nested (graft_schema inner rest cname sub) }
            | Rel.Atom -> invalid_arg "Eval: join path crosses an atom"
          else c)
        schema

let run_closed plan = run (fun _ -> None) plan
