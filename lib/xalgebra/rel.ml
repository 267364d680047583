type schema = column list
and column = { cname : string; ctype : ctype }
and ctype = Atom | Nested of schema

type field = A of Value.t | N of tuple list
and tuple = field array

type t = { schema : schema; tuples : tuple list }
type path = string list

let atom cname = { cname; ctype = Atom }
let nested cname sub = { cname; ctype = Nested sub }
let empty schema = { schema; tuples = [] }
let make schema tuples = { schema; tuples }
let cardinality r = List.length r.tuples

let find_col schema name =
  let rec go i = function
    | [] -> None
    | c :: rest -> if String.equal c.cname name then Some (i, c) else go (i + 1) rest
  in
  go 0 schema

let col_index schema name =
  match find_col schema name with
  | Some (i, _) -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Rel.col_index: no column %S in schema (%s)" name
           (String.concat ", " (List.map (fun c -> c.cname) schema)))

let rec resolve schema = function
  | [] -> invalid_arg "Rel.resolve: empty path"
  | [ name ] -> (List.nth schema (col_index schema name)).ctype
  | name :: rest -> (
      match (List.nth schema (col_index schema name)).ctype with
      | Nested sub -> resolve sub rest
      | Atom ->
          invalid_arg
            (Printf.sprintf "Rel.resolve: column %S is atomic but path continues" name))

let rec mem_path schema = function
  | [] -> false
  | [ name ] -> find_col schema name <> None
  | name :: rest -> (
      match find_col schema name with
      | Some (_, { ctype = Nested sub; _ }) -> mem_path sub rest
      | Some (_, { ctype = Atom; _ }) | None -> false)

let atom_field t i =
  match t.(i) with
  | A v -> v
  | N _ -> invalid_arg "Rel.atom_field: nested field"

let nested_field t i =
  match t.(i) with
  | N l -> l
  | A _ -> invalid_arg "Rel.nested_field: atomic field"

let concat_tuples a b = Array.append a b
let concat_schemas a b = a @ b

let null_tuple schema =
  Array.of_list
    (List.map
       (fun c -> match c.ctype with Atom -> A Value.Null | Nested _ -> N [])
       schema)

let prefix_schema prefix schema =
  List.map (fun c -> { c with cname = prefix ^ ":" ^ c.cname }) schema

let rec atoms_of_path schema tuple = function
  | [] -> []
  | [ name ] -> (
      let i = col_index schema name in
      match tuple.(i) with
      | A v -> [ v ]
      | N _ -> invalid_arg "Rel.atoms_of_path: path ends on a nested column")
  | name :: rest -> (
      let i = col_index schema name in
      match ((List.nth schema i).ctype, tuple.(i)) with
      | Nested sub, N inner ->
          List.concat_map (fun t -> atoms_of_path sub t rest) inner
      | _ -> invalid_arg "Rel.atoms_of_path: path crosses an atomic column")

let rec equal_field a b =
  match (a, b) with
  | A x, A y -> Value.equal x y
  | N x, N y -> List.length x = List.length y && List.for_all2 equal_tuple x y
  | (A _ | N _), _ -> false

and equal_tuple a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (equal_field a.(i) b.(i) && go (i + 1)) in
  go 0

let rec compare_field a b =
  match (a, b) with
  | A x, A y -> Value.compare x y
  | N x, N y -> List.compare compare_tuple x y
  | A _, N _ -> -1
  | N _, A _ -> 1

and compare_tuple a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = compare_field a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* A structural hash, consistent with [equal_tuple]: equal fields hash
   alike whatever their physical sharing. *)
let rec hash_field = function
  | A v -> Value.hash v
  | N l -> List.fold_left (fun h t -> (h * 31) + hash_tuple t) 7 l

and hash_tuple t = Array.fold_left (fun h f -> (h * 31) + hash_field f) (Array.length t) t

module Tuple_table = Hashtbl.Make (struct
  type t = tuple

  let equal = equal_tuple
  let hash = hash_tuple
end)

let dedup_tuples = function
  | ([] | [ _ ]) as tuples -> tuples
  | tuples ->
      let seen = Tuple_table.create 64 in
      List.filter
        (fun t ->
          if Tuple_table.mem seen t then false
          else (
            Tuple_table.add seen t ();
            true))
        tuples

(* Projection: every output path becomes a column named by its last
   component; paths entering the same nested column are grouped so the
   nested structure is preserved. *)
let rec project_schema schema paths =
  let groups = group_paths paths in
  List.map
    (fun (name, subpaths) ->
      let i = col_index schema name in
      let c = List.nth schema i in
      match (c.ctype, subpaths) with
      | Atom, [] -> atom name
      | Atom, _ -> invalid_arg "Rel.project: path crosses an atomic column"
      | Nested sub, [] -> nested name sub
      | Nested sub, sp -> nested name (project_schema sub sp))
    groups

and group_paths paths =
  let order = ref [] in
  let table = Hashtbl.create 8 in
  List.iter
    (fun p ->
      match p with
      | [] -> invalid_arg "Rel.project: empty path"
      | name :: rest ->
          (if not (Hashtbl.mem table name) then (
             Hashtbl.add table name [];
             order := name :: !order));
          if rest <> [] then Hashtbl.replace table name (Hashtbl.find table name @ [ rest ]))
    paths;
  List.rev_map (fun name -> (name, Hashtbl.find table name)) !order

let rec project_tuple ~dedup schema paths =
  let field (name, subpaths) =
    let i = col_index schema name in
    match ((List.nth schema i).ctype, subpaths) with
    | _, [] -> fun (t : tuple) -> t.(i)
    | Nested sub, sp -> (
        let inner = project_tuple ~dedup sub sp in
        fun t ->
          match t.(i) with
          | N l ->
              let l = List.map inner l in
              N (if dedup then dedup_tuples l else l)
          | A _ -> invalid_arg "Rel.project: schema/tuple mismatch")
    | Atom, _ -> invalid_arg "Rel.project: path crosses an atomic column"
  in
  let fields = Array.of_list (List.map field (group_paths paths)) in
  fun t -> Array.map (fun f -> f t) fields

let project schema paths ~dedup tuples =
  let out_schema = project_schema schema paths in
  let projected = List.map (project_tuple ~dedup schema paths) tuples in
  { schema = out_schema; tuples = (if dedup then dedup_tuples projected else projected) }

let sort_by schema path r =
  match resolve schema path with
  | Nested _ -> invalid_arg "Rel.sort_by: cannot sort on a nested column"
  | Atom ->
      let key t = match atoms_of_path schema t path with v :: _ -> v | [] -> Value.Null in
      { r with tuples = List.stable_sort (fun a b -> Value.compare (key a) (key b)) r.tuples }

let sort_doc_order r =
  let rec sort_tuple (t : tuple) : tuple =
    Array.map (function A v -> A v | N l -> N (sort_list l)) t
  and sort_list l = List.sort compare_tuple (List.map sort_tuple l) in
  { r with tuples = List.sort compare_tuple (List.map sort_tuple r.tuples) }

let union a b = { schema = a.schema; tuples = a.tuples @ b.tuples }

let difference a b =
  { schema = a.schema;
    tuples = List.filter (fun t -> not (List.exists (equal_tuple t) b.tuples)) a.tuples }

let equal_unordered a b =
  (* Normalize nested-collection order on both sides before comparing. *)
  let na = sort_doc_order a and nb = sort_doc_order b in
  List.compare compare_tuple na.tuples nb.tuples = 0

let rec pp_tuple ppf t =
  Format.fprintf ppf "(";
  Array.iteri
    (fun i f ->
      if i > 0 then Format.fprintf ppf ", ";
      match f with
      | A v -> Value.pp ppf v
      | N l ->
          Format.fprintf ppf "[";
          List.iteri
            (fun j t' ->
              if j > 0 then Format.fprintf ppf "; ";
              pp_tuple ppf t')
            l;
          Format.fprintf ppf "]")
    t;
  Format.fprintf ppf ")"

let rec schema_to_string schema =
  String.concat ", "
    (List.map
       (fun c ->
         match c.ctype with
         | Atom -> c.cname
         | Nested sub -> Printf.sprintf "%s(%s)" c.cname (schema_to_string sub))
       schema)

let pp ppf r =
  Format.fprintf ppf "@[<v>%s@," (schema_to_string r.schema);
  List.iter (fun t -> Format.fprintf ppf "%a@," pp_tuple t) r.tuples;
  Format.fprintf ppf "@]"
