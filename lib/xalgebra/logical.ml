type join_kind = Inner | LeftOuter | Semi | NestJoin | NestOuter

type axis = Child | Descendant

type template =
  | T_tag of string * template list
  | T_col of Rel.path
  | T_text of string
  | T_foreach of Rel.path * template

type t =
  | Scan of string
  | Table of Rel.t
  | Select of Pred.t * t
  | Project of { cols : Rel.path list; dedup : bool; input : t }
  | Product of t * t
  | Join of { kind : join_kind; pred : Pred.t; nest_as : string; left : t; right : t }
  | Struct_join of {
      kind : join_kind;
      axis : axis;
      lpath : Rel.path;
      rpath : Rel.path;
      nest_as : string;
      left : t;
      right : t;
    }
  | Union of t * t
  | Diff of t * t
  | Rename of (string * string) list * t
  | Reorder of int list * t
  | Extract of {
      src : Rel.path;
      steps : (axis * string) list;
      mode : [ `Value | `Content ];
      kind : join_kind;
      out : string;
      input : t;
    }
  | Derive of { src : Rel.path; levels : int; out : string; input : t }
  | Nest of { cname : string; input : t }
  | Unnest of Rel.path * t
  | Sort of Rel.path * t
  | Xml of template * t

type env_schema = string -> Rel.schema option

(* Insert a nested column holding [sub] next to the atom addressed by
   [path]: at top level for a one-component path, inside the enclosing
   nested schema otherwise (Example 1.2.3). *)
let rec graft schema path cname sub =
  match path with
  | [] | [ _ ] -> schema @ [ Rel.nested cname sub ]
  | name :: rest ->
      List.map
        (fun (c : Rel.column) ->
          if String.equal c.cname name then
            match c.ctype with
            | Rel.Nested inner -> { c with ctype = Rel.Nested (graft inner rest cname sub) }
            | Rel.Atom -> invalid_arg "Logical.schema: join path crosses an atom"
          else c)
        schema

let join_schema kind ~nest_as ~lpath left right =
  match kind with
  | Inner | LeftOuter -> Rel.concat_schemas left right
  | Semi -> left
  | NestJoin | NestOuter -> graft left lpath nest_as right

let inputs = function
  | Scan _ | Table _ -> []
  | Select (_, i)
  | Project { input = i; _ }
  | Rename (_, i)
  | Reorder (_, i)
  | Extract { input = i; _ }
  | Derive { input = i; _ }
  | Nest { input = i; _ }
  | Unnest (_, i)
  | Sort (_, i)
  | Xml (_, i) -> [ i ]
  | Product (l, r) | Union (l, r) | Diff (l, r) -> [ l; r ]
  | Join { left; right; _ } | Struct_join { left; right; _ } -> [ left; right ]

let output_schema plan inputs =
  match (plan, inputs) with
  | Scan name, _ ->
      invalid_arg (Printf.sprintf "Logical.output_schema: scan(%s) has no inputs" name)
  | Table r, [] -> r.Rel.schema
  | (Select _ | Sort _ | Union _ | Diff _), s :: _ -> s
  | Project { cols; _ }, [ s ] -> (Rel.project s cols ~dedup:false []).Rel.schema
  | Product _, [ l; r ] -> Rel.concat_schemas l r
  | Join { kind; nest_as; _ }, [ l; r ] -> join_schema kind ~nest_as ~lpath:[] l r
  | Struct_join { kind; nest_as; lpath; _ }, [ l; r ] -> join_schema kind ~nest_as ~lpath l r
  | Rename (renames, _), [ s ] ->
      List.map
        (fun (c : Rel.column) ->
          match List.assoc_opt c.cname renames with
          | Some cname -> { c with cname }
          | None -> c)
        s
  | Reorder (positions, _), [ s ] ->
      let s = Array.of_list s in
      List.map (fun i -> s.(i)) positions
  | Extract { kind; out; _ }, [ s ] -> (
      match kind with
      | Semi -> s
      | Inner | LeftOuter -> s @ [ Rel.atom out ]
      | NestJoin | NestOuter -> s @ [ Rel.nested out [ Rel.atom "x" ] ])
  | Derive { out; _ }, [ s ] -> s @ [ Rel.atom out ]
  | Nest { cname; _ }, [ s ] -> [ Rel.nested cname s ]
  | Unnest (path, _), [ s ] -> (
      match Rel.resolve s path with
      | Rel.Nested sub ->
          List.filter
            (fun (c : Rel.column) ->
              not (String.equal c.cname (List.nth path (List.length path - 1))))
            s
          @ sub
      | Rel.Atom -> invalid_arg "Logical.schema: unnest of an atomic column")
  | Xml _, [ _ ] -> [ Rel.atom "xml" ]
  | _ -> invalid_arg "Logical.output_schema: wrong number of input schemas"

let rec schema env plan =
  match plan with
  | Scan name -> (
      match env name with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "Logical.schema: unknown relation %S" name))
  | _ -> output_schema plan (List.map (schema env) (inputs plan))

let rec size plan = List.fold_left (fun n i -> n + size i) 1 (inputs plan)

let rec scans = function
  | Scan name -> [ name ]
  | plan -> List.concat_map scans (inputs plan)

let axis_symbol = function Child -> "≺" | Descendant -> "≺≺"
let axis_pathsym = function Child -> "/" | Descendant -> "//"

let kind_symbol = function
  | Inner -> "⨝"
  | LeftOuter -> "⟕"
  | Semi -> "⋉"
  | NestJoin -> "⨝n"
  | NestOuter -> "⟕n"

let rec pp ppf = function
  | Scan name -> Format.fprintf ppf "scan(%s)" name
  | Table r -> Format.fprintf ppf "table[%d]" (Rel.cardinality r)
  | Select (p, i) -> Format.fprintf ppf "@[<hv 2>σ[%a](@,%a)@]" Pred.pp p pp i
  | Project { cols; dedup; input } ->
      Format.fprintf ppf "@[<hv 2>π%s[%s](@,%a)@]"
        (if dedup then "°" else "")
        (String.concat ", " (List.map (String.concat ".") cols))
        pp input
  | Product (l, r) -> Format.fprintf ppf "@[<hv 2>(%a@ × %a)@]" pp l pp r
  | Join { kind; pred; left; right; _ } ->
      Format.fprintf ppf "@[<hv 2>(%a@ %s[%a] %a)@]" pp left (kind_symbol kind) Pred.pp
        pred pp right
  | Struct_join { kind; axis; lpath; rpath; left; right; _ } ->
      Format.fprintf ppf "@[<hv 2>(%a@ %s[%s %s %s] %a)@]" pp left (kind_symbol kind)
        (String.concat "." lpath) (axis_symbol axis) (String.concat "." rpath) pp right
  | Union (l, r) -> Format.fprintf ppf "@[<hv 2>(%a@ ∪ %a)@]" pp l pp r
  | Diff (l, r) -> Format.fprintf ppf "@[<hv 2>(%a@ \\ %a)@]" pp l pp r
  | Rename (renames, i) ->
      Format.fprintf ppf "@[<hv 2>ρ[%s](@,%a)@]"
        (String.concat ", " (List.map (fun (o, n) -> o ^ "→" ^ n) renames))
        pp i
  | Reorder (positions, i) ->
      Format.fprintf ppf "@[<hv 2>reorder[%s](@,%a)@]"
        (String.concat "," (List.map string_of_int positions))
        pp i
  | Extract { src; steps; mode; kind; out; input } ->
      Format.fprintf ppf "@[<hv 2>extract%s[%s: %s%s → %s](@,%a)@]" (kind_symbol kind)
        (String.concat "." src)
        (String.concat ""
           (List.map (fun (a, l) -> axis_pathsym a ^ l) steps))
        (match mode with `Value -> "/val" | `Content -> "/cont")
        out pp input
  | Derive { src; levels; out; input } ->
      Format.fprintf ppf "@[<hv 2>derive[%s ↑%d → %s](@,%a)@]" (String.concat "." src)
        levels out pp input
  | Nest { cname; input } -> Format.fprintf ppf "@[<hv 2>nest[%s](@,%a)@]" cname pp input
  | Unnest (path, i) ->
      Format.fprintf ppf "@[<hv 2>unnest[%s](@,%a)@]" (String.concat "." path) pp i
  | Sort (path, i) ->
      Format.fprintf ppf "@[<hv 2>sort[%s](@,%a)@]" (String.concat "." path) pp i
  | Xml (_, i) -> Format.fprintf ppf "@[<hv 2>xml(@,%a)@]" pp i

let to_string plan = Format.asprintf "%a" pp plan
