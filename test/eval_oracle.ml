(* The set-at-a-time reference interpreter of the logical algebra (§1.2.2):
   every operator materializes its inputs as whole relations and produces
   its output as one. The agreement tests hold {!Xalgebra.Physical}, the
   engine's cursor executor, to it. Per-tuple semantics mostly come from
   the library's kernels ({!Xalgebra.Eval}); what is independent here is
   the evaluation order, the joins — a value join hashes on any equality
   path, nested ones included, and every structural join probes the
   matcher where the executor runs StackTreeDesc — the set operators, and
   XML construction, which this file interprets per tuple where the
   executor runs {!Xalgebra.Eval.stage_template}'s staged kernel. *)

module Rel = Xalgebra.Rel
module Pred = Xalgebra.Pred
module Value = Xalgebra.Value
module Logical = Xalgebra.Logical
module Eval = Xalgebra.Eval

let value_matches pred lsch rsch (rts : Rel.tuple list) =
  match pred with
  | Pred.Cmp (Pred.Col lp, Pred.Eq, Pred.Col rp)
    when Rel.mem_path lsch lp && Rel.mem_path rsch rp ->
      let table = Hashtbl.create (List.length rts) in
      List.iteri
        (fun pos rt ->
          List.iter
            (fun v -> if not (Value.is_null v) then Hashtbl.add table (Value.hash v) (v, pos, rt))
            (Rel.atoms_of_path rsch rt rp))
        rts;
      fun lt ->
        (* A left tuple may reach one right tuple through several atoms:
           keep each right tuple once, by position, so that equal right
           tuples still each join, as under nested loops. *)
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
      let joined = Rel.concat_schemas lsch rsch in
      fun lt -> List.filter (fun rt -> Pred.eval joined (Rel.concat_tuples lt rt) pred) rts

(* --- XML construction, interpreted -------------------------------------- *)

let value_to_fragment = function
  | Value.Null -> ""
  | Value.Str s -> s
  | Value.Int i -> string_of_int i
  | Value.Bool b -> string_of_bool b
  | Value.Id id -> Xdm.Nid.to_string id

(* The template walked anew for every tuple, names looked up in the
   schema on every use; a [T_foreach] body runs against the outer schema
   extended with the inner one and the outer tuple extended with each
   inner tuple, so holes naming enclosing columns still resolve. *)
let rec eval_template buf schema tuple template =
  match template with
  | Logical.T_text s -> Buffer.add_string buf s
  | Logical.T_col path ->
      List.iter
        (fun v -> Buffer.add_string buf (value_to_fragment v))
        (Rel.atoms_of_path schema tuple path)
  | Logical.T_tag ("", children) -> List.iter (eval_template buf schema tuple) children
  | Logical.T_tag (tag, children) ->
      Buffer.add_string buf ("<" ^ tag ^ ">");
      List.iter (eval_template buf schema tuple) children;
      Buffer.add_string buf ("</" ^ tag ^ ">")
  | Logical.T_foreach (path, body) -> (
      let i = Rel.col_index schema (List.hd path) in
      let sub =
        match (List.nth schema i).Rel.ctype with
        | Rel.Nested s -> s
        | Rel.Atom -> invalid_arg "Eval_oracle: T_foreach on an atomic column"
      in
      let body = match List.tl path with [] -> body | rest -> Logical.T_foreach (rest, body) in
      match tuple.(i) with
      | Rel.N inner ->
          List.iter
            (fun t -> eval_template buf (schema @ sub) (Rel.concat_tuples tuple t) body)
            inner
      | Rel.A _ -> invalid_arg "Eval_oracle: T_foreach on an atomic field")

let tag schema tuple template =
  let buf = Buffer.create 128 in
  eval_template buf schema tuple template;
  [| Rel.A (Value.Str (Buffer.contents buf)) |]

(* --- Operators --------------------------------------------------------- *)

let rec run env plan =
  let inputs = List.map (run env) (Logical.inputs plan) in
  match (plan, inputs) with
  | Logical.Scan name, [] -> (
      match env name with Some r -> r | None -> raise (Eval.Unknown_relation name))
  | _ ->
      let schema = Logical.output_schema plan (List.map (fun r -> r.Rel.schema) inputs) in
      Rel.make schema (operator plan inputs)

and operator plan inputs =
  match (plan, inputs) with
  | Logical.Table r, [] -> r.Rel.tuples
  | Logical.Select (pred, _), [ r ] -> List.filter_map (Eval.select r.Rel.schema pred) r.Rel.tuples
  | Logical.Project { cols; dedup; _ }, [ r ] ->
      (Rel.project r.Rel.schema cols ~dedup r.Rel.tuples).Rel.tuples
  | Logical.Product _, [ l; r ] ->
      List.concat_map (fun lt -> List.map (Rel.concat_tuples lt) r.Rel.tuples) l.Rel.tuples
  | Logical.Join { kind; pred; _ }, [ l; r ] ->
      let matches = value_matches pred l.Rel.schema r.Rel.schema r.Rel.tuples in
      let null_right = Rel.null_tuple r.Rel.schema in
      List.concat_map (fun lt -> Eval.combine kind ~null_right lt (matches lt)) l.Rel.tuples
  | Logical.Struct_join { kind; axis; lpath; rpath; _ }, [ l; r ] ->
      let matcher = Eval.build_matcher axis r.Rel.schema rpath r.Rel.tuples in
      List.concat_map
        (Eval.struct_expand kind l.Rel.schema lpath ~null_right:(Rel.null_tuple r.Rel.schema)
           matcher)
        l.Rel.tuples
  | Logical.Union _, [ l; r ] -> (Rel.union l r).Rel.tuples
  | Logical.Diff _, [ l; r ] -> (Rel.difference l r).Rel.tuples
  | Logical.Rename _, [ r ] -> r.Rel.tuples
  | Logical.Reorder (positions, _), [ r ] ->
      List.map (fun t -> Array.of_list (List.map (fun i -> t.(i)) positions)) r.Rel.tuples
  | Logical.Extract { src; steps; mode; kind; _ }, [ r ] ->
      List.concat_map (Eval.extract r.Rel.schema ~src ~steps ~mode kind) r.Rel.tuples
  | Logical.Derive { src; levels; _ }, [ r ] ->
      List.map (Eval.derive r.Rel.schema ~src ~levels) r.Rel.tuples
  | Logical.Nest _, [ r ] -> [ [| Rel.N r.Rel.tuples |] ]
  | Logical.Unnest (path, _), [ r ] -> List.concat_map (Eval.unnest r.Rel.schema path) r.Rel.tuples
  | Logical.Sort (path, _), [ r ] -> (Rel.sort_by r.Rel.schema path r).Rel.tuples
  | Logical.Xml (template, _), [ r ] ->
      List.map (fun t -> tag r.Rel.schema t template) r.Rel.tuples
  | _ -> invalid_arg "Eval_oracle: operator applied to the wrong number of inputs"

let run_closed plan = run (fun _ -> None) plan
