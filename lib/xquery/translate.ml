module Rel = Xalgebra.Rel
module Pred = Xalgebra.Pred
module Value = Xalgebra.Value
module Logical = Xalgebra.Logical
module Eval = Xalgebra.Eval
module Doc = Xdm.Doc
module Pattern = Xam.Pattern

let scan_name i = Printf.sprintf "Q%d" i

let col_prefix i name = Printf.sprintf "p%d:%s" i name

let prefixed i = function
  | top :: rest -> col_prefix i top :: rest
  | [] -> invalid_arg "Translate: empty column path"

let pred_cmp = function
  | Ast.Eq -> Pred.Eq
  | Ast.Ne -> Pred.Ne
  | Ast.Lt -> Pred.Lt
  | Ast.Le -> Pred.Le
  | Ast.Gt -> Pred.Gt
  | Ast.Ge -> Pred.Ge

let rec cvt_template (t : Extract.template) : Logical.template =
  match t with
  | Extract.T_text s -> Logical.T_text s
  | Extract.T_tag (tag, body) -> Logical.T_tag (tag, List.map cvt_template body)
  | Extract.T_hole (pat, path, absolute) ->
      Logical.T_col (if absolute then prefixed pat path else path)
  | Extract.T_foreach (pat, path, absolute, body) ->
      Logical.T_foreach
        ((if absolute then prefixed pat path else path),
         Logical.T_tag ("", List.map cvt_template body))

let plan (e : Extract.t) =
  let scans =
    List.mapi
      (fun i p ->
        let renames =
          List.map
            (fun (c : Rel.column) -> (c.Rel.cname, col_prefix i c.Rel.cname))
            (Pattern.schema p)
        in
        Logical.Rename (renames, Logical.Scan (scan_name i)))
      e.Extract.patterns
  in
  let joined =
    match scans with
    | [] -> invalid_arg "Translate.plan: no patterns"
    | first :: rest -> List.fold_left (fun acc p -> Logical.Product (acc, p)) first rest
  in
  let with_joins =
    List.fold_left
      (fun acc ((p1, path1), cmp, (p2, path2)) ->
        Logical.Select
          ( Pred.Cmp (Pred.Col (prefixed p1 path1), pred_cmp cmp, Pred.Col (prefixed p2 path2)),
            acc ))
      joined e.Extract.value_joins
  in
  Logical.Xml (cvt_template e.Extract.template, with_joins)

let env_for doc (e : Extract.t) =
  Eval.env_of_list
    (List.mapi (fun i p -> (scan_name i, Xam.Embed.eval doc p)) e.Extract.patterns)

let eval doc expr =
  let e = Extract.extract expr in
  let result = Xalgebra.Physical.run (env_for doc e) (plan e) in
  let buf = Buffer.create 256 in
  List.iter
    (fun t ->
      match t.(0) with
      | Rel.A (Value.Str s) -> Buffer.add_string buf s
      | Rel.A v -> Buffer.add_string buf (Value.to_display v)
      | Rel.N _ -> ())
    result.Rel.tuples;
  Buffer.contents buf

let eval_string doc src = eval doc (Parse.query src)

(* --- Direct navigational interpreter --------------------------------------- *)

let test_matches doc h = function
  | "*" -> Doc.kind doc h = Doc.Element
  | "#text" -> Doc.kind doc h = Doc.Text
  | t -> String.equal (Doc.label doc h) t

let rec eval_steps doc (handles : int list) (steps : Ast.step list) : int list =
  match steps with
  | [] -> List.sort_uniq Int.compare handles
  | step :: rest ->
      let next =
        List.concat_map
          (fun h ->
            let pool =
              match step.Ast.axis with
              | Ast.Child -> Doc.children doc h
              | Ast.Descendant -> Doc.descendants doc h
            in
            List.filter
              (fun c ->
                test_matches doc c step.Ast.test
                && List.for_all (eval_pred doc c) step.Ast.preds)
              pool)
          handles
      in
      eval_steps doc (List.sort_uniq Int.compare next) rest

and eval_pred doc h = function
  | Ast.Exists rel -> eval_steps doc [ h ] rel <> []
  | Ast.Value_cmp (rel, cmp, lit) ->
      let rel', _text = Extract.split_text rel in
      let targets = eval_steps doc [ h ] rel' in
      let c = Value.of_string_literal lit in
      List.exists
        (fun t ->
          let v = Value.of_string_literal (Doc.value doc t) in
          satisfies cmp v c)
        targets

and satisfies cmp v c =
  let d = Value.compare_typed v c in
  match cmp with
  | Ast.Eq -> d = 0
  | Ast.Ne -> d <> 0
  | Ast.Lt -> d < 0
  | Ast.Le -> d <= 0
  | Ast.Gt -> d > 0
  | Ast.Ge -> d >= 0

let eval_path doc (env : (string * int) list) (p : Ast.path) : int list =
  match p.Ast.source with
  | Ast.Doc _ -> (
      match p.Ast.steps with
      | [] -> [ Doc.root doc ]
      | first :: rest ->
          let start =
            match first.Ast.axis with
            | Ast.Child ->
                if
                  test_matches doc (Doc.root doc) first.Ast.test
                  && List.for_all (eval_pred doc (Doc.root doc)) first.Ast.preds
                then [ Doc.root doc ]
                else []
            | Ast.Descendant ->
                List.filter
                  (fun h ->
                    test_matches doc h first.Ast.test
                    && List.for_all (eval_pred doc h) first.Ast.preds)
                  (List.init (Doc.size doc) Fun.id)
          in
          eval_steps doc start rest)
  | Ast.Var v -> (
      match List.assoc_opt v env with
      | Some h -> eval_steps doc [ h ] p.Ast.steps
      | None -> invalid_arg (Printf.sprintf "unbound variable $%s" v))

let path_strings doc env p =
  let steps', text = Extract.split_text p.Ast.steps in
  let targets = eval_path doc env { p with Ast.steps = steps' } in
  if text then List.map (fun h -> Doc.value doc h) targets
  else List.map (fun h -> Doc.content doc h) targets

let cond_holds doc env = function
  | Ast.C_exists p -> eval_path doc env p <> []
  | Ast.C_cmp (p, cmp, lit) ->
      let steps', _ = Extract.split_text p.Ast.steps in
      let targets = eval_path doc env { p with Ast.steps = steps' } in
      let c = Value.of_string_literal lit in
      List.exists
        (fun h -> satisfies cmp (Value.of_string_literal (Doc.value doc h)) c)
        targets
  | Ast.C_join (p1, cmp, p2) ->
      let vals p =
        let steps', _ = Extract.split_text p.Ast.steps in
        List.map
          (fun h -> Value.of_string_literal (Doc.value doc h))
          (eval_path doc env { p with Ast.steps = steps' })
      in
      let l = vals p1 and r = vals p2 in
      List.exists (fun a -> List.exists (fun b -> satisfies cmp a b) r) l

let rec eval_expr doc env buf = function
  | Ast.Path p -> List.iter (Buffer.add_string buf) (path_strings doc env p)
  | Ast.Seq es -> List.iter (eval_expr doc env buf) es
  | Ast.Elem (tag, body) ->
      Buffer.add_string buf ("<" ^ tag ^ ">");
      List.iter (eval_expr doc env buf) body;
      Buffer.add_string buf ("</" ^ tag ^ ">")
  | Ast.For { bindings; where; ret } ->
      let rec iterate env = function
        | [] -> if List.for_all (cond_holds doc env) where then eval_expr doc env buf ret
        | (v, p) :: rest ->
            List.iter (fun h -> iterate ((v, h) :: env) rest) (eval_path doc env p)
      in
      iterate env bindings

let eval_direct doc expr =
  let buf = Buffer.create 256 in
  eval_expr doc [] buf expr;
  Buffer.contents buf

let eval_direct_string doc src = eval_direct doc (Parse.query src)
