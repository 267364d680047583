module Nid = Xdm.Nid

type order = Rel.path option
type cursor = unit -> Rel.tuple option
type t = { schema : Rel.schema; order : order; open_ : unit -> cursor }

(* --- Cursor helpers ------------------------------------------------------ *)

let of_list (tuples : Rel.tuple list) : cursor =
  let rest = ref tuples in
  fun () ->
    match !rest with
    | [] -> None
    | t :: more ->
        rest := more;
        Some t

let drain (c : cursor) : Rel.tuple list =
  let rec go acc = match c () with None -> List.rev acc | Some t -> go (t :: acc) in
  go []

let map_cursor f (c : cursor) : cursor =
 fun () -> Option.map f (c ())

let filter_cursor pred (c : cursor) : cursor =
  let rec next () =
    match c () with
    | None -> None
    | Some t -> if pred t then Some t else next ()
  in
  next

(* --- StackTree structural joins (Al-Khalifa et al. [7]) ------------------- *)

(* Inputs: arrays of (identifier, payload) sorted by document order.
   The stack holds the current chain of nested ancestors. *)

let strictly_before a d =
  (* a starts before d in document order. *)
  Nid.compare a d < 0

let is_anc a d = Nid.is_ancestor a d = Some true

let axis_pair axis a d =
  match axis with
  | Logical.Descendant -> is_anc a d
  | Logical.Child -> Nid.is_parent a d = Some true

(* Group adjacent equal identifiers: bag inputs may repeat an ancestor,
   and each copy must pair (the stack keys on distinct identifiers). *)
let group_runs (arr : (Nid.t * Rel.tuple) array) : (Nid.t * Rel.tuple list) array =
  let out = ref [] in
  Array.iter
    (fun (id, t) ->
      match !out with
      | (id', ts) :: rest when Nid.equal id id' -> out := (id', t :: ts) :: rest
      | _ -> out := (id, [ t ]) :: !out)
    arr;
  Array.of_list (List.rev_map (fun (id, ts) -> (id, List.rev ts)) !out)

let stack_tree_desc ~axis (ancs : (Nid.t * Rel.tuple) array)
    (descs : (Nid.t * Rel.tuple) array) : (Rel.tuple * Rel.tuple) list =
  let ancs = group_runs ancs in
  let out = ref [] in
  let stack = ref [] in
  let na = Array.length ancs in
  let ai = ref 0 in
  for di = 0 to Array.length descs - 1 do
    let did, dt = descs.(di) in
    (* Push every ancestor-side node starting before [did], maintaining
       the nesting-chain invariant. *)
    while !ai < na && strictly_before (fst ancs.(!ai)) did do
      let aid, ats = ancs.(!ai) in
      incr ai;
      (* Pop stack entries that do not contain the new node. *)
      while (match !stack with (top, _) :: _ -> not (is_anc top aid) | [] -> false) do
        stack := List.tl !stack
      done;
      stack := (aid, ats) :: !stack
    done;
    (* Pop entries whose span ended before [did]. *)
    while (match !stack with (top, _) :: _ -> not (is_anc top did) | [] -> false) do
      stack := List.tl !stack
    done;
    (* Every remaining stack entry is an ancestor of [did]; emit bottom-up
       or filtered to parents on the Child axis. *)
    List.iter
      (fun (aid, ats) ->
        if axis = Logical.Descendant || axis_pair axis aid did then
          List.iter (fun at -> out := (at, dt) :: !out) ats)
      !stack
  done;
  List.rev !out

let stack_tree_anc ~axis (ancs : (Nid.t * Rel.tuple) array)
    (descs : (Nid.t * Rel.tuple) array) : (Rel.tuple * Rel.tuple) list =
  (* Each stack entry carries a self-list (its own pairs) and an
     inherit-list (completed pairs of deeper popped entries, which must be
     output before its own). Output is produced only when an entry leaves
     an empty stack, which is what yields ancestor order. *)
  let ancs = group_runs ancs in
  let out = ref [] in
  let emit l = out := List.rev_append l !out in
  let stack : (Nid.t * Rel.tuple list * (Rel.tuple * Rel.tuple) list ref
              * (Rel.tuple * Rel.tuple) list ref) list ref =
    ref []
  in
  let pop () =
    match !stack with
    | [] -> ()
    | (_, _, self, inh) :: rest ->
        stack := rest;
        (match rest with
        | [] ->
            emit (List.rev !inh);
            emit (List.rev !self)
        | (_, _, _, parent_inh) :: _ ->
            parent_inh := List.rev_append !self (List.rev_append !inh !parent_inh))
  in
  let na = Array.length ancs in
  let ai = ref 0 in
  for di = 0 to Array.length descs - 1 do
    let did, dt = descs.(di) in
    while !ai < na && strictly_before (fst ancs.(!ai)) did do
      let aid, ats = ancs.(!ai) in
      incr ai;
      while (match !stack with (top, _, _, _) :: _ -> not (is_anc top aid) | [] -> false) do
        pop ()
      done;
      stack := (aid, ats, ref [], ref []) :: !stack
    done;
    while (match !stack with (top, _, _, _) :: _ -> not (is_anc top did) | [] -> false) do
      pop ()
    done;
    List.iter
      (fun (aid, ats, self, _) ->
        if axis = Logical.Descendant || axis_pair axis aid did then
          List.iter (fun at -> self := (at, dt) :: !self) ats)
      !stack
  done;
  while !stack <> [] do
    pop ()
  done;
  List.rev !out

(* --- Compilation ----------------------------------------------------------- *)

exception Fallback

(* Compilation context: the evaluation environment plus a hook applied to
   every compiled operator — identity for plain compilation, a
   stats-wrapping closure for instrumented runs. *)
type ctx = { env : Eval.env; wrap : Logical.t -> t -> t }

let sub_plans = function
  | Logical.Scan _ | Logical.Table _ -> []
  | Logical.Select (_, i)
  | Logical.Project { input = i; _ }
  | Logical.Rename (_, i)
  | Logical.Reorder (_, i)
  | Logical.Extract { input = i; _ }
  | Logical.Derive { input = i; _ }
  | Logical.Nest { input = i; _ }
  | Logical.Unnest (_, i)
  | Logical.Sort (_, i)
  | Logical.Xml (_, i) -> [ i ]
  | Logical.Product (l, r) | Logical.Union (l, r) | Logical.Diff (l, r) -> [ l; r ]
  | Logical.Join { left; right; _ } | Logical.Struct_join { left; right; _ } ->
      [ left; right ]

(* Column holding the identifier, when the path is a single top-level
   component. *)
let top_col schema path =
  match path with
  | [ name ] -> ( match Rel.find_col schema name with Some (i, _) -> Some i | None -> None)
  | _ -> None

let id_at i (t : Rel.tuple) =
  match t.(i) with Rel.A (Value.Id id) -> Some id | _ -> None

(* Is a materialized stream sorted by the identifier column [i]? *)
let sorted_on i tuples =
  let rec go prev = function
    | [] -> true
    | t :: rest -> (
        match id_at i t with
        | None -> false
        | Some id -> (
            match prev with
            | Some p when Nid.compare p id > 0 -> false
            | _ -> go (Some id) rest))
  in
  go None tuples

let sort_tuples i tuples =
  List.stable_sort
    (fun a b ->
      match (id_at i a, id_at i b) with
      | Some x, Some y -> Nid.compare x y
      | _ -> 0)
    tuples

let rec compile_ctx (ctx : ctx) (plan : Logical.t) : t =
  let p =
    match compile_streaming ctx plan with
    | p -> p
    | exception Fallback -> delegate ctx plan
  in
  ctx.wrap plan p

(* A non-streamable operator evaluates set-at-a-time — but only itself:
   its inputs are still compiled to cursors and drained on demand, so the
   subplans below keep pipelining (and keep their instrumentation). The
   materialization is deferred to the first [open_]. *)
and delegate ctx plan : t =
  let compiled = List.map (fun sub -> (sub, compile_ctx ctx sub)) (sub_plans plan) in
  let via _env sub =
    match List.find_map (fun (n, p) -> if n == sub then Some p else None) compiled with
    | Some p -> Rel.make p.schema (drain (p.open_ ()))
    | None -> Eval.run ctx.env sub
  in
  let result = lazy (Eval.step via ctx.env plan) in
  let schema =
    match
      Logical.schema (fun name -> Option.map (fun r -> r.Rel.schema) (ctx.env name)) plan
    with
    | schema -> schema
    | exception _ -> (Lazy.force result).Rel.schema
  in
  { schema; order = None; open_ = (fun () -> of_list (Lazy.force result).Rel.tuples) }

and compile_streaming ctx plan : t =
  (* The [env] threaded through the operator cases below is the whole
     compilation context; only [Scan] reaches inside for the actual
     environment. *)
  let compile = compile_ctx in
  let env = ctx in
  match plan with
  | Logical.Scan name -> (
      match ctx.env name with
      | None -> raise (Eval.Unknown_relation name)
      | Some r ->
          let order =
            List.find_map
              (fun (c : Rel.column) ->
                match c.Rel.ctype with
                | Rel.Atom ->
                    let i = Rel.col_index r.Rel.schema c.Rel.cname in
                    if
                      r.Rel.tuples <> []
                      && List.for_all (fun t -> id_at i t <> None) r.Rel.tuples
                      && sorted_on i r.Rel.tuples
                    then Some [ c.Rel.cname ]
                    else None
                | Rel.Nested _ -> None)
              r.Rel.schema
          in
          { schema = r.Rel.schema; order; open_ = (fun () -> of_list r.Rel.tuples) })
  | Logical.Table r ->
      { schema = r.Rel.schema; order = None; open_ = (fun () -> of_list r.Rel.tuples) }
  | Logical.Select (pred, input) ->
      let p = compile env input in
      (* Nested-path predicates reduce collections in Eval; keep agreement
         by delegating those. *)
      if List.exists (fun path -> List.length path > 1) (Pred.paths pred) then
        raise Fallback
      else
        { p with
          open_ = (fun () -> filter_cursor (fun t -> Pred.eval p.schema t pred) (p.open_ ())) }
  | Logical.Project { cols; dedup; input } ->
      let p = compile env input in
      if List.exists (fun path -> List.length path > 1) cols then raise Fallback
      else
        let out_schema = (Rel.project p.schema cols ~dedup:false []).Rel.schema in
        let order =
          match p.order with
          | Some [ col ] when List.mem [ col ] cols -> Some [ col ]
          | _ -> None
        in
        if dedup then
          { schema = out_schema;
            order;
            open_ =
              (fun () ->
                let seen = Rel.Tuple_table.create 64 in
                let c = p.open_ () in
                let rec next () =
                  match c () with
                  | None -> None
                  | Some t ->
                      let u = (Rel.project p.schema cols ~dedup:false [ t ]).Rel.tuples in
                      let u = List.hd u in
                      if Rel.Tuple_table.mem seen u then next ()
                      else (
                        Rel.Tuple_table.add seen u ();
                        Some u)
                in
                next) }
        else
          { schema = out_schema;
            order;
            open_ =
              (fun () ->
                map_cursor
                  (fun t -> List.hd (Rel.project p.schema cols ~dedup:false [ t ]).Rel.tuples)
                  (p.open_ ())) }
  | Logical.Rename (renames, input) ->
      let p = compile env input in
      let rename_col name =
        match List.assoc_opt name renames with Some n -> n | None -> name
      in
      { schema =
          List.map
            (fun (c : Rel.column) -> { c with Rel.cname = rename_col c.Rel.cname })
            p.schema;
        order = Option.map (function [ n ] -> [ rename_col n ] | o -> o) p.order;
        open_ = p.open_ }
  | Logical.Reorder (positions, input) ->
      let p = compile env input in
      let sch = Array.of_list p.schema in
      { schema = List.map (fun i -> sch.(i)) positions;
        order = None;
        open_ =
          (fun () ->
            map_cursor
              (fun t -> Array.of_list (List.map (fun i -> t.(i)) positions))
              (p.open_ ())) }
  | Logical.Union (l, r) ->
      let pl = compile env l and pr = compile env r in
      { schema = pl.schema;
        order = None;
        open_ =
          (fun () ->
            let cl = pl.open_ () and cr = pr.open_ () in
            let left_done = ref false in
            let rec next () =
              if !left_done then cr ()
              else
                match cl () with
                | Some t -> Some t
                | None ->
                    left_done := true;
                    next ()
            in
            next) }
  | Logical.Diff (l, r) ->
      let pl = compile env l and pr = compile env r in
      { schema = pl.schema;
        order = pl.order;
        open_ =
          (fun () ->
            let rights = drain (pr.open_ ()) in
            filter_cursor
              (fun t -> not (List.exists (Rel.equal_tuple t) rights))
              (pl.open_ ())) }
  | Logical.Sort (path, input) ->
      let p = compile env input in
      { schema = p.schema;
        order = Some path;
        open_ =
          (fun () ->
            let r = Rel.sort_by p.schema path (Rel.make p.schema (drain (p.open_ ()))) in
            of_list r.Rel.tuples) }
  | Logical.Product (l, r) ->
      let pl = compile env l and pr = compile env r in
      { schema = Rel.concat_schemas pl.schema pr.schema;
        order = pl.order;
        open_ =
          (fun () ->
            let rights = drain (pr.open_ ()) in
            let cl = pl.open_ () in
            let pending = ref [] in
            let rec next () =
              match !pending with
              | t :: more ->
                  pending := more;
                  Some t
              | [] -> (
                  match cl () with
                  | None -> None
                  | Some lt ->
                      pending := List.map (fun rt -> Rel.concat_tuples lt rt) rights;
                      next ())
            in
            next) }
  | Logical.Join { kind = Logical.Inner | Logical.LeftOuter | Logical.Semi as kind;
                   pred; left; right; _ } -> (
      let pl = compile env left and pr = compile env right in
      (* Hash join on top-level equality columns, nested loops otherwise. *)
      match pred with
      | Pred.Cmp (Pred.Col lp, Pred.Eq, Pred.Col rp)
        when top_col pl.schema lp <> None && top_col pr.schema rp <> None ->
          let li = Option.get (top_col pl.schema lp) in
          let ri = Option.get (top_col pr.schema rp) in
          join kind pl pr ~matches:(fun rights ->
              let table = Hashtbl.create 64 in
              List.iter
                (fun rt ->
                  let v = Rel.atom_field rt ri in
                  if not (Value.is_null v) then Hashtbl.add table (Value.hash v) (v, rt))
                rights;
              fun lt ->
                let v = Rel.atom_field lt li in
                Hashtbl.find_all table (Value.hash v)
                |> List.rev
                |> List.filter_map (fun (rv, rt) ->
                       if Value.equal v rv then Some rt else None))
      | _ ->
          let joined = Rel.concat_schemas pl.schema pr.schema in
          join kind pl pr ~matches:(fun rights lt ->
              List.filter (fun rt -> Pred.eval joined (Rel.concat_tuples lt rt) pred) rights))
  | Logical.Struct_join { kind = Logical.Inner as kind; axis; lpath; rpath; left; right; _ }
    ->
      struct_join_stream env kind axis lpath rpath left right
  | Logical.Xml (template, input) ->
      let p = compile env input in
      { schema = [ Rel.atom "xml" ];
        order = None;
        open_ =
          (fun () ->
            map_cursor
              (fun t ->
                let buf = Buffer.create 128 in
                Eval.eval_template buf p.schema t template;
                [| Rel.A (Value.Str (Buffer.contents buf)) |])
              (p.open_ ())) }
  | _ -> raise Fallback

(* An Inner, LeftOuter or Semi join. On open the right input is drained
   and handed to [matches], which returns the lookup giving each left
   tuple its matching right tuples in right-input order. *)
and join kind pl pr ~matches : t =
  let schema =
    match kind with
    | Logical.Semi -> pl.schema
    | _ -> Rel.concat_schemas pl.schema pr.schema
  in
  { schema;
    order = pl.order;
    open_ =
      (fun () ->
        let matches = matches (drain (pr.open_ ())) in
        let cl = pl.open_ () in
        let pending = ref [] in
        let null_right = Rel.null_tuple pr.schema in
        let rec next () =
          match !pending with
          | t :: more ->
              pending := more;
              Some t
          | [] -> (
              match cl () with
              | None -> None
              | Some lt -> (
                  let ms = matches lt in
                  match kind with
                  | Logical.Semi -> if ms = [] then next () else Some lt
                  | Logical.LeftOuter ->
                      pending :=
                        (match ms with
                        | [] -> [ Rel.concat_tuples lt null_right ]
                        | _ -> List.map (fun rt -> Rel.concat_tuples lt rt) ms);
                      next ()
                  | _ ->
                      pending := List.map (fun rt -> Rel.concat_tuples lt rt) ms;
                      next ()))
        in
        next) }

and struct_join_stream ctx kind axis lpath rpath left right : t =
  let pl = compile_ctx ctx left and pr = compile_ctx ctx right in
  let li = match top_col pl.schema lpath with Some i -> i | None -> raise Fallback in
  let ri = match top_col pr.schema rpath with Some i -> i | None -> raise Fallback in
  ignore kind;
  let schema = Rel.concat_schemas pl.schema pr.schema in
  let axis' = match axis with Logical.Child -> Logical.Child | a -> a in
  { schema;
    order = Some rpath;
    open_ =
      (fun () ->
        (* Enforce the order descriptors: sort an input unless its
           descriptor already matches the join attribute (§1.2.3). *)
        let prepare (p : t) i path =
          let tuples = drain (p.open_ ()) in
          let tuples =
            if p.order = Some path && sorted_on i tuples then tuples
            else sort_tuples i tuples
          in
          Array.of_list
            (List.filter_map (fun t -> Option.map (fun id -> (id, t)) (id_at i t)) tuples)
        in
        let ancs = prepare pl li lpath in
        let descs = prepare pr ri rpath in
        let pairs = stack_tree_desc ~axis:axis' ancs descs in
        of_list (List.map (fun (a, d) -> Rel.concat_tuples a d) pairs)) }

let compile env plan = compile_ctx { env; wrap = (fun _ p -> p) } plan

let run env plan =
  let p = compile env plan in
  Rel.make p.schema (drain (p.open_ ()))

(* --- Per-query resource budgets ------------------------------------------- *)

type budget_dimension = Deadline | Tuples | Steps

type budget = {
  deadline : float option;
  max_tuples : int option;
  max_steps : int option;
  mutable steps : int;
  mutable tuples : int;
}

exception Over_budget of { dimension : budget_dimension; limit : float }

let budget ?deadline ?max_tuples ?max_steps () =
  { deadline; max_tuples; max_steps; steps = 0; tuples = 0 }

let dimension_string = function
  | Deadline -> "deadline"
  | Tuples -> "tuples"
  | Steps -> "steps"

(* --- Per-operator instrumentation ----------------------------------------- *)

type op_stats = {
  op : string;
  mutable tuples : int;
  mutable nexts : int;
  mutable elapsed : float;
  mutable children : op_stats list;
}

let kind_str = function
  | Logical.Inner -> "inner"
  | Logical.LeftOuter -> "outer"
  | Logical.Semi -> "semi"
  | Logical.NestJoin -> "nest"
  | Logical.NestOuter -> "nest-outer"

let op_name = function
  | Logical.Scan name -> "scan " ^ name
  | Logical.Table _ -> "table"
  | Logical.Select _ -> "select"
  | Logical.Project _ -> "project"
  | Logical.Product _ -> "product"
  | Logical.Join { kind; _ } -> Printf.sprintf "join[%s]" (kind_str kind)
  | Logical.Struct_join { kind; axis; _ } ->
      Printf.sprintf "struct-join[%s,%s]" (kind_str kind)
        (match axis with Logical.Child -> "/" | Logical.Descendant -> "//")
  | Logical.Union _ -> "union"
  | Logical.Diff _ -> "diff"
  | Logical.Rename _ -> "rename"
  | Logical.Reorder _ -> "reorder"
  | Logical.Extract _ -> "extract"
  | Logical.Derive _ -> "derive"
  | Logical.Nest _ -> "nest"
  | Logical.Unnest _ -> "unnest"
  | Logical.Sort _ -> "sort"
  | Logical.Xml _ -> "xml"

let fresh_stats node =
  { op = op_name node; tuples = 0; nexts = 0; elapsed = 0.0; children = [] }

let compile_instrumented ?(clock = Sys.time) ?budget env plan =
  (* Every compiled operator gets a stats node counting next() calls,
     tuples produced and wall time (inclusive of its inputs, since a
     parent's next() pulls on its children). Keyed by physical identity of
     the logical node; when a node is compiled twice (a streaming attempt
     discarded by a later Fallback), the later — actually executed —
     registration wins. *)
  let charge =
    match budget with
    | None -> fun () -> ()
    | Some b ->
        fun () ->
          b.steps <- b.steps + 1;
          (match b.max_steps with
          | Some m when b.steps > m ->
              raise (Over_budget { dimension = Steps; limit = float_of_int m })
          | _ -> ());
          (* The clock is consulted on the first step and every 16th after,
             so a deadline costs one gettimeofday per 16 cursor steps. *)
          ( match b.deadline with
          | Some d when b.steps land 15 = 1 && clock () > d ->
              raise (Over_budget { dimension = Deadline; limit = d })
          | _ -> () )
  in
  let table : (Logical.t * op_stats) list ref = ref [] in
  let wrap node p =
    let st = fresh_stats node in
    table := (node, st) :: !table;
    { p with
      open_ =
        (fun () ->
          let c = p.open_ () in
          fun () ->
            charge ();
            let t0 = clock () in
            let r = c () in
            st.elapsed <- st.elapsed +. (clock () -. t0);
            st.nexts <- st.nexts + 1;
            (match r with Some _ -> st.tuples <- st.tuples + 1 | None -> ());
            r) }
  in
  let p = compile_ctx { env; wrap } plan in
  let find node =
    List.find_map (fun (n, st) -> if n == node then Some st else None) !table
  in
  (* Mirror the logical plan. A subtree folded into a set-at-a-time
     ancestor before ever being compiled shows up with zero counts. *)
  let rec build node =
    let st = match find node with Some st -> st | None -> fresh_stats node in
    st.children <- List.map build (sub_plans node);
    st
  in
  (p, build plan)

(* Fold a finished stats tree into the registry: totals across operators
   plus one latency observation per operator node. The registry lookups
   are get-or-create, so the counters are shared by every plan recorded
   against the same registry. *)
let record_stats reg stats =
  let tuples = Xobs.Metrics.counter reg "physical_tuples_total"
      ~help:"tuples produced, summed over all operators" in
  let nexts = Xobs.Metrics.counter reg "physical_nexts_total"
      ~help:"cursor next() calls, summed over all operators" in
  let ops = Xobs.Metrics.counter reg "physical_operators_total"
      ~help:"physical operator instances executed" in
  let per_op = Xobs.Metrics.histogram reg "physical_op_seconds"
      ~help:"per-operator inclusive cursor time" in
  let rec go (st : op_stats) =
    Xobs.Metrics.add tuples st.tuples;
    Xobs.Metrics.add nexts st.nexts;
    Xobs.Metrics.incr ops;
    Xobs.Metrics.observe per_op st.elapsed;
    List.iter go st.children
  in
  go stats

let run_instrumented ?clock ?budget ?metrics env plan =
  let p, stats = compile_instrumented ?clock ?budget env plan in
  let finish rel =
    (match metrics with Some reg -> record_stats reg stats | None -> ());
    (rel, stats)
  in
  match budget with
  | None -> finish (Rel.make p.schema (drain (p.open_ ())))
  | Some b ->
      (* The result-size cap is enforced at the drain: [b.tuples] counts
         root tuples only, while [b.steps] counts every cursor step. *)
      let c = p.open_ () in
      let rec go acc =
        match c () with
        | None -> List.rev acc
        | Some t ->
            b.tuples <- b.tuples + 1;
            (match b.max_tuples with
            | Some m when b.tuples > m ->
                raise (Over_budget { dimension = Tuples; limit = float_of_int m })
            | _ -> ());
            go (t :: acc)
      in
      finish (Rel.make p.schema (go []))
