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

let filter_map_cursor f (c : cursor) : cursor =
  let rec next () =
    match c () with
    | None -> None
    | Some t -> ( match f t with Some _ as r -> r | None -> next ())
  in
  next

let concat_map_cursor f (c : cursor) : cursor =
  let pending = ref [] in
  let rec next () =
    match !pending with
    | t :: more ->
        pending := more;
        Some t
    | [] -> (
        match c () with
        | None -> None
        | Some t ->
            pending := f t;
            next ())
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

(* --- Compilation ----------------------------------------------------------- *)

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

let scan env name =
  match env name with
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
      { schema = r.Rel.schema; order; open_ = (fun () -> of_list r.Rel.tuples) }

(* A join: on open the right input is drained and handed to [expand],
   which returns each left tuple's output tuples. *)
let join schema pl pr ~expand =
  { schema;
    order = pl.order;
    open_ =
      (fun () ->
        let expand = expand (drain (pr.open_ ())) in
        concat_map_cursor expand (pl.open_ ())) }

(* A flat inner structural join: StackTreeDesc over both inputs sorted on
   their join identifiers, with a Sort enforcer unless an input's order
   descriptor already matches (§1.2.3). Output is ordered by the
   descendant column. *)
let stack_tree_join schema axis (pl, lpath) (pr, rpath) =
  { schema;
    order = Some rpath;
    open_ =
      (fun () ->
        let prepare (p : t) path =
          let i = Option.get (top_col p.schema path) in
          let tuples = drain (p.open_ ()) in
          let tuples =
            if p.order = Some path && sorted_on i tuples then tuples
            else sort_tuples i tuples
          in
          Array.of_list
            (List.filter_map (fun t -> Option.map (fun id -> (id, t)) (id_at i t)) tuples)
        in
        let ancs = prepare pl lpath in
        let descs = prepare pr rpath in
        of_list
          (List.map (fun (a, d) -> Rel.concat_tuples a d) (stack_tree_desc ~axis ancs descs))) }

(* The operator at the top of [plan] over its compiled [inputs] (the
   plan's {!Logical.inputs}, in order); [schema] is its output schema. *)
let operator plan schema inputs =
  let stream ?order open_ = { schema; order; open_ } in
  match (plan, inputs) with
  | Logical.Table r, [] -> stream (fun () -> of_list r.Rel.tuples)
  | Logical.Select (pred, _), [ p ] ->
      let keep = Eval.select p.schema pred in
      { p with open_ = (fun () -> filter_map_cursor keep (p.open_ ())) }
  | Logical.Project { cols; dedup; _ }, [ p ] ->
      let order =
        match p.order with Some [ col ] when List.mem [ col ] cols -> p.order | _ -> None
      in
      let project = Rel.project_tuple ~dedup p.schema cols in
      stream ?order (fun () ->
          let c = map_cursor project (p.open_ ()) in
          if not dedup then c
          else
            let seen = Rel.Tuple_table.create 64 in
            filter_map_cursor
              (fun u ->
                if Rel.Tuple_table.mem seen u then None
                else (
                  Rel.Tuple_table.add seen u ();
                  Some u))
              c)
  | Logical.Rename (renames, _), [ p ] ->
      let rename = function
        | [ n ] -> [ Option.value (List.assoc_opt n renames) ~default:n ]
        | path -> path
      in
      { p with schema; order = Option.map rename p.order }
  | Logical.Reorder (positions, _), [ p ] ->
      stream (fun () ->
          map_cursor
            (fun t -> Array.of_list (List.map (fun i -> t.(i)) positions))
            (p.open_ ()))
  | Logical.Union _, [ pl; pr ] ->
      stream (fun () ->
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
          next)
  | Logical.Diff _, [ pl; pr ] ->
      stream ?order:pl.order (fun () ->
          let rights = drain (pr.open_ ()) in
          filter_map_cursor
            (fun t -> if List.exists (Rel.equal_tuple t) rights then None else Some t)
            (pl.open_ ()))
  | Logical.Sort (path, _), [ p ] ->
      stream ~order:path (fun () ->
          of_list (Rel.sort_by schema path (Rel.make schema (drain (p.open_ ())))).Rel.tuples)
  | Logical.Product _, [ pl; pr ] ->
      join schema pl pr ~expand:(fun rights lt -> List.map (Rel.concat_tuples lt) rights)
  | Logical.Join { kind; pred; _ }, [ pl; pr ] ->
      let null_right = Rel.null_tuple pr.schema in
      (* Hash join on top-level equality columns, nested loops otherwise. *)
      let matches =
        match pred with
        | Pred.Cmp (Pred.Col lp, Pred.Eq, Pred.Col rp)
          when top_col pl.schema lp <> None && top_col pr.schema rp <> None ->
            let li = Option.get (top_col pl.schema lp) in
            let ri = Option.get (top_col pr.schema rp) in
            fun rights ->
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
                |> List.filter_map (fun (rv, rt) -> if Value.equal v rv then Some rt else None)
        | _ ->
            let joined = Rel.concat_schemas pl.schema pr.schema in
            fun rights lt ->
              List.filter (fun rt -> Pred.eval joined (Rel.concat_tuples lt rt) pred) rights
      in
      join schema pl pr ~expand:(fun rights ->
          let matches = matches rights in
          fun lt -> Eval.combine kind ~null_right lt (matches lt))
  | Logical.Struct_join { kind = Logical.Inner; axis; lpath; rpath; _ }, [ pl; pr ]
    when top_col pl.schema lpath <> None && top_col pr.schema rpath <> None ->
      stack_tree_join schema axis (pl, lpath) (pr, rpath)
  | Logical.Struct_join { kind; axis; lpath; rpath; _ }, [ pl; pr ] ->
      let null_right = Rel.null_tuple pr.schema in
      join schema pl pr ~expand:(fun rights ->
          Eval.struct_expand kind pl.schema lpath ~null_right
            (Eval.build_matcher axis pr.schema rpath rights))
  | Logical.Extract { src; steps; mode; kind; _ }, [ p ] ->
      let extract = Eval.extract p.schema ~src ~steps ~mode kind in
      stream ?order:p.order (fun () -> concat_map_cursor extract (p.open_ ()))
  | Logical.Derive { src; levels; _ }, [ p ] ->
      stream ?order:p.order (fun () ->
          map_cursor (Eval.derive p.schema ~src ~levels) (p.open_ ()))
  | Logical.Nest _, [ p ] -> stream (fun () -> of_list [ [| Rel.N (drain (p.open_ ())) |] ])
  | Logical.Unnest (path, _), [ p ] ->
      let unnest = Eval.unnest p.schema path in
      stream (fun () -> concat_map_cursor unnest (p.open_ ()))
  | Logical.Xml (template, _), [ p ] ->
      let expand = Eval.stage_template p.schema template in
      stream (fun () ->
          let buf = Buffer.create 256 in
          map_cursor
            (fun t ->
              Buffer.clear buf;
              expand buf t;
              [| Rel.A (Value.Str (Buffer.contents buf)) |])
            (p.open_ ()))
  | _ -> invalid_arg "Physical: operator compiled with the wrong number of inputs"

(* --- Per-query resource budgets ------------------------------------------- *)

type budget_dimension = Deadline | Tuples | Steps

type deadline = { clock : unit -> float; at : float }

type budget = {
  deadline : deadline option;
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
  timed : bool;
  children : op_stats list;
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

(* Compile bottom-up, each plan node exactly once: its inputs first, in
   {!Logical.inputs} order, then the operator over them. Every node gets
   its stats node here, and [wrap] may instrument its cursor with it. *)
let rec compile_node env ~timed ~wrap plan =
  let compiled = List.map (compile_node env ~timed ~wrap) (Logical.inputs plan) in
  let inputs = List.map fst compiled in
  let p =
    match plan with
    | Logical.Scan name -> scan env name
    | _ ->
        let schema = Logical.output_schema plan (List.map (fun p -> p.schema) inputs) in
        operator plan schema inputs
  in
  let st =
    { op = op_name plan; tuples = 0; nexts = 0; elapsed = 0.0; timed;
      children = List.map snd compiled }
  in
  (wrap st p, st)

let compile env plan = fst (compile_node env ~timed:false ~wrap:(fun _ p -> p) plan)

let run env plan =
  let p = compile env plan in
  Rel.make p.schema (drain (p.open_ ()))

(* A budget's step charge: every cursor step counts against [max_steps],
   and the deadline's own clock is read on the first step and every 16th
   after, so a deadline costs one clock read per 16 cursor steps. *)
let charge b =
  b.steps <- b.steps + 1;
  (match b.max_steps with
  | Some m when b.steps > m ->
      raise (Over_budget { dimension = Steps; limit = float_of_int m })
  | _ -> ());
  match b.deadline with
  | Some d when b.steps land 15 = 1 && d.clock () > d.at ->
      raise (Over_budget { dimension = Deadline; limit = d.at })
  | _ -> ()

let compile_instrumented ?clock ?budget env plan =
  (* Every compiled operator's cursor counts next() calls and tuples
     produced into its stats node; with [clock] it also accumulates the
     time spent in the cursor (inclusive of its inputs, since a parent's
     next() pulls on its children), and with [budget] each step is
     charged against it first. *)
  let count st (c : cursor) : cursor =
   fun () ->
    let r = c () in
    st.nexts <- st.nexts + 1;
    (match r with Some _ -> st.tuples <- st.tuples + 1 | None -> ());
    r
  in
  let time st (c : cursor) : cursor =
    match clock with
    | None -> c
    | Some clock ->
        fun () ->
          let t0 = clock () in
          let r = c () in
          st.elapsed <- st.elapsed +. (clock () -. t0);
          r
  in
  let charged (c : cursor) : cursor =
    match budget with
    | None -> c
    | Some b ->
        fun () ->
          charge b;
          c ()
  in
  let wrap st p =
    { p with open_ = (fun () -> charged (count st (time st (p.open_ ())))) }
  in
  compile_node env ~timed:(clock <> None) ~wrap plan

type metrics = {
  m_tuples : Xobs.Metrics.counter;
  m_nexts : Xobs.Metrics.counter;
  m_operators : Xobs.Metrics.counter;
  m_op_seconds : Xobs.Metrics.histogram;
}

let metrics reg =
  { m_tuples =
      Xobs.Metrics.counter reg "physical_tuples_total"
        ~help:"tuples produced, summed over all operators";
    m_nexts =
      Xobs.Metrics.counter reg "physical_nexts_total"
        ~help:"cursor next() calls, summed over all operators";
    m_operators =
      Xobs.Metrics.counter reg "physical_operators_total"
        ~help:"physical operator instances executed";
    m_op_seconds =
      Xobs.Metrics.histogram reg "physical_op_seconds"
        ~help:"per-operator inclusive cursor time, observed on timed (traced) runs only" }

(* Fold a finished stats tree into the resolved series: the totals across
   operators, plus one latency observation per operator node when the
   run was timed. *)
let record_stats m stats =
  let tuples = ref 0 and nexts = ref 0 and ops = ref 0 in
  let rec go (st : op_stats) =
    tuples := !tuples + st.tuples;
    nexts := !nexts + st.nexts;
    incr ops;
    if st.timed then Xobs.Metrics.observe m.m_op_seconds st.elapsed;
    List.iter go st.children
  in
  go stats;
  Xobs.Metrics.add m.m_tuples !tuples;
  Xobs.Metrics.add m.m_nexts !nexts;
  Xobs.Metrics.add m.m_operators !ops

let run_instrumented ?clock ?budget ?metrics env plan =
  let p, stats = compile_instrumented ?clock ?budget env plan in
  let finish rel =
    (match metrics with Some m -> record_stats m stats | None -> ());
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
