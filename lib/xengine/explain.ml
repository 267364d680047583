module Pattern = Xam.Pattern
module Logical = Xalgebra.Logical
module Physical = Xalgebra.Physical
module Json = Xobs.Json

type t = {
  query : Pattern.t;
  views_used : string list;
  plan : Logical.t;
  cost : float;
  candidates : int;
  cache_hit : bool;
  from_cache : bool;
  rewrite_ms : float;
  planned_ms : float;
  exec_ms : float;
  stats : Physical.op_stats;
  degraded : bool;
  quarantined : string list;
  partitions_scanned : int;
  partitions_pruned : int;
}

(* An untimed operator shows no time at all rather than a measured-looking
   zero. *)
let rec pp_stats ppf ~indent (st : Physical.op_stats) =
  Format.fprintf ppf "%s%-*s %8d tuples %8d next() %s@," indent
    (max 1 (34 - String.length indent))
    st.Physical.op st.Physical.tuples st.Physical.nexts
    (if st.Physical.timed then Printf.sprintf "%9.3f ms" (st.Physical.elapsed *. 1000.0)
     else "  untimed");
  List.iter (pp_stats ppf ~indent:(indent ^ "  ")) st.Physical.children

let pp ppf e =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "rewriting: via %s  (cost %.1f, %d candidate%s, plan cache %s)@,"
    (match e.views_used with [] -> "(no views)" | vs -> String.concat ", " vs)
    e.cost e.candidates
    (if e.candidates = 1 then "" else "s")
    (if e.cache_hit then "HIT" else "MISS");
  if e.degraded then
    Format.fprintf ppf "degraded: re-planned around quarantined module%s %s@,"
      (if List.length e.quarantined = 1 then "" else "s")
      (match e.quarantined with [] -> "(none)" | qs -> String.concat ", " qs);
  Format.fprintf ppf
    "timings: rewrite %.2f ms (planned %.2f ms%s), execute %.2f ms@,"
    e.rewrite_ms e.planned_ms
    (if e.from_cache then ", recalled from cache" else "")
    e.exec_ms;
  if e.partitions_scanned + e.partitions_pruned > 0 then
    Format.fprintf ppf "partitions: %d scanned, %d pruned@," e.partitions_scanned
      e.partitions_pruned;
  Format.fprintf ppf "operators:@,";
  pp_stats ppf ~indent:"  " e.stats;
  Format.fprintf ppf "@]"

let to_string e = Format.asprintf "%a" pp e

(* --- JSON ------------------------------------------------------------- *)

(* The machine-readable EXPLAIN. The query pattern and logical plan are
   serialized as their pretty-printed text (they have no JSON-native form
   and consumers diff them as opaque strings); everything else round-trips
   structurally, which is what [of_json] decodes into a [summary]. *)

type summary = {
  s_query : string;
  s_views_used : string list;
  s_plan : string;
  s_cost : float option;
  s_candidates : int;
  s_cache_hit : bool;
  s_from_cache : bool;
  s_rewrite_ms : float;
  s_planned_ms : float;
  s_exec_ms : float;
  s_stats : Physical.op_stats;
  s_degraded : bool;
  s_quarantined : string list;
  s_partitions_scanned : int;
  s_partitions_pruned : int;
}

let summarize e =
  { s_query = Format.asprintf "%a" Pattern.pp e.query;
    s_views_used = e.views_used;
    s_plan = Format.asprintf "%a" Logical.pp e.plan;
    s_cost = (if Float.is_nan e.cost then None else Some e.cost);
    s_candidates = e.candidates;
    s_cache_hit = e.cache_hit;
    s_from_cache = e.from_cache;
    s_rewrite_ms = e.rewrite_ms;
    s_planned_ms = e.planned_ms;
    s_exec_ms = e.exec_ms;
    s_stats = e.stats;
    s_degraded = e.degraded;
    s_quarantined = e.quarantined;
    s_partitions_scanned = e.partitions_scanned;
    s_partitions_pruned = e.partitions_pruned }

let rec stats_to_json (st : Physical.op_stats) =
  Json.Obj
    [ ("op", Json.Str st.Physical.op);
      ("tuples", Json.Num (float_of_int st.Physical.tuples));
      ("nexts", Json.Num (float_of_int st.Physical.nexts));
      ("elapsed_s", if st.Physical.timed then Json.Num st.Physical.elapsed else Json.Null);
      ("children", Json.Arr (List.map stats_to_json st.Physical.children)) ]

let summary_to_json s =
  Json.Obj
    [ ("query", Json.Str s.s_query);
      ("views_used", Json.Arr (List.map (fun v -> Json.Str v) s.s_views_used));
      ("plan", Json.Str s.s_plan);
      ("cost", (match s.s_cost with Some c -> Json.Num c | None -> Json.Null));
      ("candidates", Json.Num (float_of_int s.s_candidates));
      ("cache_hit", Json.Bool s.s_cache_hit);
      ("from_cache", Json.Bool s.s_from_cache);
      ("rewrite_ms", Json.Num s.s_rewrite_ms);
      ("planned_ms", Json.Num s.s_planned_ms);
      ("exec_ms", Json.Num s.s_exec_ms);
      ("degraded", Json.Bool s.s_degraded);
      ("quarantined", Json.Arr (List.map (fun q -> Json.Str q) s.s_quarantined));
      ("partitions_scanned", Json.Num (float_of_int s.s_partitions_scanned));
      ("partitions_pruned", Json.Num (float_of_int s.s_partitions_pruned));
      ("stats", stats_to_json s.s_stats) ]

let to_json e = summary_to_json (summarize e)
let to_json_string e = Json.to_string (to_json e)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name decode j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match decode v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let string_list j =
  Option.bind (Json.to_list j) (fun l ->
      let ss = List.filter_map Json.to_str l in
      if List.length ss = List.length l then Some ss else None)

let rec stats_of_json j =
  let* op = field "op" Json.to_str j in
  let* tuples = field "tuples" Json.to_int j in
  let* nexts = field "nexts" Json.to_int j in
  let* elapsed =
    match Json.member "elapsed_s" j with
    | Some Json.Null -> Ok None
    | _ -> Result.map Option.some (field "elapsed_s" Json.to_float j)
  in
  let* kids = field "children" Json.to_list j in
  let rec decode_kids acc = function
    | [] -> Ok (List.rev acc)
    | k :: rest ->
        let* st = stats_of_json k in
        decode_kids (st :: acc) rest
  in
  let* children = decode_kids [] kids in
  Ok
    { Physical.op; tuples; nexts; elapsed = Option.value elapsed ~default:0.0;
      timed = elapsed <> None; children }

let of_json j =
  let* s_query = field "query" Json.to_str j in
  let* s_views_used = field "views_used" string_list j in
  let* s_plan = field "plan" Json.to_str j in
  let* s_cost =
    match Json.member "cost" j with
    | Some Json.Null | None -> Ok None
    | Some v -> (
        match Json.to_float v with
        | Some c -> Ok (Some c)
        | None -> Error "field \"cost\" has the wrong type")
  in
  let* s_candidates = field "candidates" Json.to_int j in
  let* s_cache_hit = field "cache_hit" Json.to_bool j in
  let* s_from_cache =
    (* EXPLAIN JSON persisted before [from_cache] existed (JSONL archives,
       CI artifacts) lacks the field; those versions reported recalled
       plans via [cache_hit] alone, so that is the faithful default. *)
    match Json.member "from_cache" j with
    | None -> Ok s_cache_hit
    | Some v -> (
        match Json.to_bool v with
        | Some b -> Ok b
        | None -> Error "field \"from_cache\" has the wrong type")
  in
  let* s_rewrite_ms = field "rewrite_ms" Json.to_float j in
  let* s_planned_ms = field "planned_ms" Json.to_float j in
  let* s_exec_ms = field "exec_ms" Json.to_float j in
  let* s_degraded = field "degraded" Json.to_bool j in
  let* s_quarantined = field "quarantined" string_list j in
  let* s_stats =
    match Json.member "stats" j with
    | None -> Error "missing field \"stats\""
    | Some v -> stats_of_json v
  in
  (* EXPLAIN JSON persisted before partition pruning existed lacks the
     counts; those versions scanned whole extents, which the partition
     vocabulary cannot express, so 0/0 ("nothing to report") is the
     faithful default. *)
  let optional_int name =
    match Json.member name j with
    | None -> Ok 0
    | Some v -> (
        match Json.to_int v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "field %S has the wrong type" name))
  in
  let* s_partitions_scanned = optional_int "partitions_scanned" in
  let* s_partitions_pruned = optional_int "partitions_pruned" in
  Ok
    { s_query; s_views_used; s_plan; s_cost; s_candidates; s_cache_hit;
      s_from_cache; s_rewrite_ms; s_planned_ms; s_exec_ms; s_stats; s_degraded;
      s_quarantined; s_partitions_scanned; s_partitions_pruned }

let of_json_string str =
  match Json.of_string str with Ok j -> of_json j | Error e -> Error e
