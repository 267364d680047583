(* The repository benchmark: one workload per process, fixed work per round,
   rounds repeated until the measuring time is spent, every answer checked.

     xbench.exe --workload serve-mix|write-mix --seed N --seconds S --trace 0|1

   Both workloads run the same operation kinds (WAL-synced apply batches,
   XQuery reads, a checkpoint and a recovery per round), so every metric is
   measured on each; they differ in the transport and the read/write ratio.
   --trace 0 prints the end-to-end metrics; --trace 1 additionally replays a
   sample of the workload stage by stage, calling each layer's public entry
   point in the order the engine does, and prints the per-layer metrics.
   The last line of standard output is the JSON result; facts about the run
   go to the lines before it. NOTES.md in this directory explains every
   choice made here. *)

module Engine = Xengine.Engine
module Xerror = Xengine.Xerror
module S = Xsummary.Summary
module Rel = Xalgebra.Rel
module Physical = Xalgebra.Physical
module Store = Xstorage.Store
module Pattern = Xam.Pattern
module Wal = Xwal.Wal
module Snapshot = Xpersist.Snapshot
module Doc = Xdm.Doc

let now = Unix.gettimeofday

(* CPU time of the whole process, every thread: user plus system. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ CLI *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;  (** scratch files and span dumps, relative to the checkout *)
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "xbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    out = "perfbench-out" }

(* ------------------------------------------------------------- helpers *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("xbench: " ^ s); exit 2) fmt
let fact fmt = Printf.printf (fmt ^^ "\n%!")

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size p = (Unix.stat p).Unix.st_size

let dir_bytes d =
  if Sys.file_exists d then
    Array.fold_left (fun acc f -> acc + file_size (Filename.concat d f)) 0 (Sys.readdir d)
  else 0

let sorted samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array. *)
let pct a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = pct (sorted l) 0.5
let sum = List.fold_left ( +. ) 0.0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* A timed phase starts from a collected heap, so the garbage the set-up or
   the previous phase left behind is not charged to it. *)
let quiesce () = Gc.full_major ()

(* Set-up is timed [n] times, each from a collected heap, and all but the
   last instance torn down; returns the durations and the last instance.
   Workloads time seven set-ups before the measured rounds and six more after
   them, so setup_s, their median, samples the host at two moments. *)
let time_setups n setup teardown =
  let runs =
    List.init n (fun _ ->
        quiesce ();
        let t0 = now () in
        let s = setup () in
        (now () -. t0, s))
  in
  List.iteri (fun i (_, s) -> if i < n - 1 then teardown s) runs;
  (List.map fst runs, snd (List.nth runs (n - 1)))

(* Run whole rounds of fixed work, [round i] for i = 0, 1, ..., while the
   next one is expected to end within [seconds] of the start (at least one
   round); returns how many ran. *)
let run_rounds seconds round =
  let t_end = now () +. seconds in
  let rec go i last =
    if i = 0 || now () +. last <= t_end then begin
      let t0 = now () in
      round i;
      go (i + 1) (now () -. t0)
    end
    else i
  in
  go 0 0.0

(* ------------------------------------------------------ result metrics *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metrics : metric list ref = ref []
let emit name unit value = metrics := { m_name = name; m_value = value; m_unit = unit } :: !metrics

let emit_setup before setup teardown =
  let after, last = time_setups 6 setup teardown in
  teardown last;
  emit "setup_s" "s" (median (before @ after))

let attempted = ref 0
let failed = ref 0

(* A correctness gate on an operation already counted: a mismatch counts it
   as failed and makes the run exit non-zero. *)
let gate ok what =
  if not ok then begin
    incr failed;
    if !failed <= 3 then prerr_endline ("xbench: check failed: " ^ what)
  end

(* The median of per-block medians of samples in time order, in ms: blocks
   of [block] consecutive samples (a whole number of rounds, so every block
   does the same work), or the whole run's median when it holds fewer than
   three blocks. A slow spell of the host then moves only the blocks it
   covers. The per-block figures are printed as a fact. *)
let block_median_ms ~block what samples =
  let samples = Array.of_list (List.rev samples) in
  let n = Array.length samples in
  let med a =
    let a = Array.copy a in
    Array.sort compare a;
    1000.0 *. pct a 0.5
  in
  if n = 0 then nan
  else begin
    let fs =
      if n / block < 3 then [ med samples ]
      else List.init (n / block) (fun i -> med (Array.sub samples (i * block) block))
    in
    fact "%s: median per block of %d, in ms: %s" what block
      (String.concat " " (List.map (Printf.sprintf "%.2f") fs));
    median fs
  end

(* Count one operation; [ok] is the outcome of its correctness gate. *)
let check ok what = incr attempted; gate ok what

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let ms =
    List.rev !metrics
    |> List.map (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (json_float m.m_value) m.m_unit)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0) !attempted !failed (String.concat ", " ms)

(* ------------------------------------------------------------- spans *)

(* The traced run's own span recorder: (name, start, end, parent, op id),
   kept in memory and written out as JSON lines at exit. *)
type span = {
  sid : int;
  sname : string;
  start : float;
  mutable stop : float;
  parent : int;
  op : int;
}

let spans : span list ref = ref []
let span_stack : int list ref = ref []
let span_seq = ref 0
let cur_op = ref (-1)

let in_span name f =
  let sid = !span_seq in
  incr span_seq;
  let parent = match !span_stack with p :: _ -> p | [] -> -1 in
  let sp = { sid; sname = name; start = now (); stop = nan; parent; op = !cur_op } in
  span_stack := sid :: !span_stack;
  let finish () =
    sp.stop <- now ();
    span_stack := List.tl !span_stack;
    spans := sp :: !spans
  in
  match f () with
  | r -> finish (); r
  | exception e -> finish (); raise e

(* One traced operation: a root span of the operation type's name. *)
let op_seq = ref 0

let traced_op kind f =
  cur_op := !op_seq;
  incr op_seq;
  in_span kind f

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"op\":%d}\n"
        s.sid s.sname s.start s.stop s.parent s.op)
    (List.rev !spans);
  close_out oc

(* Self times per operation: for each root span of [kind], the time spent in
   spans named [layer] below it minus their children's time. Returns
   (root durations, layer -> per-op self-time list). *)
let self_times kind =
  let all = List.rev !spans in
  let child_time = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((try Hashtbl.find child_time s.parent with Not_found -> 0.0) +. (s.stop -. s.start)))
    all;
  let self s = s.stop -. s.start -. (try Hashtbl.find child_time s.sid with Not_found -> 0.0) in
  let roots = List.filter (fun s -> s.parent = -1 && s.sname = kind) all in
  let root_ops = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace root_ops r.op ()) roots;
  let per_op : (string, (int, float) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 && Hashtbl.mem root_ops s.op then begin
        let tbl =
          match Hashtbl.find_opt per_op s.sname with
          | Some t -> t
          | None ->
              let t = Hashtbl.create 64 in
              Hashtbl.replace per_op s.sname t;
              t
        in
        Hashtbl.replace tbl s.op ((try Hashtbl.find tbl s.op with Not_found -> 0.0) +. self s)
      end)
    all;
  let layers =
    Hashtbl.fold
      (fun layer tbl acc ->
        (* ops that never entered the layer spent 0 in it *)
        let vals = List.map (fun r -> try Hashtbl.find tbl r.op with Not_found -> 0.0) roots in
        (layer, vals) :: acc)
      per_op []
  in
  (List.map (fun r -> r.stop -. r.start) roots, List.sort compare layers)

(* Per-layer self times of one operation type, as the mean per operation
   (means add up, so what the layers leave unattributed is exact), plus the
   tracing overhead (traced median over untraced median, minus one) and the
   unattributed share (one minus the layers' summed mean self time over the
   untraced mean). *)
let emit_layers kind ~untraced ~layer_names =
  let roots, layers = self_times kind in
  if roots <> [] && untraced <> [] then begin
    let mean l = sum l /. float_of_int (List.length l) in
    let attributed = ref 0.0 in
    List.iter
      (fun (layer, vals) ->
        let m = mean vals in
        attributed := !attributed +. m;
        match List.assoc_opt layer layer_names with
        | Some metric -> emit metric "ms" (1000.0 *. m)
        | None -> ())
      layers;
    emit (Printf.sprintf "trace.%s_overhead_share" kind) "ratio"
      ((median roots /. median untraced) -. 1.0);
    emit (Printf.sprintf "trace.%s_unattributed_share" kind) "ratio"
      (1.0 -. (!attributed /. mean untraced))
  end

(* ------------------------------------------------------------- inputs *)

(* Bib documents of 600 books and 200 theses (~6.2k nodes): the shape the
   repository's serving and recovery experiments use, big enough that a
   read is milliseconds, small enough that a 4-op apply stays ~40 ms. *)
let books = 600
let theses = 200
let make_doc seed = Xworkload.Gen_bib.generate_doc ~seed ~books ~theses ()
let surnames = [| "Abiteboul"; "Suciu"; "Buneman"; "Vianu"; "Widom"; "Smith"; "Halevy";
                  "Manolescu"; "Benzaken"; "Arion"; "Ullman"; "Garcia-Molina" |]

(* The XQuery template set: FLWR blocks, two nested blocks, a path predicate
   and where-clause predicates on attributes and element values. Each
   template takes a constant drawn from the seed and is instantiated four
   times: 32 queries, well inside the 128-entry plan cache. The predicates
   are equalities on a 1-in-12 surname or inequalities on a 1-in-20 year, so
   the work a query does barely depends on which constant the seed drew (a
   cross-root value join filtered on one year was dropped for that reason:
   its cost followed the binomial count of theses from that year). *)
let templates seed =
  let rng = Random.State.make [| seed; 0x7e3 |] in
  let year () = 1990 + Random.State.int rng 20 in
  let name () = surnames.(Random.State.int rng (Array.length surnames)) in
  List.concat
    (List.init 4 (fun _ ->
         let y = Array.init 5 (fun _ -> year ()) in
         let n = Array.init 3 (fun _ -> name ()) in
         [ Printf.sprintf {|for $b in doc("bib")//book where $b/@year != %d return <t>{$b/title/text()}</t>|} y.(0);
           Printf.sprintf {|for $b in doc("bib")//book where $b/@year = %d return <y>{$b/title/text()}</y>|} y.(1);
           Printf.sprintf {|for $b in doc("bib")//book where $b/@year != %d return <b>{$b/title/text()}{for $a in $b/author return <a>{$a/text()}</a>}</b>|} y.(2);
           Printf.sprintf {|for $b in doc("bib")/library/book where $b/author = "%s" return <s>{$b/title/text()}</s>|} n.(0);
           Printf.sprintf {|for $p in doc("bib")//phdthesis where $p/@year != %d return <p>{$p/@year}{$p/title/text()}</p>|} y.(3);
           Printf.sprintf {|for $b in doc("bib")//book[author = "%s"] return <w>{$b/title/text()}</w>|} n.(1);
           Printf.sprintf {|for $p in doc("bib")//phdthesis where $p/author != "%s" return <a>{$p/author/text()}</a>|} n.(2);
           Printf.sprintf {|for $p in doc("bib")//phdthesis where $p/@year != %d return <p>{$p/title/text()}{for $a in $p/author return <a>{$a/text()}</a>}</p>|} y.(4) ]))

(* --------------------------------------------- stage-by-stage replays *)

(* Replicates the engine's answer-schema normalization: a rewritten extent
   comes back with provider-prefixed columns; rename positionally to the
   pattern's own attribute columns when the shapes line up. *)
let normalize_schema pattern (rel : Rel.t) =
  let expected =
    List.concat_map
      (fun (n : Pattern.node) ->
        List.map (fun a -> Pattern.attr_col n.Pattern.nid a) (Pattern.stored_attrs n))
      (Pattern.return_nodes pattern)
  in
  if List.length expected = List.length rel.Rel.schema
     && List.for_all (fun (col : Rel.column) -> col.Rel.ctype = Rel.Atom) rel.Rel.schema
  then { rel with Rel.schema = List.map Rel.atom expected }
  else rel

let rec cursor_steps (s : Physical.op_stats) =
  List.fold_left (fun acc c -> acc + cursor_steps c) s.Physical.nexts s.Physical.children

(* The replay's own copy of the engine state a read needs. *)
type rstate = {
  mutable r_doc : Doc.t;
  mutable r_catalog : Store.catalog;
  mutable r_gen : int;
  r_cache : (string, (Xam.Rewrite.rewriting * float) option) Hashtbl.t;
}

type counts = {
  mutable hits : int;
  mutable misses : int;
  mutable fallbacks : int;
  mutable patterns : int;
  mutable steps : int;
  mutable kept : int;
  mutable rebuilt : int;
  mutable wal_bytes : int;
  mutable user_bytes : int;
  mutable exec_ops : int;
}

let counts () =
  { hits = 0; misses = 0; fallbacks = 0; patterns = 0; steps = 0; kept = 0; rebuilt = 0;
    wal_bytes = 0; user_bytes = 0; exec_ops = 0 }

let rstate doc catalog = { r_doc = doc; r_catalog = catalog; r_gen = 0; r_cache = Hashtbl.create 256 }

(* plan-cache probe, then rewrite + cost on a miss *)
let replay_plan st cn pat =
  let summary = st.r_catalog.Store.summary in
  let key = in_span "xam.cache_key" (fun () -> Xam.Canonical.cache_key summary pat) in
  let key = Printf.sprintf "%s@%d" key st.r_gen in
  cn.patterns <- cn.patterns + 1;
  match Hashtbl.find_opt st.r_cache key with
  | Some c -> cn.hits <- cn.hits + 1; c
  | None ->
      cn.misses <- cn.misses + 1;
      let rws =
        in_span "xam.rewrite" (fun () ->
            Xam.Rewrite.rewrite ~constraints:true ~max_views:3 summary ~query:pat
              ~views:(Store.views st.r_catalog))
      in
      let env = Store.env st.r_catalog in
      let c = in_span "xstorage.cost" (fun () -> Xstorage.Cost.choose_with_cost env rws) in
      Hashtbl.replace st.r_cache key c;
      c

(* partition pruning + physical execution of a chosen rewriting *)
let replay_exec st cn pat (r : Xam.Rewrite.rewriting) =
  let cat = st.r_catalog in
  let overrides, _scanned, _pruned =
    in_span "xstorage.prune" (fun () ->
        Store.plan_pruning ~views_used:r.Xam.Rewrite.views_used
          ~parts_of:(fun name ->
            List.find_map
              (fun (m : Store.module_) ->
                if m.Store.name = name then
                  Option.map (fun (p : Store.parts) -> (p.Store.pt_nid, Store.partition_paths p)) m.Store.parts
                else None)
              cat.Store.modules)
          ~scan_paths:r.Xam.Rewrite.scan_paths)
  in
  let base = Store.env cat in
  let env name =
    match List.assoc_opt name overrides with
    | Some allowed -> (
        match List.find_opt (fun (m : Store.module_) -> m.Store.name = name) cat.Store.modules with
        | Some m -> Some (Store.pruned_extent m ~allowed)
        | None -> base name)
    | None -> base name
  in
  let rel, stats =
    in_span "xalgebra.exec" (fun () -> Physical.run_instrumented ~clock:now env r.Xam.Rewrite.plan)
  in
  cn.steps <- cn.steps + cursor_steps stats;
  normalize_schema pat rel

(* An XQuery read, stage by stage: parse, extract, per pattern the plan
   cache probe (rewrite + cost on a miss) and either view execution or the
   base-document fallback, then the tagging plan and serialization. *)
let replay_xquery st cn q =
  let ast = in_span "xquery.parse" (fun () -> Xquery.Parse.query q) in
  let ex = in_span "xquery.extract" (fun () -> Xquery.Extract.extract ast) in
  let bound =
    List.mapi
      (fun i pat ->
        let rel =
          match replay_plan st cn pat with
          | Some (r, _) -> replay_exec st cn pat r
          | None ->
              cn.fallbacks <- cn.fallbacks + 1;
              in_span "xam.embed" (fun () -> Xam.Embed.eval st.r_doc pat)
        in
        (Xquery.Translate.scan_name i, rel))
      ex.Xquery.Extract.patterns
  in
  let env = Xalgebra.Eval.env_of_list bound in
  let rel, stats =
    in_span "xalgebra.tag" (fun () ->
        Physical.run_instrumented ~clock:now env (Xquery.Translate.plan ex))
  in
  cn.steps <- cn.steps + cursor_steps stats;
  in_span "xquery.serialize" (fun () ->
      let buf = Buffer.create 256 in
      List.iter
        (fun tu ->
          match tu.(0) with
          | Rel.A (Xalgebra.Value.Str s) -> Buffer.add_string buf s
          | Rel.A v -> Buffer.add_string buf (Xalgebra.Value.to_display v)
          | Rel.N _ -> ())
        rel.Rel.tuples;
      Buffer.contents buf)

let read_layers =
  [ ("xquery.parse", "xquery.parse_ms"); ("xquery.extract", "xquery.extract_ms");
    ("xam.cache_key", "xam.cache_key_ms"); ("xam.rewrite", "xam.rewrite_ms");
    ("xstorage.cost", "xstorage.cost_ms"); ("xam.embed", "xam.embed_ms");
    ("xalgebra.tag", "xalgebra.tag_ms");
    ("xquery.serialize", "xquery.serialize_ms") ]

let emit_read_counts cn =
  let pats = float_of_int (max 1 cn.patterns) in
  emit "xengine.plan_hit_ratio" "ratio" (float_of_int cn.hits /. pats);
  emit "xengine.fallback_ratio" "ratio" (float_of_int cn.fallbacks /. pats)

(* ------------------------------------------------------------ writes *)

(* The engine's mutation semantics, through the document layer's public
   functions: used to generate each op against the document the previous op
   produced, and by the stage-by-stage apply replay. *)
let mutate doc (op : Engine.mutation) =
  match op with
  | Engine.Insert_subtree { parent; before; xml } ->
      Doc.insert_subtree doc ~parent ?before (Xdm.Xml_tree.parse xml)
  | Engine.Delete_subtree { node } -> Doc.delete_subtree doc node
  | Engine.Update_value { node; value } -> Doc.update_value doc node value

let user_bytes (op : Engine.mutation) =
  match op with
  | Engine.Insert_subtree { xml; _ } -> String.length xml
  | Engine.Delete_subtree _ -> 0
  | Engine.Update_value { value; _ } -> String.length value

(* One apply batch, spread over the document: two value updates (any text or
   attribute node), one delete of a whole entry and one insert of a new entry
   before a random entry. New values and entries follow the generator's own
   distributions (titles of three title words, 1-3 surnames, a year on 80% of
   entries, one thesis per three books), so the document keeps its size and
   content statistics however many rounds run. *)
let title_words = [| "Data"; "Web"; "Queries"; "Trees"; "Patterns"; "Views"; "Storage";
                     "Indexes"; "Semantics"; "Optimization" |]

let mutation_batch rng doc =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let word a = a.(Random.State.int rng (Array.length a)) in
  let year () = string_of_int (1990 + Random.State.int rng 20) in
  let title () =
    Printf.sprintf "%s of %s and %s" (word title_words) (word title_words) (word title_words)
  in
  let update d =
    let valued = ref [] in
    Doc.iter
      (fun h -> match Doc.kind d h with Doc.Text | Doc.Attribute -> valued := h :: !valued | Doc.Element -> ())
      d;
    let h = pick !valued in
    let value =
      if Doc.kind d h = Doc.Attribute then year ()
      else if Doc.label d (Doc.parent d h) = "title" then title ()
      else word surnames
    in
    Engine.Update_value { node = h; value }
  in
  let entries d = Doc.children d (Doc.root d) in
  let delete d = Engine.Delete_subtree { node = pick (entries d) } in
  let insert d =
    let tag = if Random.State.int rng 4 = 0 then "phdthesis" else "book" in
    let attr = if Random.State.float rng 1.0 < 0.8 then Printf.sprintf " year=\"%s\"" (year ()) else "" in
    let authors =
      String.concat ""
        (List.init (1 + Random.State.int rng 3) (fun _ -> "<author>" ^ word surnames ^ "</author>"))
    in
    Engine.Insert_subtree
      { parent = Doc.root d; before = Some (pick (entries d));
        xml = Printf.sprintf "<%s%s><title>%s</title>%s</%s>" tag attr (title ()) authors tag }
  in
  let _, ops =
    List.fold_left
      (fun (d, acc) gen -> let op = gen d in (mutate d op, op :: acc))
      (doc, []) [ update; update; delete; insert ]
  in
  List.rev ops


(* What the untraced run did, in order, for the stage-by-stage replay. *)
type event =
  | E_apply of Engine.mutation list * int * int  (** ops, partitions kept, rebuilt *)
  | E_read of string * string  (** query, answer *)
  | E_checkpoint

(* --------------------------------------------------------- workloads *)

(* The two workloads run the same round through a different transport and
   with a different read/write ratio. After each apply the round reads
   [distinct] queries twice in a row: the first ask re-plans (the apply
   invalidated every cached plan), the second hits the plan cache. *)
type shape = {
  wire : bool;  (** through Xserve on one keep-alive Unix-socket connection, else Engine calls *)
  distinct : int;  (** distinct queries read after each apply, each asked twice *)
}

let shape_of = function
  | "serve-mix" -> { wire = true; distinct = 8 }
  | "write-mix" -> { wire = false; distinct = 2 }
  | w -> fail "unknown workload %S" w

let applies_per_round = 8
let tail_applies = 3
let tenant = "bench"

module Server = Xserve.Server
module Client = Xserve.Client

(* The engine, and when it is served, the in-process server it is
   registered with and the client's connection to it. *)
type conn = { engine : Engine.t; served : (Server.t * Client.t) option }

let status_error (r : Client.reply) = Printf.sprintf "status %d: %s" r.Client.status r.Client.raw

let do_read conn q =
  match conn.served with
  | Some (_, c) -> (
      match Client.query c ~tenant q with
      | Ok r when r.Client.status = 200 -> (
          match Client.output r with
          | Some out -> Ok out
          | None -> Error ("reply without output: " ^ r.Client.raw))
      | Ok r -> Error (status_error r)
      | Error m -> Error ("transport: " ^ m))
  | None -> (
      match Engine.query_string_r conn.engine q with
      | Ok r -> Ok r.Engine.output
      | Error e -> Error (Xerror.to_string e))

(* An apply batch: its final LSN and the partitions it kept and rebuilt. *)
let do_apply conn ops =
  match conn.served with
  | Some (_, c) -> (
      match Client.apply c ~tenant ops with
      | Ok r when r.Client.status = 200 -> (
          let field k =
            Option.bind r.Client.body (fun b -> Option.bind (Xobs.Json.member k b) Xobs.Json.to_int)
          in
          match (field "lsn", field "parts_kept", field "parts_rebuilt") with
          | Some lsn, Some kept, Some rebuilt -> Ok (lsn, kept, rebuilt)
          | _ -> Error ("apply reply without lsn or parts: " ^ r.Client.raw))
      | Ok r -> Error (status_error r)
      | Error m -> Error ("transport: " ^ m))
  | None -> (
      match Engine.apply_batch_r conn.engine ops with
      | Ok rep -> Ok (rep.Engine.ap_lsn, rep.Engine.ap_parts_kept, rep.Engine.ap_parts_rebuilt)
      | Error e -> Error (Xerror.to_string e))

let run_workload o =
  let shape = shape_of o.workload in
  let queries = Array.of_list (templates o.seed) in
  let nq = Array.length queries in
  let reads_per_apply = 2 * shape.distinct in
  let dir = Filename.concat o.out (Printf.sprintf "w%d" (Unix.getpid ())) in
  let snap = Filename.concat dir "state.snap" and waldir = Filename.concat dir "state.wal" in
  let sock = Filename.concat o.out (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  let events = ref [] and recording = ref true in
  let record e = if !recording then events := e :: !events in
  let rng = ref (Random.State.make [| o.seed |]) in
  let napplies = ref 0 in
  let read_samples = ref [] and read_cpu = ref [] and read_alloc = ref [] in
  (* A read is reported as CPU time (client, server and engine threads
     together): over the wire its wall time also holds the host's delays in
     waking each thread, which on a shared host swing by up to 2x between
     runs. Wall times stay the untraced baseline of the traced replay. *)
  let read conn q ~timed =
    let w0 = Gc.minor_words () in
    let c0 = cpu () in
    let t0 = now () in
    let res = do_read conn q in
    let dt = now () -. t0 in
    let dc = cpu () -. c0 in
    let w = Gc.minor_words () -. w0 in
    if timed then begin
      read_samples := dt :: !read_samples;
      read_cpu := dc :: !read_cpu;
      if !recording then read_alloc := w :: !read_alloc
    end;
    match res with
    | Ok out when timed ->
        (* oracle: extraction-based evaluation over the current document,
           independent of the engine's catalog, plan cache and write path *)
        let doc = Option.get (Engine.document conn.engine) in
        check (out = Xquery.Translate.eval_string doc q)
          ("read after apply differs from evaluation over the current document: " ^ q);
        record (E_read (q, out))
    | Ok out -> record (E_read (q, out))
    | Error m -> check false ("read failed: " ^ m)
  in
  let apply_samples = ref [] and apply_alloc = ref [] in
  let apply conn ~timed =
    let ops = mutation_batch !rng (Option.get (Engine.document conn.engine)) in
    let lsn0 = Engine.lsn conn.engine in
    incr napplies;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let res = do_apply conn ops in
    let dt = now () -. t0 in
    let w = Gc.minor_words () -. w0 in
    if timed then begin
      apply_samples := dt :: !apply_samples;
      if !recording then apply_alloc := w :: !apply_alloc
    end;
    match res with
    | Ok (lsn, kept, rebuilt) ->
        check (lsn = lsn0 + List.length ops && Engine.lsn conn.engine = lsn) "apply landed at the wrong LSN";
        record (E_apply (ops, kept, rebuilt))
    | Error m -> check false ("apply failed: " ^ m)
  in
  let ckpt_samples = ref [] in
  (* taken in process in both workloads: the server has no checkpoint request *)
  let checkpoint conn =
    let t0 = now () in
    let res = Engine.checkpoint_r conn.engine snap in
    ckpt_samples := (now () -. t0) :: !ckpt_samples;
    match res with
    | Ok _ -> check true ""; record E_checkpoint
    | Error err -> check false ("checkpoint failed: " ^ Xerror.to_string err)
  in
  let setup () =
    rm_rf dir;
    mkdir_p dir;
    events := [];
    rng := Random.State.make [| o.seed |];
    napplies := 0;
    let doc = make_doc o.seed in
    let e = Engine.of_doc doc (Xstorage.Models.path_partitioned (S.of_doc doc)) in
    (match Engine.attach_wal_r ~sync:true e waldir with
    | Ok _ -> ()
    | Error err -> fail "attach_wal: %s" (Xerror.to_string err));
    let served =
      if shape.wire then begin
        let srv =
          Server.create
            { (Server.default_config (Xserve.Proto.Unix_sock sock)) with Server.domains = 1 }
            []
        in
        Server.add_engine srv tenant e;
        Server.start srv;
        match Client.connect (Server.bound_addr srv) with
        | Ok c -> Some (srv, c)
        | Error m -> Server.stop srv; fail "connect: %s" m
      end
      else None
    in
    let conn = { engine = e; served } in
    (* warm-up: one apply and every query once, then the first checkpoint *)
    apply conn ~timed:false;
    Array.iter (fun q -> read conn q ~timed:false) queries;
    (match Engine.checkpoint_r e snap with
    | Ok _ -> ()
    | Error err -> fail "initial checkpoint: %s" (Xerror.to_string err));
    conn
  in
  let teardown conn =
    Option.iter (fun (srv, c) -> Client.close c; Server.stop srv) conn.served;
    Engine.detach_wal conn.engine
  in
  let before, conn = time_setups 7 setup teardown in
  let e = conn.engine in
  (* only the last set-up's operations count *)
  attempted := 0;
  failed := 0;
  let doc0 = make_doc o.seed in
  fact "document: %d nodes; round: %d applies of 2 updates + 1 delete + 1 insert (WAL sync on), \
        each followed by %d reads (%d distinct queries asked twice), %s; recovery after apply %d; \
        checkpoint at the end"
    (Doc.size doc0) applies_per_round reads_per_apply shape.distinct
    (if shape.wire then "over one keep-alive Unix-socket connection to an in-process Xserve.Server"
     else "as Engine calls in process")
    tail_applies;
  let xml d = Xdm.Xml_tree.serialize (Doc.to_tree d (Doc.root d)) in
  let copy_file src dst =
    let data = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)
  in
  let recover_samples = ref [] and space_amp = ref nan in
  (* Recovery, once per round, from the snapshot and WAL as they stand (3
     applies = 12 records past the last checkpoint): the snapshot is
     hard-linked (a checkpoint renames a new file over it, never rewrites it)
     and the WAL copied, so the live engine keeps its writer and the run
     writes no more to the shared disk than the workload does. Spreading
     recoveries over the run keeps recovery_s from hanging on the host's
     speed in one moment. The recovered document must equal the live one,
     and a rotating four of the queries must answer on it as on the live
     document. *)
  let recover_copy round =
    let rdir = Filename.concat dir "recover" in
    let rsnap = Filename.concat rdir "state.snap" and rwal = Filename.concat rdir "state.wal" in
    rm_rf rdir;
    mkdir_p rwal;
    Unix.link snap rsnap;
    Array.iter (fun f -> copy_file (Filename.concat waldir f) (Filename.concat rwal f)) (Sys.readdir waldir);
    let live_doc = Option.get (Engine.document e) in
    if Float.is_nan !space_amp then
      space_amp := float_of_int (file_size snap + dir_bytes waldir) /. float_of_int (String.length (xml live_doc));
    quiesce ();
    let t0 = now () in
    let r = Engine.of_snapshot_r rsnap in
    let replayed = Result.bind r (fun r -> Engine.attach_wal_r ~sync:true r rwal) in
    recover_samples := (now () -. t0) :: !recover_samples;
    (match (r, replayed) with
    | Ok r, Ok n ->
        check
          (n = tail_applies * 4 && Engine.lsn r = Engine.lsn e
          && Option.map xml (Engine.document r) = Some (xml live_doc))
          "recovered state differs from the live one";
        for j = 0 to 3 do
          let q = queries.(((4 * round) + j) mod nq) in
          gate
            (Result.map (fun x -> x.Engine.output) (Engine.query_string_r r q)
            = Ok (Xquery.Translate.eval_string live_doc q))
            "recovered answer differs from the live one"
        done;
        Engine.detach_wal r
    | Error err, _ | _, Error err -> check false ("recovery failed: " ^ Xerror.to_string err));
    quiesce ()
  in
  let nrounds = ref 0 in
  let round _ =
    recording := !nrounds = 0;
    for k = 1 to applies_per_round do
      apply conn ~timed:true;
      let base = !napplies * shape.distinct in
      for j = 0 to reads_per_apply - 1 do
        read conn queries.((base + (j mod shape.distinct)) mod nq) ~timed:true
      done;
      if k = tail_applies then recover_copy !nrounds
    done;
    checkpoint conn;
    incr nrounds
  in
  (* Warm-up rounds, whose timings are dropped: after a pause this host runs
     up to 1.5x faster for the first ten seconds or so of sustained load, so
     a run times only the sustained state. The first of them is the round
     the traced run replays and counts allocations on. *)
  let warmup = Float.min 10.0 (o.seconds /. 2.0) in
  quiesce ();
  let warm = run_rounds warmup round in
  List.iter (fun l -> l := []) [ read_samples; read_cpu; apply_samples; recover_samples ];
  ckpt_samples := [];
  quiesce ();
  let rounds = run_rounds o.seconds round in
  recording := false;
  fact "warm-up: %d rounds in %.0f s; timed: %d rounds of %d applies, %d reads, 1 recovery, 1 checkpoint"
    warm warmup rounds applies_per_round (applies_per_round * reads_per_apply);
  (* blocks of whole rounds holding at least 128 reads and 32 applies *)
  let reads_per_round = applies_per_round * reads_per_apply in
  let rblock = reads_per_round * max 1 (128 / reads_per_round) and ablock = 4 * applies_per_round in
  ignore (block_median_ms ~block:rblock "read wall time" !read_samples);
  emit "read_cpu_ms" "ms" (block_median_ms ~block:rblock "read CPU time" !read_cpu);
  (* applies and recoveries are wall time: they wait on fsync, which CPU
     time would not show *)
  emit "apply_ms" "ms" (block_median_ms ~block:ablock "apply wall time" !apply_samples);
  emit "recovery_s" "s" (median !recover_samples);
  emit "space_amp" "ratio" !space_amp;
  (* the run ends with recovery from the live files themselves: every
     recovered answer must equal the live engine's *)
  for _ = 1 to tail_applies do apply conn ~timed:false done;
  let live = Array.map (do_read conn) queries in
  teardown conn;
  (match Result.bind (Engine.of_snapshot_r snap) (fun r -> Result.map (fun n -> (r, n)) (Engine.attach_wal_r ~sync:true r waldir)) with
  | Ok (r, n) ->
      check (n = tail_applies * 4 && Engine.lsn r = Engine.lsn e) "recovery replayed the wrong tail";
      Array.iteri
        (fun i q ->
          gate
            (match (Engine.query_string_r r q, live.(i)) with
            | Ok x, Ok y -> x.Engine.output = y
            | _ -> false)
            "recovered answer differs from the live one")
        queries;
      Engine.detach_wal r
  | Error err -> check false ("recovery failed: " ^ Xerror.to_string err));
  if o.trace then begin
    let mean l = sum l /. float_of_int (List.length l) in
    emit "alloc_words_per_apply" "words" (mean !apply_alloc);
    emit "alloc_words_per_read" "words" (mean !read_alloc);
    (* stage-by-stage replay of the last set-up and the first round *)
    let rdir = Filename.concat dir "replay" in
    rm_rf rdir;
    mkdir_p rdir;
    let rsnap = Filename.concat rdir "state.snap" and rwal = Filename.concat rdir "state.wal" in
    let st = rstate doc0 (Store.catalog_of doc0 (Xstorage.Models.path_partitioned (S.of_doc doc0))) in
    let w =
      match Wal.Writer.open_ ~sync:true ~dir:rwal ~lsn:0 () with
      | Ok w -> w
      | Error m -> fail "replay WAL: %s" m
    in
    let cn = counts () and acn = counts () in
    let lsn = ref 0 and nreads = ref 0 in
    spans := [];
    quiesce ();
    let replay_apply ops kept_by_engine rebuilt_by_engine =
      traced_op "apply" (fun () ->
          let doc = List.fold_left (fun d op -> in_span "xdm.mutate" (fun () -> mutate d op)) st.r_doc ops in
          let summary, phi = in_span "xsummary.build" (fun () -> S.build doc) in
          let prev = st.r_catalog in
          let built =
            List.map
              (fun (m : Store.module_) ->
                let fresh = in_span "xstorage.materialize" (fun () -> Store.materialize doc m.Store.name m.Store.xam) in
                in_span "xstorage.partition" (fun () -> Store.partitioned ~phi doc fresh))
              prev.Store.modules
          in
          gate (in_span "xstorage.validate" (fun () -> Store.validate { Store.summary; modules = built }) = Ok ())
            "replayed catalog does not validate";
          let kept = ref 0 and rebuilt = ref 0 in
          let modules =
            List.map2
              (fun p m ->
                let m', (k, r) = in_span "xstorage.splice" (fun () -> Store.spliced ~prev:p m) in
                kept := !kept + k;
                rebuilt := !rebuilt + r;
                m')
              prev.Store.modules built
          in
          (match in_span "xwal.append" (fun () -> Wal.Writer.append_batch w ops) with
          | Ok frames -> acn.wal_bytes <- acn.wal_bytes + List.fold_left (fun a (_, b) -> a + b) 0 frames
          | Error m -> gate false ("replay WAL append: " ^ m));
          acn.user_bytes <- acn.user_bytes + List.fold_left (fun a op -> a + user_bytes op) 0 ops;
          acn.kept <- acn.kept + !kept;
          acn.rebuilt <- acn.rebuilt + !rebuilt;
          acn.exec_ops <- acn.exec_ops + 1;
          gate (!kept = kept_by_engine && !rebuilt = rebuilt_by_engine)
            "replayed splice differs from the engine's";
          st.r_doc <- doc;
          st.r_catalog <- { Store.summary; modules };
          st.r_gen <- st.r_gen + 1;
          lsn := !lsn + List.length ops)
    in
    List.iter
      (function
        | E_apply (ops, kept, rebuilt) -> replay_apply ops kept rebuilt
        | E_read (q, out) ->
            incr nreads;
            gate (traced_op "read" (fun () -> replay_xquery st cn q) = out)
              "stage-by-stage replay differs from the engine"
        | E_checkpoint ->
            traced_op "checkpoint" (fun () ->
                (match in_span "xpersist.save" (fun () -> Snapshot.save ~doc:st.r_doc ~lsn:!lsn rsnap st.r_catalog) with
                | Ok _ -> ()
                | Error m -> gate false ("replay snapshot: " ^ m));
                ignore (in_span "xwal.truncate" (fun () -> Wal.Writer.truncate_upto w !lsn))))
      (List.rev !events);
    (* the tail past the last checkpoint, then recovery stage by stage *)
    Wal.Writer.close w;
    for _ = 1 to 3 do
      traced_op "recover" (fun () ->
          (match in_span "xpersist.load" (fun () -> Snapshot.load_with_lsn rsnap) with
          | Ok _ -> ()
          | Error m -> gate false ("replay snapshot load: " ^ m));
          match in_span "xwal.replay" (fun () -> Wal.read ~dir:rwal) with
          | Ok _ -> ()
          | Error m -> gate false ("replay WAL read: " ^ m))
    done;
    emit_layers "apply" ~untraced:!apply_samples
      ~layer_names:
        [ ("xdm.mutate", "xdm.mutate_ms"); ("xsummary.build", "xsummary.build_ms");
          ("xstorage.materialize", "xstorage.materialize_ms");
          ("xstorage.partition", "xstorage.partition_ms");
          ("xstorage.validate", "xstorage.validate_ms"); ("xstorage.splice", "xstorage.splice_ms");
          ("xwal.append", "xwal.append_ms") ];
    emit_layers "read" ~untraced:!read_samples ~layer_names:read_layers;
    emit_layers "checkpoint" ~untraced:!ckpt_samples
      ~layer_names:[ ("xpersist.save", "xpersist.save_ms"); ("xwal.truncate", "xwal.truncate_ms") ];
    let _, rec_layers = self_times "recover" in
    List.iter
      (fun (layer, vals) ->
        match List.assoc_opt layer [ ("xpersist.load", "xpersist.load_ms"); ("xwal.replay", "xwal.replay_ms") ] with
        | Some m -> emit m "ms" (1000.0 *. median vals)
        | None -> ())
      rec_layers;
    let per v = float_of_int v /. float_of_int (max 1 acn.exec_ops) in
    emit "xstorage.parts_rebuilt" "count" (per acn.rebuilt);
    emit "xstorage.parts_kept" "count" (per acn.kept);
    emit "xwal.bytes_per_user_byte" "ratio" (float_of_int acn.wal_bytes /. float_of_int (max 1 acn.user_bytes));
    emit "xalgebra.cursor_steps" "count" (float_of_int cn.steps /. float_of_int (max 1 !nreads));
    emit_read_counts cn
  end;
  emit_setup before setup teardown;
  rm_rf dir

(* The metrics each run prints, as BENCHMARK.json lists them. *)
let end_to_end =
  [ "setup_s"; "read_cpu_ms"; "apply_ms"; "recovery_s"; "space_amp"; "rss_mb" ]

let per_layer =
  [ "xquery.parse_ms"; "xquery.extract_ms"; "xam.cache_key_ms"; "xam.rewrite_ms";
    "xstorage.cost_ms"; "xam.embed_ms"; "xalgebra.tag_ms"; "xquery.serialize_ms";
    "xengine.plan_hit_ratio"; "xengine.fallback_ratio"; "xalgebra.cursor_steps";
    "xdm.mutate_ms"; "xsummary.build_ms"; "xstorage.materialize_ms"; "xstorage.partition_ms";
    "xstorage.validate_ms"; "xstorage.splice_ms"; "xwal.append_ms"; "xstorage.parts_rebuilt";
    "xstorage.parts_kept"; "xwal.bytes_per_user_byte"; "xpersist.save_ms"; "xwal.truncate_ms";
    "xpersist.load_ms"; "xwal.replay_ms"; "alloc_words_per_read"; "alloc_words_per_apply";
    "trace.read_overhead_share"; "trace.read_unattributed_share"; "trace.apply_overhead_share";
    "trace.apply_unattributed_share"; "trace.checkpoint_overhead_share";
    "trace.checkpoint_unattributed_share" ]

let main () =
  let o = parse_args () in
  (* an unknown workload fails before any work *)
  ignore (shape_of o.workload);
  mkdir_p o.out;
  fact "host: nproc %d, OCaml %s, word size %d" (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size;
  fact "run: workload %s, seed %d, seconds %.0f, trace %b" o.workload o.seed o.seconds o.trace;
  run_workload o;
  emit "rss_mb" "MB" (peak_rss_mb ());
  if o.trace then
    write_spans (Filename.concat o.out (Printf.sprintf "spans-%s-%d.jsonl" o.workload o.seed));
  let wanted = if o.trace then per_layer else end_to_end in
  metrics := List.filter (fun m -> List.mem m.m_name wanted) !metrics;
  List.iter
    (fun name ->
      match List.find_opt (fun m -> m.m_name = name) !metrics with
      | None -> fail "metric %s was not measured" name
      | Some m when not (Float.is_finite m.m_value) -> fail "metric %s is %f" name m.m_value
      | Some _ -> ())
    wanted;
  print_result ();
  exit (if !failed = 0 then 0 else 1)

let () = main ()
