(* uload — a command-line front end to the XAM framework, named after the
   thesis's ULoad prototype [13].

     uload info      doc.xml                 document and summary statistics
     uload summary   doc.xml                 print the enhanced path summary
     uload query     doc.xml "for $x in …"   evaluate an XQuery (Q subset);
                     [--explain] [--metrics] route it through the engine over
                     [--storage MODEL] and print EXPLAIN / Prometheus metrics
     uload patterns  doc.xml "for $x in …"   show the extracted XAM patterns
     uload plan      doc.xml --storage tag "//book/title"
                                             rewrite an XPath-ish query over a
                                             storage model and execute the plan
     uload gen       xmark|dblp|bib|shakespeare [-o out.xml] [--scale f] *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let doc_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC" ~doc:"XML document")

(* --- Error reporting ---------------------------------------------------- *)

(* Exit-code policy: 2 when the invocation itself was wrong (unparsable
   query text, an unparsable XML fragment or bad node handle given to a
   mutation verb, bad flags — cmdliner's own usage errors are remapped in
   [main] below), 1 when a well-formed request failed at runtime. Scripts
   can then tell "fix the command line" from "investigate the store".
   "update" is here because [Xerror.Update_invalid] is by definition a
   rejected invocation (the mutation was validated and refused before
   taking any effect); WAL or maintenance failures after validation are
   other stages and keep exiting 1. *)
let bad_argument_stages = [ "parse"; "extract"; "update" ]

let error_json ~stage msg =
  Xobs.Json.to_string
    (Xobs.Json.Obj
       [ ( "error",
           Xobs.Json.Obj
             [ ("stage", Xobs.Json.Str stage); ("message", Xobs.Json.Str msg) ] ) ])

let die ?(json = false) ~stage msg =
  if json then print_endline (error_json ~stage msg) else prerr_endline msg;
  exit (if List.mem stage bad_argument_stages then 2 else 1)

let die_xerror ?json e =
  die ?json ~stage:(Xengine.Xerror.stage e) (Xengine.Xerror.to_string e)

(* A document that fails to load is a runtime failure (exit 1, clean
   message), not an uncaught exception (cmdliner would exit 125 with a
   backtrace — scripts can't classify that). *)
let load_doc path =
  match Xdm.Doc.of_string ~name:(Filename.basename path) (read_file path) with
  | doc -> doc
  | exception Sys_error m -> die ~stage:"load" m
  | exception e ->
      die ~stage:"load"
        (Printf.sprintf "cannot load %s: %s" path (Printexc.to_string e))

let write_out path data =
  match
    let oc = open_out path in
    output_string oc data;
    close_out oc
  with
  | () -> ()
  | exception Sys_error m -> die ~stage:"io" m

(* --- info ------------------------------------------------------------- *)

let info_cmd =
  let run path =
    let doc = load_doc path in
    let s = Xsummary.Summary.of_doc doc in
    Printf.printf "document   %s\n" path;
    Printf.printf "nodes      %d (%d elements)\n" (Xdm.Doc.size doc)
      (Xdm.Doc.element_size doc);
    Printf.printf "labels     %d distinct\n" (List.length (Xdm.Doc.labels doc));
    Printf.printf "summary    %d paths, %d strong edges, %d one-to-one edges\n"
      (Xsummary.Summary.size s)
      (Xsummary.Summary.strong_edge_count s)
      (Xsummary.Summary.one_edge_count s)
  in
  Cmd.v (Cmd.info "info" ~doc:"Document and summary statistics")
    Term.(const run $ doc_arg)

(* --- summary ----------------------------------------------------------- *)

let summary_cmd =
  let run path =
    let doc = load_doc path in
    Format.printf "%a" Xsummary.Summary.pp (Xsummary.Summary.of_doc doc)
  in
  Cmd.v (Cmd.info "summary" ~doc:"Print the enhanced path summary")
    Term.(const run $ doc_arg)

(* --- query / patterns ---------------------------------------------------- *)

let query_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"XQuery text")

let storage_arg =
  let model =
    Arg.enum [ ("edge", `Edge); ("tag", `Tag); ("path", `Path); ("inlined", `Inlined) ]
  in
  Arg.(value & opt model `Tag
       & info [ "storage" ] ~docv:"MODEL" ~doc:"Storage model: edge, tag, path or inlined")

let specs_of doc summary = function
  | `Edge -> Xstorage.Models.edge doc
  | `Tag -> Xstorage.Models.tag_partitioned doc
  | `Path -> Xstorage.Models.path_partitioned summary
  | `Inlined -> Xstorage.Models.inlined summary

(* The one metrics formatter every surface shares ([uload query
   --metrics], [uload client --metrics], the server's
   /debug/metrics.json): Prometheus text, or Export.metrics_json under
   --json. *)
let print_registry ~json reg =
  if json then
    print_endline (Xobs.Json.to_string (Xobs.Export.metrics_json reg))
  else print_string (Xobs.Export.prometheus reg)

(* Shared by [query] (engine path) and [open]: run the query through an
   engine and print output, EXPLAIN and metrics as requested. *)
let run_engine_query ~explain ~metrics ~json engine src =
  match Xengine.Engine.query_string_r engine src with
  | Error e -> die_xerror ~json e
  | Ok r ->
      print_endline r.Xengine.Engine.output;
      if explain then begin
        List.iteri
          (fun i ex ->
            match ex with
            | Some ex ->
                if json then print_endline (Xengine.Explain.to_json_string ex)
                else
                  Format.printf "-- pattern %d --@.%a@." i Xengine.Explain.pp ex
            | None ->
                Printf.printf
                  "-- pattern %d: materialized from the base document --\n" i)
          r.Xengine.Engine.pattern_explains;
        match r.Xengine.Engine.xquery_trace with
        | Some tr -> Printf.printf "-- trace --\n%s\n" (Xobs.Export.trace_jsonl tr)
        | None -> ()
      end;
      if metrics then
        print_registry ~json (Xengine.Engine.obs engine).Xobs.Obs.metrics

let query_cmd =
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Run through the engine over $(b,--storage) and print each \
                   extracted pattern's EXPLAIN (plan, timings, operator tree) \
                   and the query's span trace")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Run through the engine and print its metrics registry in \
                   Prometheus text exposition format")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"With $(b,--explain): print EXPLAIN as JSON; with \
                   $(b,--metrics): print the registry as one JSON object")
  in
  let run path src storage explain metrics json =
    let doc = load_doc path in
    if not (explain || metrics) then
      (* The direct evaluator: no engine, no planning — the historical
         behavior of [uload query]. *)
      match Xquery.Parse.query_result src with
      | Error e -> die ~json ~stage:"parse" e
      | Ok q -> print_endline (Xquery.Translate.eval doc q)
    else begin
      let summary = Xsummary.Summary.of_doc doc in
      let obs = Xobs.Obs.create ~tracing:explain () in
      let engine =
        Xengine.Engine.of_doc ~obs doc (specs_of doc summary storage)
      in
      run_engine_query ~explain ~metrics ~json engine src
    end
  in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate an XQuery (the Q subset of §3.2)")
    Term.(const run $ doc_arg $ query_arg $ storage_arg $ explain_arg
          $ metrics_arg $ json_arg)

let patterns_cmd =
  let run path src =
    let doc = load_doc path in
    match Xquery.Parse.query_result src with
    | Error e -> die ~stage:"parse" e
    | Ok q ->
        let e = Xquery.Extract.extract q in
        Printf.printf "%d pattern(s) extracted:\n" (List.length e.Xquery.Extract.patterns);
        List.iter (fun p -> Format.printf "%a@." Xam.Pattern.pp p) e.Xquery.Extract.patterns;
        if e.Xquery.Extract.value_joins <> [] then
          Printf.printf "%d cross-pattern value join(s)\n"
            (List.length e.Xquery.Extract.value_joins);
        List.iter
          (fun (i, pred) ->
            Format.printf "adaptation on pattern %d: %a@." i Xalgebra.Pred.pp pred)
          e.Xquery.Extract.adaptations;
        ignore doc
  in
  Cmd.v (Cmd.info "patterns" ~doc:"Show the XAM patterns extracted from an XQuery")
    Term.(const run $ doc_arg $ query_arg)

(* --- plan ---------------------------------------------------------------- *)

(* A single-pattern query given as an XPath-ish path. The extraction is
   specialized for access-path planning: the conjunctive core is kept
   (mandatory edges) and content requests become value requests, which the
   fragmented storage models can serve. *)
let pattern_of_path src =
  let p = Xquery.Parse.path ("doc(\"d\")" ^ src) in
  let e = Xquery.Extract.extract (Xquery.Ast.Path p) in
  match e.Xquery.Extract.patterns with
  | [ pat ] ->
      let pat = Xam.Pattern.strip_optional (Xam.Pattern.strip_nesting pat) in
      Xam.Pattern.map_nodes
        (fun n ->
          let n =
            if n.Xam.Pattern.cont_stored then
              { n with Xam.Pattern.cont_stored = false; val_stored = true }
            else n
          in
          (* Any identifier scheme answers the planning question. *)
          if n.Xam.Pattern.id_scheme <> None then
            { n with Xam.Pattern.id_scheme = Some Xdm.Nid.Simple }
          else n)
        pat
  | _ -> failwith "expected a single-pattern path query"

let plan_cmd =
  let run path storage src =
    let doc = load_doc path in
    let summary = Xsummary.Summary.of_doc doc in
    let query = pattern_of_path src in
    Format.printf "query pattern:@.%a@.@." Xam.Pattern.pp query;
    let catalog = Xstorage.Store.catalog_of doc (specs_of doc summary storage) in
    let rewritings =
      Xam.Rewrite.rewrite summary ~query ~views:(Xstorage.Store.views catalog)
    in
    Printf.printf "%d rewriting(s) over %d storage modules\n" (List.length rewritings)
      (List.length catalog.Xstorage.Store.modules);
    match Xstorage.Cost.choose (Xstorage.Store.env catalog) rewritings with
    | None -> die ~stage:"plan" "no plan found"
    | Some r ->
        Format.printf "plan:@.%a@.@." Xalgebra.Logical.pp r.Xam.Rewrite.plan;
        let out = Xalgebra.Physical.run (Xstorage.Store.env catalog) r.Xam.Rewrite.plan in
        Format.printf "%a@." Xalgebra.Rel.pp out
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Rewrite a path query over a storage model's XAM catalog and run the plan")
    Term.(const run $ doc_arg $ storage_arg $ query_arg)

(* --- contain / rewrite (textual XAMs) -------------------------------------- *)

let xam_arg p docv =
  Arg.(required & pos p (some file) None & info [] ~docv ~doc:"XAM pattern file")

let contain_cmd =
  let constraints_arg =
    Arg.(value & flag & info [ "constraints" ] ~doc:"Chase strong (+/1) summary edges")
  in
  let run path pfile qfile constraints =
    let doc = load_doc path in
    let s = Xsummary.Summary.of_doc doc in
    let p = Xam.Syntax.parse_file pfile and q = Xam.Syntax.parse_file qfile in
    let pq = Xam.Contain.contained ~constraints s p q in
    let qp = Xam.Contain.contained ~constraints s q p in
    Printf.printf "p ⊆_S q : %b
q ⊆_S p : %b
equivalent: %b
" pq qp (pq && qp)
  in
  Cmd.v
    (Cmd.info "contain" ~doc:"Decide containment of two XAM files under a document's summary")
    Term.(const run $ doc_arg $ xam_arg 1 "P" $ xam_arg 2 "Q" $ constraints_arg)

let rewrite_cmd =
  let views_arg =
    Arg.(value & pos_right 1 file [] & info [] ~docv:"VIEW.xam" ~doc:"View XAM files")
  in
  let run path qfile vfiles =
    let doc = load_doc path in
    let s = Xsummary.Summary.of_doc doc in
    let query = Xam.Syntax.parse_file qfile in
    let views =
      List.map
        (fun f -> { Xam.Rewrite.vname = Filename.remove_extension (Filename.basename f);
                    vpattern = Xam.Syntax.parse_file f })
        vfiles
    in
    let rws = Xam.Rewrite.rewrite s ~query ~views in
    Printf.printf "%d rewriting(s)
" (List.length rws);
    match Xam.Rewrite.best rws with
    | None -> exit 1
    | Some r ->
        Format.printf "plan:@.%a@.@." Xalgebra.Logical.pp r.Xam.Rewrite.plan;
        let env =
          Xalgebra.Eval.env_of_list
            (List.map
               (fun (v : Xam.Rewrite.view) ->
                 (v.Xam.Rewrite.vname, Xam.Embed.eval doc v.Xam.Rewrite.vpattern))
               views)
        in
        Format.printf "%a@." Xalgebra.Rel.pp (Xalgebra.Physical.run env r.Xam.Rewrite.plan)
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Rewrite a query XAM using view XAMs, print and execute the best plan")
    Term.(const run $ doc_arg $ xam_arg 1 "QUERY.xam" $ views_arg)

let minimize_cmd =
  let run path pfile =
    let doc = load_doc path in
    let s = Xsummary.Summary.of_doc doc in
    let p = Xam.Syntax.parse_file pfile in
    Printf.printf "input (%d nodes):\n%s" (Xam.Pattern.node_count p) (Xam.Syntax.print p);
    let m = Xam.Minimize.minimize s p in
    Printf.printf "minimal under S-contraction (%d nodes):\n%s"
      (Xam.Pattern.node_count m) (Xam.Syntax.print m);
    match Xam.Minimize.chain_minimize s p with
    | Some c when Xam.Pattern.node_count c < Xam.Pattern.node_count m ->
        Printf.printf "smaller summary-aware equivalent (%d nodes):\n%s"
          (Xam.Pattern.node_count c) (Xam.Syntax.print c)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "minimize" ~doc:"Minimize a XAM under a document's summary constraints")
    Term.(const run $ doc_arg $ xam_arg 1 "P")

(* --- save / open ---------------------------------------------------------- *)

let save_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"SNAP" ~doc:"Snapshot file to write")
  in
  let run path storage out =
    let doc = load_doc path in
    let summary = Xsummary.Summary.of_doc doc in
    let engine = Xengine.Engine.of_doc doc (specs_of doc summary storage) in
    match Xengine.Engine.save_snapshot_r engine out with
    | Error e -> die_xerror e
    | Ok bytes ->
        Printf.printf "wrote %s (%d bytes, %d modules, %d nodes)\n" out bytes
          (List.length
             (Xengine.Engine.catalog engine).Xstorage.Store.modules)
          (Xdm.Doc.size doc)
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Materialize a storage model over a document and persist the whole \
             engine state (document, summary, catalog, extents) as a binary \
             snapshot")
    Term.(const run $ doc_arg $ storage_arg $ out_arg)

let open_cmd =
  let snap_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"SNAP" ~doc:"Snapshot file written by $(b,uload save)")
  in
  let explain_arg =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print each pattern's EXPLAIN")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the engine's metrics registry (includes the \
                   persist_* counters) in Prometheus format")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"With $(b,--explain): print EXPLAIN as JSON; errors become \
                   structured JSON objects")
  in
  let recover_arg =
    Arg.(value & flag
         & info [ "recover" ]
             ~doc:"Attach the snapshot's WAL directory and replay any records \
                   past the snapshot's LSN (repairing a torn tail) before \
                   answering the query")
  in
  let wal_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"DIR"
             ~doc:"With $(b,--recover): WAL directory (default $(i,SNAP).wal)")
  in
  let run snap src recover wal explain metrics json =
    let obs = Xobs.Obs.create ~tracing:explain () in
    match Xengine.Engine.of_snapshot_r ~obs snap with
    | Error e -> die_xerror ~json e
    | Ok engine ->
        let replayed =
          if not recover then 0
          else
            let dir = match wal with Some d -> d | None -> snap ^ ".wal" in
            match Xengine.Engine.attach_wal_r engine dir with
            | Error e -> die_xerror ~json e
            | Ok n ->
                if not json then
                  Printf.eprintf "recovered: %d record(s) replayed, at lsn %d\n%!"
                    n (Xengine.Engine.lsn engine);
                n
        in
        run_engine_query ~explain ~metrics ~json engine src;
        if json then
          print_endline
            (Xobs.Json.to_string
               (Xobs.Json.Obj
                  [ ( "engine",
                      Xobs.Json.Obj
                        [ ("lsn", Xobs.Json.Num (float_of_int (Xengine.Engine.lsn engine)));
                          ( "snapshot_lsn",
                            Xobs.Json.Num
                              (float_of_int (Xengine.Engine.snapshot_lsn engine)) );
                          ("replayed", Xobs.Json.Num (float_of_int replayed));
                          ( "quarantined",
                            Xobs.Json.Arr
                              (List.map
                                 (fun (n, _) -> Xobs.Json.Str n)
                                 (Xengine.Engine.quarantined engine)) ) ] ) ]))
  in
  Cmd.v
    (Cmd.info "open"
       ~doc:"Open a persisted snapshot — no XML re-parse, no \
             re-materialization — and evaluate an XQuery against it; \
             $(b,--recover) first replays the WAL")
    Term.(const run $ snap_arg $ query_arg $ recover_arg
          $ wal_opt_arg $ explain_arg $ metrics_arg $ json_arg)

(* --- put / delete / update / checkpoint / churn ---------------------------
   The crash-safe write path. Mutation verbs open the snapshot, attach
   (and recover from) its WAL directory, apply, and exit — the snapshot
   file itself is only rewritten by [checkpoint]. Durability comes from
   the WAL: a crash at any point loses at most the unacknowledged
   mutation, and the next open with --recover (or any mutation verb)
   replays the log back to the exact pre-crash state. *)

let wal_arg =
  Arg.(value & opt (some string) None
       & info [ "wal" ] ~docv:"DIR"
           ~doc:"WAL directory (default: $(i,SNAP).wal)")

let wal_dir_of snap = function Some d -> d | None -> snap ^ ".wal"

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Print results as JSON")

let open_for_write ~json snap wal =
  match Xengine.Engine.of_snapshot_r snap with
  | Error e -> die_xerror ~json e
  | Ok engine -> (
      match Xengine.Engine.attach_wal_r engine (wal_dir_of snap wal) with
      | Error e -> die_xerror ~json e
      | Ok replayed -> (engine, replayed))

let report_json (r : Xengine.Engine.apply_report) =
  let open Xobs.Json in
  Obj
    [ ("lsn", Num (float_of_int r.Xengine.Engine.ap_lsn));
      ("partitions_kept", Num (float_of_int r.Xengine.Engine.ap_parts_kept));
      ("partitions_rebuilt", Num (float_of_int r.Xengine.Engine.ap_parts_rebuilt));
      ("paths_added", Arr (List.map (fun p -> Str p) r.Xengine.Engine.ap_paths_added));
      ("paths_removed", Arr (List.map (fun p -> Str p) r.Xengine.Engine.ap_paths_removed));
      ("dropped",
       Arr
         (List.map
            (fun (n, reason) ->
              Obj [ ("module", Str n); ("reason", Str reason) ])
            r.Xengine.Engine.ap_dropped));
      ("resurrected", Arr (List.map (fun n -> Str n) r.Xengine.Engine.ap_resurrected)) ]

let print_report ~json (r : Xengine.Engine.apply_report) =
  if json then print_endline (Xobs.Json.to_string (report_json r))
  else begin
    Printf.printf "lsn %d: %d partition(s) kept, %d rebuilt\n"
      r.Xengine.Engine.ap_lsn r.Xengine.Engine.ap_parts_kept
      r.Xengine.Engine.ap_parts_rebuilt;
    List.iter (Printf.printf "  path added   %s\n") r.Xengine.Engine.ap_paths_added;
    List.iter (Printf.printf "  path removed %s\n") r.Xengine.Engine.ap_paths_removed;
    List.iter
      (fun (n, reason) -> Printf.printf "  dropped      %s (%s)\n" n reason)
      r.Xengine.Engine.ap_dropped;
    List.iter (Printf.printf "  resurrected  %s\n") r.Xengine.Engine.ap_resurrected
  end

let apply_and_report ~json engine op =
  match Xengine.Engine.apply_r engine op with
  | Error e -> die_xerror ~json e
  | Ok r -> print_report ~json r

let snap_pos_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"SNAP" ~doc:"Snapshot file written by $(b,uload save)")

let put_cmd =
  let parent_arg =
    Arg.(required & opt (some int) None
         & info [ "parent" ] ~docv:"H" ~doc:"Element handle to graft under")
  in
  let before_arg =
    Arg.(value & opt (some int) None
         & info [ "before" ] ~docv:"H" ~doc:"Insert before this child handle")
  in
  let xml_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"XML" ~doc:"XML fragment to insert")
  in
  let run snap wal parent before xml json =
    let engine, _ = open_for_write ~json snap wal in
    apply_and_report ~json engine
      (Xengine.Engine.Insert_subtree { parent; before; xml })
  in
  Cmd.v
    (Cmd.info "put"
       ~doc:"Insert an XML fragment into a snapshot's document, durably: the \
             mutation is WAL-logged and fsync'd, the snapshot is rewritten \
             only at $(b,uload checkpoint)")
    Term.(const run $ snap_pos_arg $ wal_arg $ parent_arg $ before_arg
          $ xml_arg $ json_flag)

let delete_cmd =
  let node_arg =
    Arg.(required & pos 1 (some int) None
         & info [] ~docv:"H" ~doc:"Handle of the subtree to delete")
  in
  let run snap wal node json =
    let engine, _ = open_for_write ~json snap wal in
    apply_and_report ~json engine (Xengine.Engine.Delete_subtree { node })
  in
  Cmd.v (Cmd.info "delete" ~doc:"Delete a subtree from a snapshot's document, durably")
    Term.(const run $ snap_pos_arg $ wal_arg $ node_arg $ json_flag)

let update_cmd =
  let node_arg =
    Arg.(required & pos 1 (some int) None
         & info [] ~docv:"H" ~doc:"Handle of the text or attribute node")
  in
  let value_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"VALUE")
  in
  let run snap wal node value json =
    let engine, _ = open_for_write ~json snap wal in
    apply_and_report ~json engine (Xengine.Engine.Update_value { node; value })
  in
  Cmd.v
    (Cmd.info "update" ~doc:"Overwrite a text or attribute value, durably")
    Term.(const run $ snap_pos_arg $ wal_arg $ node_arg $ value_arg $ json_flag)

let checkpoint_cmd =
  let run snap wal json =
    let engine, replayed = open_for_write ~json snap wal in
    match Xengine.Engine.checkpoint_r engine snap with
    | Error e -> die_xerror ~json e
    | Ok (bytes, removed) ->
        if json then
          print_endline
            (Xobs.Json.to_string
               (Xobs.Json.Obj
                  [ ("lsn", Xobs.Json.Num (float_of_int (Xengine.Engine.lsn engine)));
                    ("replayed", Xobs.Json.Num (float_of_int replayed));
                    ("snapshot_bytes", Xobs.Json.Num (float_of_int bytes));
                    ("segments_removed", Xobs.Json.Num (float_of_int removed)) ]))
        else
          Printf.printf
            "checkpoint at lsn %d: %d record(s) replayed, %d bytes written, %d \
             segment(s) truncated\n"
            (Xengine.Engine.lsn engine) replayed bytes removed
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Replay the WAL, rewrite the snapshot at the current LSN, and \
             truncate the covered WAL segments")
    Term.(const run $ snap_pos_arg $ wal_arg $ json_flag)

(* A deterministic, resumable mutation workload. Op [i] is drawn from a
   PRNG seeded with (seed, i) over the document state at LSN i-1 — the
   state, in turn, is fully determined by ops 1..i-1 — so a run killed at
   any point and restarted with the same arguments recovers via WAL
   replay and continues with exactly the ops the uninterrupted run would
   have applied. That equivalence is what the CI recovery-smoke job
   checks, via --verify. *)
let churn_op doc ~seed i =
  let rng = Random.State.make [| seed; i |] in
  let n = Xdm.Doc.size doc in
  let elements = ref [] and leaves = ref [] in
  Xdm.Doc.iter
    (fun h ->
      match Xdm.Doc.kind doc h with
      | Xdm.Doc.Element -> if h <> 0 then elements := h :: !elements
      | Xdm.Doc.Attribute | Xdm.Doc.Text -> leaves := h :: !leaves)
    doc;
  let elements = Array.of_list (List.rev !elements) in
  let leaves = Array.of_list (List.rev !leaves) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let roll = Random.State.int rng 100 in
  if roll < 50 || n <= 3 then
    let parent =
      if Array.length elements = 0 then Xdm.Doc.root doc else pick elements
    in
    Xengine.Engine.Insert_subtree
      { parent;
        before = None;
        xml = Printf.sprintf "<w%d a=\"%d\">t%d</w%d>" (i mod 7) i i (i mod 7) }
  else if roll < 75 && Array.length leaves > 0 then
    Xengine.Engine.Update_value { node = pick leaves; value = Printf.sprintf "v%d" i }
  else if Array.length elements > 0 then
    Xengine.Engine.Delete_subtree { node = pick elements }
  else
    Xengine.Engine.Insert_subtree
      { parent = Xdm.Doc.root doc;
        before = None;
        xml = Printf.sprintf "<w%d>t%d</w%d>" (i mod 7) i (i mod 7) }

(* The local mirror of the engine's own mutation semantics, used to
   generate op i+1 against the state after op i without a round trip
   through the engine: both sides bottom out in the same Xdm.Doc
   operations, so the mirror and the engine cannot diverge. *)
let churn_mutate doc op =
  match op with
  | Xengine.Engine.Insert_subtree { parent; before; xml } -> (
      match Xdm.Xml_tree.parse_result xml with
      | Error msg -> failwith ("generated XML does not parse: " ^ msg)
      | Ok tree -> Xdm.Doc.insert_subtree doc ~parent ?before tree)
  | Xengine.Engine.Delete_subtree { node } -> Xdm.Doc.delete_subtree doc node
  | Xengine.Engine.Update_value { node; value } ->
      Xdm.Doc.update_value doc node value

let churn_cmd =
  let ops_arg =
    Arg.(value & opt int 100 & info [ "ops" ] ~docv:"N" ~doc:"Total mutations to reach")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S") in
  let batch_arg =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"B"
             ~doc:"Apply mutations B at a time through the batched write \
                   path (one group-committed WAL write per batch). Op i is \
                   the same regardless of B, so runs with different batch \
                   sizes converge on the same state")
  in
  let background_arg =
    Arg.(value & flag
         & info [ "background" ]
             ~doc:"Run each checkpoint (Engine.checkpoint_r) in a \
                   background thread instead of in the write loop; at most \
                   one checkpoint in flight")
  in
  let sleep_arg =
    Arg.(value & opt int 0
         & info [ "sleep-ms" ] ~docv:"MS"
             ~doc:"Pause between mutations (gives a crash injector a window)")
  in
  let ckpt_arg =
    Arg.(value & opt int 0
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:"Checkpoint the snapshot every K mutations (0 = never)")
  in
  let verify_arg =
    Arg.(value & opt (some string) None
         & info [ "verify" ] ~docv:"QUERY"
             ~doc:"After reaching N ops, print this XQuery's answer — \
                   byte-comparable across interrupted and clean runs")
  in
  let run snap wal ops seed batch background sleep_ms ckpt_every verify json =
    let engine, replayed = open_for_write ~json snap wal in
    let start = Xengine.Engine.lsn engine in
    let batch = max 1 batch in
    if not json then
      Printf.printf "churn: resuming at lsn %d (%d replayed), target %d\n%!"
        start replayed ops;
    (* Checkpoint whenever the LSN crosses a multiple of K — with
       batch 1 that is exactly the old "every K ops" cadence, and with
       larger batches a batch spanning the boundary checkpoints once. *)
    let ckpt_div = ref (if ckpt_every > 0 then start / ckpt_every else 0) in
    let ckpt_thread = ref None in
    let maybe_checkpoint () =
      if ckpt_every > 0 then begin
        let lsn = Xengine.Engine.lsn engine in
        if lsn / ckpt_every > !ckpt_div then begin
          ckpt_div := lsn / ckpt_every;
          if background then begin
            (match !ckpt_thread with Some th -> Thread.join th | None -> ());
            ckpt_thread :=
              Some
                (Thread.create
                   (fun () ->
                     match Xengine.Engine.checkpoint_r engine snap with
                     | Ok _ -> ()
                     | Error e ->
                         Printf.eprintf "churn: background checkpoint: %s\n%!"
                           (Xengine.Xerror.to_string e))
                   ())
          end
          else
            match Xengine.Engine.checkpoint_r engine snap with
            | Ok _ -> ()
            | Error e -> die_xerror ~json e
        end
      end
    in
    let i = ref (start + 1) in
    while !i <= ops do
      let doc =
        match Xengine.Engine.document engine with
        | Some d -> d
        (* a runtime defect of the store, not a bad invocation: stage
           "snapshot" exits 1 (the "update" stage now exits 2) *)
        | None -> die ~json ~stage:"snapshot" "snapshot carries no document"
      in
      let b = min batch (ops - !i + 1) in
      (* Generate the batch against a local doc mirror: op k of the
         batch is drawn from the state after op k-1, exactly as in the
         unbatched loop, so the op sequence is independent of B. *)
      let rec gen acc doc k =
        if k >= b then List.rev acc
        else
          let op = churn_op doc ~seed (!i + k) in
          gen (op :: acc) (churn_mutate doc op) (k + 1)
      in
      let batch_ops = gen [] doc 0 in
      (match Xengine.Engine.apply_batch_r engine batch_ops with
      | Ok _ -> ()
      | Error e -> die_xerror ~json e);
      maybe_checkpoint ();
      if sleep_ms > 0 then Unix.sleepf (float_of_int sleep_ms /. 1000.);
      i := !i + b
    done;
    (match !ckpt_thread with Some th -> Thread.join th | None -> ());
    if json then
      print_endline
        (Xobs.Json.to_string
           (Xobs.Json.Obj
              [ ("lsn", Xobs.Json.Num (float_of_int (Xengine.Engine.lsn engine)));
                ("resumed_at", Xobs.Json.Num (float_of_int start));
                ("replayed", Xobs.Json.Num (float_of_int replayed)) ]))
    else
      Printf.printf "churn: done at lsn %d\n%!" (Xengine.Engine.lsn engine);
    match verify with
    | None -> ()
    | Some src -> (
        match Xengine.Engine.query_string_r engine src with
        | Error e -> die_xerror ~json e
        | Ok r -> print_endline r.Xengine.Engine.output)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Drive a deterministic, resumable mutation workload against a \
             snapshot + WAL; killed at any point, rerunning the same command \
             recovers and converges on the same final state")
    Term.(const run $ snap_pos_arg $ wal_arg $ ops_arg $ seed_arg $ batch_arg
          $ background_arg $ sleep_arg $ ckpt_arg $ verify_arg $ json_flag)

(* --- serve / client -------------------------------------------------------
   The network front end (lib/xserve): a multi-tenant HTTP/1.1 query
   server over Engine.query_string_batch, and the matching client /
   closed-loop load generator. *)

let serve_cmd =
  let tenant_arg =
    let parse s =
      match String.index_opt s '=' with
      | Some i when i > 0 && i < String.length s - 1 ->
          Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | _ -> Error (`Msg (Printf.sprintf "expected NAME=SNAPSHOT, got %S" s))
    in
    let print ppf (n, p) = Format.fprintf ppf "%s=%s" n p in
    Arg.(non_empty & opt_all (conv (parse, print)) []
         & info [ "tenant" ] ~docv:"NAME=SNAP"
             ~doc:"Serve snapshot $(i,SNAP) as tenant $(i,NAME) (repeatable); \
                   the snapshot is opened on the tenant's first request")
  in
  let port_arg =
    Arg.(value & opt int 8080
         & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks one)")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix domain socket instead of TCP")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue bound: requests beyond it are shed with \
                   429 instead of queueing unboundedly")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Domains per dispatch batch (inter-query parallelism)")
  in
  let batch_arg =
    Arg.(value & opt int 16
         & info [ "batch" ] ~docv:"B" ~doc:"Max requests per dispatch batch")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "default-deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline when the request sets none")
  in
  let debug_arg =
    Arg.(value & flag
         & info [ "debug" ]
             ~doc:"Serve the /debug/traces, /debug/slowlog and \
                   /debug/metrics.json endpoints (off by default)")
  in
  let access_log_arg =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Append one JSON line per answered request (rotating at \
                   8 MiB); request ids join these lines to traces")
  in
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Build a span trace per admitted request (queue_wait, \
                   dispatch, execute + the engine's own spans); finished \
                   traces land in the slowlog ring behind /debug/traces")
  in
  let slow_ms_arg =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"With $(b,--trace): additionally keep every trace at \
                   least this slow (the /debug/slowlog list)")
  in
  let ckpt_every_arg =
    let default =
      (Xserve.Server.default_config (Xserve.Proto.Unix_sock "")).checkpoint_every
    in
    Arg.(value & opt int default
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:"Background-checkpoint a tenant once its replay debt \
                   reaches K records (0 = never); writes keep flowing \
                   while the checkpoint runs")
  in
  let run tenants host port socket queue domains batch deadline debug
      access_log trace slow_ms checkpoint_every =
    let listen =
      match socket with
      | Some path -> Xserve.Proto.Unix_sock path
      | None -> Xserve.Proto.Tcp (host, port)
    in
    let cfg =
      { (Xserve.Server.default_config listen) with
        Xserve.Server.queue_depth = queue;
        domains;
        batch_max = batch;
        debug;
        access_log;
        checkpoint_every;
        default_budget =
          { Xengine.Engine.unlimited with Xengine.Engine.deadline_ms = deadline }
      }
    in
    let server = Xserve.Server.create cfg tenants in
    let obs = Xserve.Server.obs server in
    if trace then Xobs.Obs.set_tracing obs true;
    Option.iter (Xobs.Slowlog.set_threshold_ms obs.Xobs.Obs.slowlog) slow_ms;
    (match Xserve.Server.start server with
    | () -> ()
    | exception Failure m -> die ~stage:"serve" m);
    Format.printf "serving %d tenant(s) on %a (queue %d, domains %d)@."
      (List.length tenants) Xserve.Proto.pp_addr
      (Xserve.Server.bound_addr server)
      queue domains;
    (* Not [Server.run]: the readiness line above must go out between
       [start] and the signal wait so supervisors can poll for it. *)
    let stop_requested = Atomic.make false in
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigterm; Sys.sigint ];
    while not (Atomic.get stop_requested) do
      try Thread.delay 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Xserve.Server.stop server;
    Format.printf "drained@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve snapshots to concurrent clients over HTTP/1.1: per-tenant \
             engines, per-request budgets/deadlines, bounded-queue admission \
             control (429 under overload), /metrics in Prometheus format, \
             graceful drain on SIGTERM (exit 0)")
    Term.(const run $ tenant_arg $ host_arg $ port_arg $ socket_arg $ queue_arg
          $ domains_arg $ batch_arg $ deadline_arg $ debug_arg
          $ access_log_arg $ trace_arg $ slow_ms_arg $ ckpt_every_arg)

let client_cmd =
  let addr_arg =
    let parse s =
      Result.map_error (fun m -> `Msg m) (Xserve.Proto.addr_of_string s)
    in
    Arg.(required
         & pos 0 (some (conv (parse, Xserve.Proto.pp_addr))) None
         & info [] ~docv:"ADDR"
             ~doc:"Server address: http://HOST:PORT, HOST:PORT or unix:PATH")
  in
  let query_opt_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"QUERY")
  in
  let tenant_arg =
    Arg.(value & opt string "default" & info [ "tenant" ] ~docv:"NAME")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Fetch /metrics and print the exposition; with $(b,--json), \
                   fetch /debug/metrics.json instead (the server must run \
                   with $(b,--debug))")
  in
  let validate_arg =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"With $(b,--metrics): run the Prometheus format validator \
                   and fail (exit 1) on a malformed exposition")
  in
  let get_arg =
    Arg.(value & opt (some string) None
         & info [ "get" ] ~docv:"PATH"
             ~doc:"Fetch an arbitrary path (e.g. /debug/traces or \
                   /debug/slowlog) and print the body")
  in
  let request_id_arg =
    Arg.(value & opt (some string) None
         & info [ "request-id" ] ~docv:"ID"
             ~doc:"Send this X-Request-Id; the server echoes it in the \
                   response, its trace and its access-log line")
  in
  let bench_arg =
    Arg.(value & flag
         & info [ "bench" ]
             ~doc:"Closed-loop load generation: $(b,--concurrency) threads \
                   re-issue $(i,QUERY) back-to-back for $(b,--duration) \
                   seconds and report throughput/latency/shed-rate")
  in
  let concurrency_arg =
    Arg.(value & opt int 8 & info [ "concurrency" ] ~docv:"C")
  in
  let duration_arg =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"S")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print results as JSON")
  in
  let run addr query tenant deadline metrics validate get request_id bench
      concurrency duration json =
    if metrics then begin
      match Xserve.Client.connect addr with
      | Error m -> die ~json ~stage:"serve" m
      | Ok c ->
          if json then (
            (* The server-side Export.metrics_json — the same shape
               [uload query --metrics --json] prints locally. *)
            match Xserve.Client.get c "/debug/metrics.json" with
            | Error m ->
                Xserve.Client.close c;
                die ~json ~stage:"serve" m
            | Ok (200, body) ->
                Xserve.Client.close c;
                print_endline body
            | Ok (status, _) ->
                Xserve.Client.close c;
                die ~json ~stage:"serve"
                  (Printf.sprintf
                     "/debug/metrics.json answered %d (server started \
                      without --debug?)"
                     status))
          else (
            match Xserve.Client.metrics c with
            | Error m ->
                Xserve.Client.close c;
                die ~json ~stage:"serve" m
            | Ok text -> (
                Xserve.Client.close c;
                print_string text;
                if validate then
                  match Xobs.Export.validate_prometheus text with
                  | Ok () -> ()
                  | Error m ->
                      die ~json ~stage:"serve"
                        (Printf.sprintf "invalid Prometheus exposition: %s" m)))
    end
    else
      match get with
      | Some path -> (
          match Xserve.Client.connect addr with
          | Error m -> die ~json ~stage:"serve" m
          | Ok c -> (
              let r = Xserve.Client.get c path in
              Xserve.Client.close c;
              match r with
              | Error m -> die ~json ~stage:"serve" m
              | Ok (200, body) -> print_string body
              | Ok (status, body) ->
                  prerr_endline body;
                  die ~json ~stage:"serve"
                    (Printf.sprintf "GET %s answered %d" path status)))
      | None ->
      let query =
        match query with
        | Some q -> q
        | None -> die ~json ~stage:"parse" "QUERY argument is required"
      in
      if bench then begin
        let r =
          Xserve.Loadgen.run ~addr ~tenant ~queries:[| query |]
            ~concurrency ~duration_s:duration ?deadline_ms:deadline ()
        in
        if json then
          print_endline (Xobs.Json.to_string (Xserve.Loadgen.to_json r))
        else Format.printf "%a@." Xserve.Loadgen.pp r
      end
      else
        match Xserve.Client.connect addr with
        | Error m -> die ~json ~stage:"serve" m
        | Ok c -> (
            let reply =
              Xserve.Client.query c ~tenant ?deadline_ms:deadline
                ?request_id query
            in
            Xserve.Client.close c;
            match reply with
            | Error m -> die ~json ~stage:"serve" m
            | Ok reply when reply.Xserve.Client.status = 200 -> (
                match Xserve.Client.output reply with
                | Some out ->
                    if json then print_endline reply.Xserve.Client.raw
                    else print_endline out
                | None ->
                    die ~json ~stage:"serve"
                      (Printf.sprintf "malformed 200 reply: %s"
                         reply.Xserve.Client.raw))
            | Ok reply ->
                (* Mirror the local exit-code convention: a malformed
                   query is the caller's mistake (2), anything else is a
                   server/runtime failure (1). *)
                let code =
                  Option.value ~default:"internal"
                    (Xserve.Client.error_code reply)
                in
                if json then print_endline reply.Xserve.Client.raw
                else
                  Printf.eprintf "server answered %d (%s): %s\n"
                    reply.Xserve.Client.status code reply.Xserve.Client.raw;
                exit (if code = "malformed_query" then 2 else 1))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Query a running $(b,uload serve): one request (prints the \
             answer, byte-identical to $(b,uload open)), $(b,--metrics) \
             scraping, or $(b,--bench) closed-loop load generation")
    Term.(const run $ addr_arg $ query_opt_arg $ tenant_arg $ deadline_arg
          $ metrics_arg $ validate_arg $ get_arg $ request_id_arg $ bench_arg
          $ concurrency_arg $ duration_arg $ json_arg)

(* --- obs ------------------------------------------------------------------ *)

let obs_cmd =
  let files_arg =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"FILE"
             ~doc:"JSONL file: an access log ($(b,uload serve --access-log)) \
                   or a trace export (/debug/traces, /debug/slowlog)")
  in
  let top_arg =
    Arg.(value & opt int 5
         & info [ "top" ] ~docv:"K" ~doc:"Slowest traces to show")
  in
  let run files top json =
    let lines =
      List.concat_map
        (fun f ->
          match String.split_on_char '\n' (read_file f) with
          | lines -> lines
          | exception Sys_error m -> die ~json ~stage:"load" m)
        files
    in
    match Xobs.Report.of_lines lines with
    | Error m -> die ~json ~stage:"load" m
    | Ok report ->
        if json then
          print_endline (Xobs.Json.to_string (Xobs.Report.to_json ~top report))
        else Format.printf "%a@." (Xobs.Report.pp ~top) report
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:"Analyze serving observability artifacts offline: per-tenant \
             p50/p90/p99 and outcome attribution (ok/shed/expired/errors), \
             queue-wait vs dispatch vs execute breakdown, and the top-K \
             slowest queries with their span trees. Any unparsable line \
             fails the run (exit 1), so it doubles as a JSONL validator")
    Term.(const run $ files_arg $ top_arg $ json_flag)

(* --- gen ------------------------------------------------------------------ *)

let gen_cmd =
  let kind_arg =
    let kind =
      Arg.enum
        [ ("xmark", `Xmark); ("dblp", `Dblp); ("bib", `Bib); ("shakespeare", `Shak) ]
    in
    Arg.(required & pos 0 (some kind) None & info [] ~docv:"KIND")
  in
  let scale_arg =
    Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"F" ~doc:"Size factor")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let run kind scale out seed =
    let tree =
      match kind with
      | `Xmark -> Xworkload.Gen_xmark.generate ~seed (Xworkload.Gen_xmark.of_factor scale)
      | `Dblp ->
          Xworkload.Gen_dblp.generate ~seed
            ~entries:(max 1 (int_of_float (scale *. 10000.))) ()
      | `Bib ->
          Xworkload.Gen_bib.generate ~seed
            ~books:(max 1 (int_of_float (scale *. 1000.)))
            ~theses:(max 1 (int_of_float (scale *. 300.)))
            ()
      | `Shak ->
          Xworkload.Gen_shakespeare.generate ~seed
            ~plays:(max 1 (int_of_float (scale *. 30.)))
            ()
    in
    let xml = Xdm.Xml_tree.serialize ~decl:true tree in
    match out with
    | None -> print_string xml
    | Some f ->
        write_out f xml;
        Printf.printf "wrote %s (%d bytes)\n" f (String.length xml)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic document")
    Term.(const run $ kind_arg $ scale_arg $ out_arg $ seed_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let code =
    Cmd.eval
      (Cmd.group ~default
         (Cmd.info "uload" ~version:"1.0.0"
            ~doc:"XML Access Modules: physical data independence for XML")
         [ info_cmd; summary_cmd; query_cmd; patterns_cmd; plan_cmd;
           contain_cmd; rewrite_cmd; minimize_cmd; save_cmd; open_cmd;
           put_cmd; delete_cmd; update_cmd; checkpoint_cmd; churn_cmd;
           gen_cmd; serve_cmd; client_cmd; obs_cmd ])
  in
  (* cmdliner reports its own usage errors as 124; fold them into the
     bad-argument exit code so callers see one value for "the invocation
     was wrong". *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
