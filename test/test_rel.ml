(* Nested relations. *)

module Rel = Xalgebra.Rel
module V = Xalgebra.Value

let a v = Rel.A v
let n l = Rel.N l
let i x = V.Int x
let s x = V.Str x

let schema =
  [ Rel.atom "ID"; Rel.nested "A" [ Rel.atom "A1"; Rel.atom "A2" ]; Rel.atom "B" ]

let t1 = [| a (i 1); n [ [| a (s "x"); a (i 10) |]; [| a (s "y"); a (i 20) |] ]; a (s "b1") |]
let t2 = [| a (i 2); n []; a (s "b2") |]

let test_schema_ops () =
  Alcotest.(check int) "col_index" 2 (Rel.col_index schema "B");
  Alcotest.(check bool) "resolve nested" true (Rel.resolve schema [ "A"; "A1" ] = Rel.Atom);
  Alcotest.(check bool) "mem_path" true (Rel.mem_path schema [ "A"; "A2" ]);
  Alcotest.(check bool) "mem_path missing" false (Rel.mem_path schema [ "A"; "Z" ]);
  Alcotest.(check string) "schema_to_string" "ID, A(A1, A2), B" (Rel.schema_to_string schema)

let test_paths () =
  Alcotest.(check int) "atoms_of_path flat" 1
    (List.length (Rel.atoms_of_path schema t1 [ "ID" ]));
  Alcotest.(check bool) "atoms_of_path nested collects all" true
    (Rel.atoms_of_path schema t1 [ "A"; "A2" ] = [ i 10; i 20 ]);
  Alcotest.(check bool) "empty collection yields no atoms" true
    (Rel.atoms_of_path schema t2 [ "A"; "A1" ] = [])

let test_project () =
  let r = Rel.project schema [ [ "ID" ]; [ "A"; "A2" ] ] ~dedup:false [ t1; t2 ] in
  Alcotest.(check string) "projected schema" "ID, A(A2)" (Rel.schema_to_string r.Rel.schema);
  (match r.Rel.tuples with
  | [ u1; _ ] ->
      Alcotest.(check bool) "nested projection" true
        (Rel.equal_tuple u1 [| a (i 1); n [ [| a (i 10) |]; [| a (i 20) |] ] |])
  | _ -> Alcotest.fail "wrong arity");
  let dup = Rel.project schema [ [ "B" ] ] ~dedup:true [ t1; t1; t2 ] in
  Alcotest.(check int) "dedup projection" 2 (Rel.cardinality dup)

let test_null_and_concat () =
  let nt = Rel.null_tuple schema in
  Alcotest.(check bool) "null tuple shape" true
    (Rel.equal_tuple nt [| a V.Null; n []; a V.Null |]);
  let c = Rel.concat_tuples t1 [| a (i 9) |] in
  Alcotest.(check int) "concat width" 4 (Array.length c)

let test_set_ops () =
  let r1 = Rel.make schema [ t1; t2 ] and r2 = Rel.make schema [ t2 ] in
  Alcotest.(check int) "union" 3 (Rel.cardinality (Rel.union r1 r2));
  Alcotest.(check int) "difference" 1 (Rel.cardinality (Rel.difference r1 r2));
  Alcotest.(check bool) "equal_unordered" true
    (Rel.equal_unordered (Rel.make schema [ t2; t1 ]) r1);
  Alcotest.(check bool) "equal_unordered distinguishes" false
    (Rel.equal_unordered r1 r2)

let test_sort () =
  let sch = [ Rel.atom "K" ] in
  let r = Rel.make sch [ [| a (i 3) |]; [| a (i 1) |]; [| a (i 2) |] ] in
  let sorted = Rel.sort_by sch [ "K" ] r in
  Alcotest.(check bool) "sorted" true
    (List.map (fun t -> Rel.atom_field t 0) sorted.Rel.tuples = [ i 1; i 2; i 3 ])

(* Deduplication is structural: a tuple that repeats one shared field
   equals a tuple built from two copies of it, and only the first of the
   two survives, in place. *)
let test_dedup_ignores_sharing () =
  let fresh () = a (s (String.concat "" [ "sha"; "red" ])) in
  let v = fresh () in
  let shared = [| v; v |] and copies = [| fresh (); fresh () |] in
  Alcotest.(check bool) "equal tuples" true (Rel.equal_tuple shared copies);
  (match Rel.dedup_tuples [ shared; t2; copies ] with
  | [ first; second ] ->
      Alcotest.(check bool) "first occurrence kept" true (first == shared);
      Alcotest.(check bool) "order kept" true (second == t2)
  | l -> Alcotest.failf "expected 2 tuples, got %d" (List.length l));
  Alcotest.(check int) "nested sharing" 1
    (List.length (Rel.dedup_tuples [ [| n [ shared; shared ] |]; [| n [ copies; copies ] |] ]))

(* Atomic values of document text: an integer exactly when
   [int_of_string] accepts the text. *)
let literal_prop =
  QCheck2.Test.make ~name:"of_string_literal parses what int_of_string parses" ~count:500
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      oneof
        [ string_small;
          map string_of_int int;
          map2 ( ^ ) (oneofl [ "+"; "-"; " "; "0x"; "0b"; "_"; "" ]) (map string_of_int nat) ])
    (fun s ->
      V.equal (V.of_string_literal s)
        (match int_of_string_opt s with Some i -> V.Int i | None -> V.Str s))

let () =
  Alcotest.run "rel"
    [ ( "rel",
        [ Alcotest.test_case "schema operations" `Quick test_schema_ops;
          Alcotest.test_case "path navigation" `Quick test_paths;
          Alcotest.test_case "projection" `Quick test_project;
          Alcotest.test_case "nulls and concatenation" `Quick test_null_and_concat;
          Alcotest.test_case "set operations" `Quick test_set_ops;
          Alcotest.test_case "sorting" `Quick test_sort;
          Alcotest.test_case "dedup ignores physical sharing" `Quick
            test_dedup_ignores_sharing;
          QCheck_alcotest.to_alcotest literal_prop ] ) ]
