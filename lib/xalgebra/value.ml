type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Id of Xdm.Nid.t

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Id x, Id y -> Xdm.Nid.equal x y
  | (Null | Bool _ | Int _ | Str _ | Id _), _ -> false

let rank = function Null -> 0 | Bool _ -> 1 | Int _ -> 2 | Str _ -> 3 | Id _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Id x, Id y -> Xdm.Nid.compare x y
  | _ -> Int.compare (rank a) (rank b)

let as_int = function
  | Int i -> Some i
  | Str s -> int_of_string_opt (String.trim s)
  | Null | Bool _ | Id _ -> None

let compare_typed a b =
  match (as_int a, as_int b) with
  | Some x, Some y -> Int.compare x y
  | _ -> compare a b

let is_null = function Null -> true | Bool _ | Int _ | Str _ | Id _ -> false

(* [int_of_string] accepts only a sign or a digit first; checking that
   spares most text the raised-and-caught parse failure. *)
let of_string_literal s =
  let numeric_start =
    String.length s > 0 && match s.[0] with '0' .. '9' | '-' | '+' -> true | _ -> false
  in
  match if numeric_start then int_of_string_opt s else None with
  | Some i -> Int i
  | None -> Str s

let to_display = function
  | Null -> "⊥"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "%S" s
  | Id id -> Xdm.Nid.to_string id

let pp ppf v = Format.pp_print_string ppf (to_display v)

let hash = function
  | Null -> 17
  | Bool b -> Hashtbl.hash b
  | Int i -> Hashtbl.hash i
  | Str s -> Hashtbl.hash s
  | Id id -> Xdm.Nid.hash id
