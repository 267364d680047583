module Value = Xalgebra.Value
module Pred = Xalgebra.Pred

(* A formula is a sorted list of disjoint, non-adjacent intervals. *)
type ibound = Neg_inf | Incl of Value.t | Excl of Value.t | Pos_inf
type interval = { lo : ibound; hi : ibound }
type t = interval list

let tt = [ { lo = Neg_inf; hi = Pos_inf } ]
let ff = []

(* Integer discreteness: push exclusive integer bounds to inclusive ones. *)
let norm_lo = function
  | Excl (Value.Int n) -> Incl (Value.Int (n + 1))
  | b -> b

let norm_hi = function
  | Excl (Value.Int n) -> Incl (Value.Int (n - 1))
  | b -> b

(* Compare two lower bounds / two upper bounds. *)
let cmp_lo a b =
  match (a, b) with
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, Pos_inf -> 0
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | (Incl x | Excl x), (Incl y | Excl y) ->
      let c = Value.compare x y in
      if c <> 0 then c
      else (
        match (a, b) with
        | Incl _, Excl _ -> -1 (* [x starts before (x *)
        | Excl _, Incl _ -> 1
        | _ -> 0)

let cmp_hi a b =
  match (a, b) with
  | Pos_inf, Pos_inf -> 0
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | (Incl x | Excl x), (Incl y | Excl y) ->
      let c = Value.compare x y in
      if c <> 0 then c
      else (
        match (a, b) with
        | Incl _, Excl _ -> 1 (* x] ends after x) *)
        | Excl _, Incl _ -> -1
        | _ -> 0)

let nonempty { lo; hi } =
  match (lo, hi) with
  | Pos_inf, _ | _, Neg_inf -> false
  | Neg_inf, _ | _, Pos_inf -> true
  | (Incl x | Excl x), (Incl y | Excl y) -> (
      let c = Value.compare x y in
      if c < 0 then
        (* For integers, (n, n+1) is empty. *)
        match (lo, hi) with
        | Excl (Value.Int a), Excl (Value.Int b) -> b - a > 1
        | _ -> true
      else if c > 0 then false
      else match (lo, hi) with Incl _, Incl _ -> true | _ -> false)

let mk lo hi =
  let iv = { lo = norm_lo lo; hi = norm_hi hi } in
  if nonempty iv then [ iv ] else []

let eq c = mk (Incl c) (Incl c)
let lt c = mk Neg_inf (Excl c)
let le c = mk Neg_inf (Incl c)
let gt c = mk (Excl c) Pos_inf
let ge c = mk (Incl c) Pos_inf

(* Do two intervals overlap or touch (so their union is one interval)? *)
let hi_then_lo_contiguous hi lo =
  match (hi, lo) with
  | Pos_inf, _ | _, Neg_inf -> true
  | Neg_inf, _ | _, Pos_inf -> false
  | (Incl x | Excl x), (Incl y | Excl y) -> (
      let c = Value.compare x y in
      if c > 0 then true
      else if c < 0 then (
        match (hi, lo) with
        | Incl (Value.Int a), Incl (Value.Int b) -> b - a <= 1
        | _ -> false)
      else
        match (hi, lo) with
        | Excl _, Excl _ -> false (* x) followed by (x leaves a hole at x *)
        | _ -> true)

let normalize intervals =
  let sorted = List.sort (fun a b -> cmp_lo a.lo b.lo) (List.filter nonempty intervals) in
  let rec merge = function
    | a :: b :: rest ->
        if hi_then_lo_contiguous a.hi b.lo then
          let hi = if cmp_hi a.hi b.hi >= 0 then a.hi else b.hi in
          merge ({ lo = a.lo; hi } :: rest)
        else a :: merge (b :: rest)
    | l -> l
  in
  merge sorted

let disj a b = normalize (a @ b)
let disj_all l = normalize (List.concat l)

let inter_interval a b =
  let lo = if cmp_lo a.lo b.lo >= 0 then a.lo else b.lo in
  let hi = if cmp_hi a.hi b.hi <= 0 then a.hi else b.hi in
  let iv = { lo; hi } in
  if nonempty iv then Some iv else None

let conj a b =
  normalize (List.concat_map (fun x -> List.filter_map (inter_interval x) b) a)

(* A closed lower bound flips into an open upper bound of the complement
   gap, and vice versa. *)
let gap_hi_of_lo = function
  | Neg_inf -> None (* nothing before -∞ *)
  | Incl v -> Some (Excl v)
  | Excl v -> Some (Incl v)
  | Pos_inf -> Some Pos_inf

let gap_lo_of_hi = function
  | Pos_inf -> None (* nothing after +∞ *)
  | Incl v -> Some (Excl v)
  | Excl v -> Some (Incl v)
  | Neg_inf -> Some Neg_inf

let neg intervals =
  let rec go prev_lo = function
    | [] -> ( match prev_lo with None -> [] | Some lo -> mk lo Pos_inf)
    | { lo; hi } :: rest ->
        let gap =
          match (prev_lo, gap_hi_of_lo lo) with
          | Some glo, Some ghi -> mk glo ghi
          | _ -> []
        in
        gap @ go (gap_lo_of_hi hi) rest
  in
  normalize (go (Some Neg_inf) (normalize intervals))

let ne c = neg (eq c)
let is_sat f = normalize f <> []
let is_true f = match normalize f with [ { lo = Neg_inf; hi = Pos_inf } ] -> true | _ -> false
let implies a b = not (is_sat (conj a (neg b)))

let equal a b = implies a b && implies b a

(* Membership in the union of the intervals: normalizing first would not
   change it (it only drops empty intervals and merges touching ones), so
   the list is read as it is. *)
let holds f v =
  List.exists
    (fun { lo; hi } ->
      (match lo with
      | Neg_inf -> true
      | Pos_inf -> false
      | Incl x -> Value.compare x v <= 0
      | Excl x -> Value.compare x v < 0)
      &&
      match hi with
      | Pos_inf -> true
      | Neg_inf -> false
      | Incl x -> Value.compare v x <= 0
      | Excl x -> Value.compare v x < 0)
    f

let to_pred path f =
  let interval_pred { lo; hi } =
    let lo_p =
      match lo with
      | Neg_inf -> Pred.True
      | Pos_inf -> Pred.False
      | Incl v -> Pred.Cmp (Pred.Col path, Pred.Ge, Pred.Const v)
      | Excl v -> Pred.Cmp (Pred.Col path, Pred.Gt, Pred.Const v)
    in
    let hi_p =
      match hi with
      | Pos_inf -> Pred.True
      | Neg_inf -> Pred.False
      | Incl v -> Pred.Cmp (Pred.Col path, Pred.Le, Pred.Const v)
      | Excl v -> Pred.Cmp (Pred.Col path, Pred.Lt, Pred.Const v)
    in
    match (lo_p, hi_p) with
    | Pred.True, p | p, Pred.True -> p
    | _ -> Pred.And (lo_p, hi_p)
  in
  match normalize f with
  | [] -> Pred.False
  | [ iv ] when iv.lo = Neg_inf && iv.hi = Pos_inf -> Pred.True
  | first :: rest ->
      List.fold_left
        (fun acc iv -> Pred.Or (acc, interval_pred iv))
        (interval_pred first) rest

let pp_bound_lo ppf = function
  | Neg_inf -> Format.pp_print_string ppf "(-∞"
  | Pos_inf -> Format.pp_print_string ppf "(+∞"
  | Incl v -> Format.fprintf ppf "[%a" Value.pp v
  | Excl v -> Format.fprintf ppf "(%a" Value.pp v

let pp_bound_hi ppf = function
  | Pos_inf -> Format.pp_print_string ppf "+∞)"
  | Neg_inf -> Format.pp_print_string ppf "-∞)"
  | Incl v -> Format.fprintf ppf "%a]" Value.pp v
  | Excl v -> Format.fprintf ppf "%a)" Value.pp v

let pp ppf f =
  match normalize f with
  | [] -> Format.pp_print_string ppf "F"
  | [ { lo = Neg_inf; hi = Pos_inf } ] -> Format.pp_print_string ppf "T"
  | intervals ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ∪ ")
        (fun ppf { lo; hi } ->
          match (lo, hi) with
          | Incl a, Incl b when Value.equal a b -> Format.fprintf ppf "{%a}" Value.pp a
          | _ -> Format.fprintf ppf "%a,%a" pp_bound_lo lo pp_bound_hi hi)
        ppf intervals

let to_string f = Format.asprintf "%a" pp f

(* --- Structure access and serialization ---------------------------------- *)

type bound = Unbounded | Inclusive of Value.t | Exclusive of Value.t

let public_lo = function
  | Neg_inf -> Unbounded
  | Incl v -> Inclusive v
  | Excl v -> Exclusive v
  | Pos_inf -> Exclusive (Value.Str "\255unreachable")

let public_hi = function
  | Pos_inf -> Unbounded
  | Incl v -> Inclusive v
  | Excl v -> Exclusive v
  | Neg_inf -> Exclusive (Value.Str "\255unreachable")

let intervals f =
  List.map (fun { lo; hi } -> (public_lo lo, public_hi hi)) (normalize f)

let as_single_interval f =
  match intervals f with [ iv ] -> Some iv | _ -> None

let as_ne f =
  match normalize f with
  | [ { lo = Neg_inf; hi = Excl a }; { lo = Excl b; hi = Pos_inf } ]
    when Value.equal a b ->
      Some a
  | _ -> None

(* The grammar's separators (, ; parens) must never appear raw inside a
   string constant; escape them as decimal [\ddd] sequences, which
   [Scanf.unescaped] decodes along with [String.escaped]'s output. *)
let escape_str s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | ',' | ';' | '(' | ')' -> Buffer.add_string b (Printf.sprintf "\\%03d" (Char.code c))
      | c -> Buffer.add_string b (String.escaped (String.make 1 c)))
    s;
  Buffer.contents b

let serialize_value = function
  | Value.Int i -> Printf.sprintf "i%d" i
  | Value.Str s -> Printf.sprintf "s%s" (escape_str s)
  | Value.Bool b -> Printf.sprintf "b%b" b
  | Value.Null -> "n"
  | Value.Id _ -> invalid_arg "Formula.serialize: identifier constants"

(* Parse errors inside [of_string]; never escapes it. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad ("Formula.of_string: " ^ m))) fmt

let deserialize_value s =
  if String.length s = 0 then bad "empty value"
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'i' -> (
        match int_of_string_opt body with
        | Some i -> Value.Int i
        | None -> bad "bad integer %S" body)
    | 's' -> (
        match Scanf.unescaped body with
        | u -> Value.Str u
        | exception _ -> bad "bad string escape %S" body)
    | 'b' -> (
        match bool_of_string_opt body with
        | Some b -> Value.Bool b
        | None -> bad "bad boolean %S" body)
    | 'n' -> if body = "" then Value.Null else bad "trailing junk after null"
    | _ -> bad "bad value tag in %S" s

let serialize_bound prefix = function
  | Neg_inf | Pos_inf -> ""
  | Incl v -> prefix ^ "=" ^ serialize_value v
  | Excl v -> prefix ^ ">" ^ serialize_value v

let serialize f =
  String.concat ","
    (List.map
       (fun { lo; hi } ->
         Printf.sprintf "(%s;%s)" (serialize_bound "" lo) (serialize_bound "" hi))
       (normalize f))

let of_string s =
  let parse () =
    if String.trim s = "" then ff
    else
      let parse_bound ~is_lo part =
        if part = "" then if is_lo then Neg_inf else Pos_inf
        else if String.length part >= 1 && part.[0] = '=' then
          Incl (deserialize_value (String.sub part 1 (String.length part - 1)))
        else if String.length part >= 1 && part.[0] = '>' then
          Excl (deserialize_value (String.sub part 1 (String.length part - 1)))
        else bad "bad bound %S" part
      in
      String.split_on_char ',' s
      |> List.map (fun group ->
             let group = String.trim group in
             let n = String.length group in
             if n < 3 || group.[0] <> '(' || group.[n - 1] <> ')' then
               bad "bad interval %S" group;
             match String.index_opt group ';' with
             | None -> bad "missing ; in %S" group
             | Some i ->
                 let lo = parse_bound ~is_lo:true (String.sub group 1 (i - 1)) in
                 let hi = parse_bound ~is_lo:false (String.sub group (i + 1) (n - i - 2)) in
                 { lo; hi })
      |> normalize
  in
  match parse () with
  | f -> Ok f
  | exception Bad m -> Error m
  (* Defensive: any stray exception from malformed input is a parse error,
     never an escape — [of_string] is total. *)
  | exception e -> Error ("Formula.of_string: " ^ Printexc.to_string e)

let deserialize s =
  match of_string s with Ok f -> f | Error m -> invalid_arg m
