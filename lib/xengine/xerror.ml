type dimension = Deadline | Tuples | Steps

type t =
  | Parse_error of string
  | Extract_error of string
  | No_rewriting of string
  | Plan_error of string
  | Exec_error of string
  | Storage_fault of { module_name : string; reason : string }
  | Catalog_invalid of { module_name : string; reason : string }
  | Budget_exceeded of { dimension : dimension; limit : float }
  | Snapshot_error of { path : string; reason : string }
  | Update_invalid of string
  | Wal_error of { path : string; reason : string }

exception Error of t

let get_exn = function Ok v -> v | Error e -> raise (Error e)

let of_dimension = function
  | Xalgebra.Physical.Deadline -> Deadline
  | Xalgebra.Physical.Tuples -> Tuples
  | Xalgebra.Physical.Steps -> Steps

let dimension_string = function
  | Deadline -> "deadline"
  | Tuples -> "tuples"
  | Steps -> "steps"

let stage = function
  | Parse_error _ -> "parse"
  | Extract_error _ -> "extract"
  | No_rewriting _ -> "rewrite"
  | Plan_error _ -> "plan"
  | Exec_error _ -> "execute"
  | Storage_fault _ -> "storage"
  | Catalog_invalid _ -> "catalog"
  | Budget_exceeded _ -> "budget"
  | Snapshot_error _ -> "snapshot"
  | Update_invalid _ -> "update"
  | Wal_error _ -> "wal"

let pp ppf = function
  | Parse_error m -> Format.fprintf ppf "parse error: %s" m
  | Extract_error m -> Format.fprintf ppf "extract error: %s" m
  | No_rewriting m -> Format.fprintf ppf "no rewriting: %s" m
  | Plan_error m -> Format.fprintf ppf "planning error: %s" m
  | Exec_error m -> Format.fprintf ppf "execution error: %s" m
  | Storage_fault { module_name; reason } ->
      Format.fprintf ppf "storage fault in module %S: %s" module_name reason
  | Catalog_invalid { module_name; reason } ->
      Format.fprintf ppf "invalid catalog: module %S: %s" module_name reason
  | Budget_exceeded { dimension; limit } ->
      Format.fprintf ppf "budget exceeded: %s limit %g" (dimension_string dimension)
        limit
  | Snapshot_error { path; reason } ->
      Format.fprintf ppf "snapshot error in %S: %s" path reason
  | Update_invalid m -> Format.fprintf ppf "invalid update: %s" m
  | Wal_error { path; reason } ->
      Format.fprintf ppf "wal error in %S: %s" path reason

let to_string e = Format.asprintf "%a" pp e

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Xengine.Xerror.Error: " ^ to_string e)
    | _ -> None)
