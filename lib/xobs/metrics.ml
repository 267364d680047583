type counter = { c_name : string; c : int Atomic.t }
type gauge = { g_name : string; g : float Atomic.t }

let bucket_count = 28

let bucket_upper i =
  if i >= bucket_count - 1 then Float.infinity
  else 1e-6 *. float_of_int (1 lsl i)

type histogram = {
  h_name : string;
  counts : int Atomic.t array;
  sum_ns : int Atomic.t;
}

(* A labeled family: one registered name, a bounded table of children
   keyed by their label-value list. Child creation takes the family
   mutex; recording into a child stays atomic, so the cost of labels is
   one short critical section per lookup, not per observation. Once the
   table holds [f_cap] distinct label sets, further values collapse into
   a single shared overflow child whose label values are all ["other"] —
   the hard cardinality cap a hostile or buggy tenant name cannot
   breach. *)
type 'a family = {
  f_name : string;
  f_labels : string list;
  f_cap : int;
  f_lock : Mutex.t;
  f_children : (string list, 'a) Hashtbl.t;
  mutable f_other : 'a option;
  f_make : unit -> 'a;
}

type counter_family = counter family
type histogram_family = histogram family

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Counter_family of counter_family
  | Histogram_family of histogram_family

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name
  | Counter_family f -> f.f_name
  | Histogram_family f -> f.f_name

type registry = {
  lock : Mutex.t;
  table : (string, string * metric) Hashtbl.t;  (* name -> help, metric *)
}

let create () = { lock = Mutex.create (); table = Hashtbl.create 32 }

let register r ?(help = "") name make kind_of =
  Mutex.lock r.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock r.lock)
    (fun () ->
      match Hashtbl.find_opt r.table name with
      | Some (_, m) -> (
          match kind_of m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered as another kind" name))
      | None ->
          let v, m = make () in
          Hashtbl.replace r.table name (help, m);
          v)

let counter r ?help name =
  register r ?help name
    (fun () ->
      let c = { c_name = name; c = Atomic.make 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c.c 1)
let add c n = ignore (Atomic.fetch_and_add c.c n)
let counter_value c = Atomic.get c.c

let gauge r ?help name =
  register r ?help name
    (fun () ->
      let g = { g_name = name; g = Atomic.make 0.0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.g v

(* CAS loop on the boxed float: [Atomic.get] returns the stored box, so
   the compare-and-set is against the exact word we read. *)
let rec add_gauge g d =
  let old = Atomic.get g.g in
  if not (Atomic.compare_and_set g.g old (old +. d)) then add_gauge g d

let gauge_value g = Atomic.get g.g

let histogram r ?help name =
  register r ?help name
    (fun () ->
      let h =
        { h_name = name;
          counts = Array.init bucket_count (fun _ -> Atomic.make 0);
          sum_ns = Atomic.make 0 }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

(* The finite bounds, computed once: a float array is stored unboxed, so
   the search below reads them without allocating. *)
let bounds = Array.init (bucket_count - 1) bucket_upper

let bucket_of v =
  let i = ref 0 in
  while !i < bucket_count - 1 && not (v <= bounds.(!i)) do
    i := !i + 1
  done;
  !i

let observe h v =
  if Float.is_finite v && v >= 0.0 then begin
    ignore (Atomic.fetch_and_add h.counts.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.sum_ns (int_of_float (Float.round (v *. 1e9))))
  end

let observe_ms h ms = observe h (ms /. 1000.0)

type snapshot = { counts : int array; count : int; sum_ns : int }

let snapshot (h : histogram) =
  let counts = Array.map Atomic.get h.counts in
  { counts;
    count = Array.fold_left ( + ) 0 counts;
    sum_ns = Atomic.get h.sum_ns }

let empty_snapshot =
  { counts = Array.make bucket_count 0; count = 0; sum_ns = 0 }

let sum_s s = float_of_int s.sum_ns /. 1e9

let merge a b =
  { counts = Array.init bucket_count (fun i -> a.counts.(i) + b.counts.(i));
    count = a.count + b.count;
    sum_ns = a.sum_ns + b.sum_ns }

let percentile s q =
  if s.count = 0 then 0.0
  else
    let rank =
      min s.count (max 1 (int_of_float (Float.ceil (q *. float_of_int s.count))))
    in
    (* Ranks landing in the overflow bucket clamp to the last finite
       bucket bound: an estimator that answers [inf] poisons every
       Prometheus exposition and JSONL line it reaches, while the clamp is
       the honest "at least this much" the histogram actually knows. *)
    let last_finite = bucket_upper (bucket_count - 2) in
    let rec go i acc =
      if i >= bucket_count then last_finite
      else
        let acc = acc + s.counts.(i) in
        if acc >= rank then Float.min (bucket_upper i) last_finite
        else go (i + 1) acc
    in
    go 0 0

(* --- Labeled families -------------------------------------------------- *)

let family_make name labels cap make_child =
  if labels = [] then invalid_arg (Printf.sprintf "Metrics: %s: empty label list" name);
  { f_name = name;
    f_labels = labels;
    f_cap = max 1 cap;
    f_lock = Mutex.create ();
    f_children = Hashtbl.create 8;
    f_other = None;
    f_make = make_child }

let family_check name labels f =
  if f.f_labels <> labels then
    invalid_arg
      (Printf.sprintf "Metrics: %s already registered with labels (%s)" name
         (String.concat "," f.f_labels))
  else f

let counter_family r ?help ?(max_children = 64) name ~labels =
  register r ?help name
    (fun () ->
      let f =
        family_make name labels max_children (fun () ->
            { c_name = name; c = Atomic.make 0 })
      in
      (f, Counter_family f))
    (function Counter_family f -> Some (family_check name labels f) | _ -> None)

let histogram_family r ?help ?(max_children = 64) name ~labels =
  register r ?help name
    (fun () ->
      let f =
        family_make name labels max_children (fun () ->
            { h_name = name;
              counts = Array.init bucket_count (fun _ -> Atomic.make 0);
              sum_ns = Atomic.make 0 })
      in
      (f, Histogram_family f))
    (function Histogram_family f -> Some (family_check name labels f) | _ -> None)

let overflow_values f = List.map (fun _ -> "other") f.f_labels

let family_child f values =
  if List.length values <> List.length f.f_labels then
    invalid_arg
      (Printf.sprintf "Metrics: %s expects %d label value(s), got %d" f.f_name
         (List.length f.f_labels) (List.length values));
  Mutex.lock f.f_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock f.f_lock)
    (fun () ->
      let overflow () =
        match f.f_other with
        | Some v -> v
        | None ->
            let v = f.f_make () in
            f.f_other <- Some v;
            v
      in
      (* The all-["other"] key is reserved for the overflow child so the
         exposition can never emit two series with identical labels. *)
      if values = overflow_values f then overflow ()
      else
        match Hashtbl.find_opt f.f_children values with
        | Some v -> v
        | None ->
            if Hashtbl.length f.f_children >= f.f_cap then overflow ()
            else begin
              let v = f.f_make () in
              Hashtbl.replace f.f_children values v;
              v
            end)

let counter_in : counter_family -> string list -> counter = family_child
let histogram_in : histogram_family -> string list -> histogram = family_child

let family_children f =
  Mutex.lock f.f_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock f.f_lock)
    (fun () ->
      let kids = Hashtbl.fold (fun k v acc -> (k, v) :: acc) f.f_children [] in
      let kids =
        match f.f_other with Some v -> (overflow_values f, v) :: kids | None -> kids
      in
      List.sort (fun (a, _) (b, _) -> compare a b) kids)

let counter_children : counter_family -> (string list * counter) list =
  family_children

let histogram_children : histogram_family -> (string list * histogram) list =
  family_children

let counter_family_labels (f : counter_family) = f.f_labels
let histogram_family_labels (f : histogram_family) = f.f_labels

let merge_labeled a b =
  let tbl = Hashtbl.create 8 in
  let absorb =
    List.iter (fun (k, s) ->
        match Hashtbl.find_opt tbl k with
        | Some s0 -> Hashtbl.replace tbl k (merge s0 s)
        | None -> Hashtbl.replace tbl k s)
  in
  absorb a;
  absorb b;
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) tbl []
  |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)

let metrics r =
  Mutex.lock r.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock r.lock)
    (fun () ->
      Hashtbl.fold (fun name (help, m) acc -> (name, help, m) :: acc) r.table []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b))
