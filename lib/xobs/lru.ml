(* Recency is a monotonically increasing tick per entry. Eviction scans
   for the minimal tick — O(capacity), which is trivial next to the
   rewriting work a cache miss costs (capacities are in the hundreds). *)

type 'a entry = { value : 'a; mutable tick : int }

type lru_metrics = { m_entries : Metrics.gauge; m_evictions : Metrics.counter }

type 'a t = {
  capacity : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  m : lru_metrics option;
}

let create ?metrics capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  let m =
    Option.map
      (fun reg ->
        { m_entries =
            Metrics.gauge reg "plan_cache_entries" ~help:"live plan_cache entries";
          m_evictions =
            Metrics.counter reg "plan_cache_evictions_total"
              ~help:"plan_cache entries evicted by capacity" })
      metrics
  in
  { capacity; table = Hashtbl.create (min capacity 1024); clock = 0; m }

let sync_gauge t =
  match t.m with
  | Some m -> Metrics.set_gauge m.m_entries (float_of_int (Hashtbl.length t.table))
  | None -> ()

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e ->
      touch t e;
      Some e.value

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, tick) when tick <= e.tick -> acc
        | _ -> Some (key, e.tick))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      (match t.m with Some m -> Metrics.incr m.m_evictions | None -> ())
  | None -> ()

let add t key value =
  Hashtbl.remove t.table key;
  if Hashtbl.length t.table >= t.capacity then evict_lru t;
  let e = { value; tick = 0 } in
  touch t e;
  Hashtbl.add t.table key e;
  sync_gauge t

let length t = Hashtbl.length t.table
