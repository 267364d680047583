(* A fixed-size domain pool without work stealing: each parallel operation
   publishes one batch closure; the caller and every worker claim chunk
   indices from a shared atomic counter until the batch is exhausted.
   Results are written into per-index slots, so the output order is
   deterministic whatever the claim interleaving — and at [domains = 1]
   every entry point is literally [Array.map]. *)

type batch = { epoch : int; job : unit -> unit }

type t = {
  domains : int;  (* total parallelism, including the calling domain *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable batch : batch option;
  mutable epoch : int;
  mutable stop : bool;
  busy : bool Atomic.t;  (* one parallel operation in flight at a time *)
  mutable workers : unit Domain.t array;
}

let recommended_domains () = max 1 (min 16 (Domain.recommended_domain_count ()))

(* The pool-worker index, for tagging traces with the domain that ran a
   query: workers are 1..domains-1, the calling (or any foreign) domain
   reads the default 0. *)
let ix_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let self_index () = Domain.DLS.get ix_key

let rec worker_loop pool seen =
  Mutex.lock pool.lock;
  while (not pool.stop) && pool.epoch = seen do
    Condition.wait pool.cond pool.lock
  done;
  if pool.stop then Mutex.unlock pool.lock
  else begin
    let seen = pool.epoch in
    let job = pool.batch in
    Mutex.unlock pool.lock;
    (match job with Some b when b.epoch = seen -> b.job () | _ -> ());
    worker_loop pool seen
  end

let create ?domains () =
  let domains =
    match domains with Some d -> max 1 d | None -> recommended_domains ()
  in
  let pool =
    { domains;
      lock = Mutex.create ();
      cond = Condition.create ();
      batch = None;
      epoch = 0;
      stop = false;
      busy = Atomic.make false;
      workers = [||] }
  in
  pool.workers <-
    Array.init (domains - 1) (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set ix_key (i + 1);
            worker_loop pool 0));
  pool

let domains t = t.domains

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

(* Run [run_chunk 0 .. run_chunk (chunks-1)], each exactly once, across
   the pool. The caller participates; completion is tracked by an atomic
   so a worker that wakes late (after the caller already drained every
   chunk) finds nothing to claim and goes back to sleep harmlessly.

   The caller must NOT spin for stragglers: a worker that claimed a chunk
   and was then descheduled (routine on a host with fewer cores than
   domains) leaves the caller burning its own core — the exact pathology
   behind parallel runs measuring slower than sequential ones. Instead
   the finisher of the last chunk broadcasts the pool's condition
   variable and the caller sleeps on it; checking [completed] under the
   same lock the broadcast takes makes the wakeup race-free. *)
let run_chunks t ~chunks run_chunk =
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let failure = Atomic.make None in
  let job () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < chunks then begin
        (match Atomic.get failure with
        | Some _ -> ()  (* an earlier chunk failed: drain without working *)
        | None -> (
            try run_chunk i
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)))));
        if Atomic.fetch_and_add completed 1 + 1 = chunks then begin
          Mutex.lock t.lock;
          Condition.broadcast t.cond;
          Mutex.unlock t.lock
        end;
        go ()
      end
    in
    go ()
  in
  Mutex.lock t.lock;
  t.epoch <- t.epoch + 1;
  t.batch <- Some { epoch = t.epoch; job };
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  job ();
  Mutex.lock t.lock;
  while Atomic.get completed < chunks do
    Condition.wait t.cond t.lock
  done;
  t.batch <- None;
  Mutex.unlock t.lock;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map_array t f arr =
  let n = Array.length arr in
  if t.domains <= 1 || n <= 1 then Array.map f arr
  else if not (Atomic.compare_and_set t.busy false true) then
    (* Re-entrant use (a parallel stage nested inside another): degrade to
       the sequential path rather than deadlock on the single batch slot. *)
    Array.map f arr
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.busy false)
      (fun () ->
        let out = Array.make n None in
        let chunk = max 1 (n / (t.domains * 4)) in
        let chunks = (n + chunk - 1) / chunk in
        run_chunks t ~chunks (fun ci ->
            let lo = ci * chunk and hi = min n ((ci + 1) * chunk) in
            for i = lo to hi - 1 do
              out.(i) <- Some (f arr.(i))
            done);
        Array.map
          (function Some v -> v | None -> invalid_arg "Pool.map_list: lost slot")
          out)

let map_list t f l = Array.to_list (map_array t f (Array.of_list l))
