(* Micro-batching queue. One mutex guards the queue and every request's
   state; the batching thread is the only caller of [exec], so kernels
   that assume a single caller (the La.Pool substrate) are safe.

   OCaml's Condition has no timed wait, so the close-the-batch timeout
   is implemented by polling: when a batch is open but neither full nor
   expired, the worker sleeps a quantum (max_wait/8, clamped to
   [50µs, 1ms], and never past the linger) and re-checks. The quantum
   only bounds how precisely the linger is honored, not correctness. *)

type error = Overloaded | Deadline_exceeded | Expired | Rejected of string

let error_code = function
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Expired -> "expired"
  | Rejected _ -> "rejected"

type 'b state = Waiting | Done of 'b | Failed of error

type ('k, 'a, 'b) request = {
  key : 'k;
  payload : 'a;
  deadline : float option;
  enqueued : float;
  mutable state : 'b state;
}

type ('k, 'a, 'b) t = {
  m : Analysis.Sync.t;
  work : Analysis.Sync.cond;  (* signaled on submit and stop *)
  done_ : Analysis.Sync.cond;  (* broadcast when any request completes *)
  max_batch : int;
  max_wait : float;
  queue_bound : int;
  metrics : Metrics.t;
  size : 'a -> int;
  exec : 'k -> 'a array -> ('b, string) result array;
  queue : ('k, 'a, 'b) request Queue.t;
  mutable exec_ewma : float;  (* recent batch execution time, seconds *)
  mutable timed : bool;  (* whether exec_ewma holds a measurement yet *)
  key_ewma : ('k, float) Hashtbl.t;  (* the same, per batch key *)
  mutable stopped : bool;
  mutable thread : Thread.t option;
}

let now () = Clock.wall ()

let finish t req outcome =
  req.state <- outcome ;
  match outcome with
  | Failed e -> Metrics.record_error t.metrics ~code:(error_code e)
  | _ -> ()

(* Remove and complete every queued request whose deadline has passed —
   and, deadline-aware admission, every request whose remaining budget
   is smaller than what a batch execution is currently costing: it
   *will* be late, so shed it now with [Expired] instead of burning a
   batch slot to produce a silently-late answer. *)
let drop_expired t at =
  let keep = Queue.create () in
  let dropped = ref false in
  Queue.iter
    (fun req ->
      match req.deadline with
      | Some d when d < at ->
        finish t req (Failed Deadline_exceeded) ;
        dropped := true
      | Some d when d < at +. t.exec_ewma ->
        finish t req (Failed Expired) ;
        dropped := true
      | _ -> Queue.push req keep)
    t.queue ;
  if !dropped then begin
    Queue.clear t.queue ;
    Queue.transfer keep t.queue ;
    Analysis.Sync.broadcast t.done_
  end

(* Extract up to [max_batch] requests whose key equals the head's,
   preserving order; the rest stay queued. *)
let take_batch t key =
  let batch = ref [] and nbatch = ref 0 in
  let keep = Queue.create () in
  Queue.iter
    (fun req ->
      if !nbatch < t.max_batch && req.key = key then begin
        batch := req :: !batch ;
        incr nbatch
      end
      else Queue.push req keep)
    t.queue ;
  Queue.clear t.queue ;
  Queue.transfer keep t.queue ;
  Array.of_list (List.rev !batch)

let same_key_pending t key =
  let n = ref 0 in
  Queue.iter (fun req -> if req.key = key then incr n) t.queue ;
  !n

let quantum t = Float.min 1e-3 (Float.max 5e-5 (t.max_wait /. 8.0))

(* How long the head may wait for company. Lingering longer than a
   batch takes to execute costs the head more latency than merging can
   save, so once a batch of the head's key has been timed the linger is
   capped at that key's recent execution time; max_wait caps it always.
   The cost is per key because keys differ by orders of magnitude: a
   prepared id batch takes microseconds, a predicate mask or a Naive
   Bayes batch scans the whole table. *)
let linger t key =
  match Hashtbl.find_opt t.key_ewma key with
  | Some e -> Float.min t.max_wait e
  | None -> t.max_wait

(* Keys are unbounded over a server's life (every model version and
   predicate is one), so the per-key table is emptied when it reaches
   this size; a key seen afresh lingers max_wait until it is timed. *)
let max_timed_keys = 1024

let ewma prev dt = (0.8 *. prev) +. (0.2 *. dt)

let record_exec_time t key dt =
  t.exec_ewma <- (if t.timed then ewma t.exec_ewma dt else dt) ;
  t.timed <- true ;
  match Hashtbl.find_opt t.key_ewma key with
  | Some e -> Hashtbl.replace t.key_ewma key (ewma e dt)
  | None ->
    if Hashtbl.length t.key_ewma >= max_timed_keys then Hashtbl.reset t.key_ewma ;
    Hashtbl.add t.key_ewma key dt

let run_batch t batch =
  let payloads = Array.map (fun r -> r.payload) batch in
  let key = batch.(0).key in
  let rows = Array.fold_left (fun acc p -> acc + t.size p) 0 payloads in
  let exec_t0 = now () in
  let results =
    match
      Fault.point "batcher.exec" ;
      t.exec key payloads
    with
    | results when Array.length results = Array.length batch -> results
    | results ->
      let msg =
        Printf.sprintf "executor returned %d results for %d requests"
          (Array.length results) (Array.length batch)
      in
      Array.map (fun _ -> Error msg) batch
    | exception e -> Array.map (fun _ -> Error (Printexc.to_string e)) batch
  in
  let exec_dt = now () -. exec_t0 in
  Analysis.Sync.lock t.m ;
  record_exec_time t key exec_dt ;
  Metrics.record_batch t.metrics ~requests:(Array.length batch) ~rows ;
  Array.iteri
    (fun i req ->
      match results.(i) with
      | Ok b -> finish t req (Done b)
      | Error msg -> finish t req (Failed (Rejected msg)))
    batch ;
  Analysis.Sync.broadcast t.done_ ;
  Analysis.Sync.unlock t.m

let rec worker t =
  Analysis.Sync.lock t.m ;
  while Queue.is_empty t.queue && not t.stopped do
    Analysis.Sync.wait t.work t.m
  done ;
  if Queue.is_empty t.queue && t.stopped then Analysis.Sync.unlock t.m
  else begin
    drop_expired t (now ()) ;
    if Queue.is_empty t.queue then begin
      Analysis.Sync.unlock t.m ;
      worker t
    end
    else begin
      let head = Queue.peek t.queue in
      let full = same_key_pending t head.key >= t.max_batch in
      let left = linger t head.key -. (now () -. head.enqueued) in
      if full || left <= 0.0 || t.stopped then begin
        let batch = take_batch t head.key in
        Analysis.Sync.unlock t.m ;
        if Array.length batch > 0 then run_batch t batch ;
        worker t
      end
      else begin
        Analysis.Sync.unlock t.m ;
        Thread.delay (Float.min (quantum t) left) ;
        worker t
      end
    end
  end

let create ?(max_batch = 64) ?(max_wait = 2e-3) ?(queue_bound = 1024) ~metrics
    ~size ~exec () =
  if max_batch < 1 then invalid_arg "Batcher.create: max_batch < 1" ;
  if max_wait < 0.0 then invalid_arg "Batcher.create: negative max_wait" ;
  if queue_bound < 1 then invalid_arg "Batcher.create: queue_bound < 1" ;
  let t =
    { m = Analysis.Sync.create ~name:"serve.batcher" ();
      work = Analysis.Sync.condition ();
      done_ = Analysis.Sync.condition ();
      max_batch;
      max_wait;
      queue_bound;
      metrics;
      size;
      exec;
      queue = Queue.create ();
      exec_ewma = 0.0;
      timed = false;
      key_ewma = Hashtbl.create 16;
      stopped = false;
      thread = None
    }
  in
  t.thread <- Some (Thread.create worker t) ;
  t

let submit t ?deadline key payload =
  (* before the enqueue: a fault here means the request was never
     queued, so the caller's error reply is still its exactly-one
     reply *)
  Fault.point "batcher.submit" ;
  Analysis.Sync.lock t.m ;
  if t.stopped then begin
    Analysis.Sync.unlock t.m ;
    Metrics.record_error t.metrics ~code:"rejected" ;
    Error (Rejected "server shutting down")
  end
  else if Queue.length t.queue >= t.queue_bound then begin
    Analysis.Sync.unlock t.m ;
    Metrics.record_error t.metrics ~code:"overloaded" ;
    Metrics.record_shed t.metrics ;
    Error Overloaded
  end
  else begin
    let req = { key; payload; deadline; enqueued = now (); state = Waiting } in
    Queue.push req t.queue ;
    Analysis.Sync.signal t.work ;
    let rec await () =
      match req.state with
      | Waiting ->
        Analysis.Sync.wait t.done_ t.m ;
        await ()
      | Done b -> Ok b
      | Failed e -> Error e
    in
    let result = await () in
    Analysis.Sync.unlock t.m ;
    result
  end

let pending t =
  Analysis.Sync.lock t.m ;
  let n = Queue.length t.queue in
  Analysis.Sync.unlock t.m ;
  n

let stop t =
  Analysis.Sync.lock t.m ;
  let th = t.thread in
  t.stopped <- true ;
  t.thread <- None ;
  Analysis.Sync.broadcast t.work ;
  Analysis.Sync.unlock t.m ;
  match th with Some th -> Thread.join th | None -> ()
