(* Serving workloads: the CLI's `morpheus serve` (and `morpheus route`)
   run as their own processes, as a deployment runs them, so the load
   generator's threads never share a runtime lock with the server.
   Load comes from two threads, each with one connection.

   serve-ids    closed loop: 2 waiting callers, each sending score_ids of
                8 uniform ids straight to one server on its default
                config; one logreg model over the BENCH_serve dataset
                (n_S = 100k, d_S = 5, n_R = 2000, d_R = 200); reads only.
   serve-mixed  open loop at [mixed_rate] requests/s through `morpheus
                route` to one shard: in every ten requests, 6 score_ids
                (8 ids), 3 score_where (selectivity 0.5-5 %, predicates
                on S and R columns) and 1 score over 8 raw rows. The
                generator also commits a new model version every
                250 ms. Latency counts from each request's due time.

   Every response is checked bitwise against predictions computed
   in-process from the same model version and dataset. *)

open La
open Morpheus
open Morpheus_serve

(* Well below what the deployment sustains (about 185 req/s closed loop
   through the router on a 2-vCPU VM): at 50 req/s the requests queued
   behind score_where often enough that a slower host moved op_p90 by a
   fifth between runs of the same code. *)
let mixed_rate = 30.0
let publish_every = 0.25
let ids_per_request = 8
let where_pool = 48
let now = Workload.Timing.now
let ms x = x *. 1e3
let us x = x *. 1e6

(* ---- processes ---- *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) ;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> Printf.sprintf "127.0.0.1:%d" port
  | _ -> failwith "no port bound"

(* Every child still running; an interrupted run stops them on exit. *)
let children = ref []

let spawn bin argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
  let pid = Unix.create_process bin (Array.of_list (bin :: argv)) Unix.stdin devnull devnull in
  children := pid :: !children ;
  pid

(* SIGTERM, then SIGKILL if the process has not exited within 5 s; always
   reaps it. *)
let stop pid =
  children := List.filter (( <> ) pid) !children ;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) ;
  let deadline = now () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Thread.delay 0.02 ; wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) ;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let () =
  at_exit (fun () -> List.iter stop !children) ;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ]

let await_healthy addr =
  let deadline = now () +. 20.0 in
  let rec go () =
    match Client.health ~socket:addr with
    | Ok _ -> ()
    | Error _ | (exception Unix.Unix_error _) ->
      if now () > deadline then failwith ("endpoint never became healthy: " ^ addr)
      else begin
        Thread.delay 0.002 ;
        go ()
      end
  in
  go ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path) ;
      Sys.rmdir path
    end
    else Sys.remove path

(* ---- generated inputs ---- *)

type inputs = {
  t : Normalized.t;
  weights : Dense.t array;  (** model version v uses weights.((v-1) mod n) *)
  preds : float array array;  (** reference predictions over all rows, per weight *)
  wheres : (Pred.t * int array) array;  (** predicate and its reference mask *)
  raw : Dense.t array;  (** 8-row raw feature blocks *)
}

(* One model version for serve-ids; serve-mixed publishes new versions
   that cycle through four weight vectors. *)
let generate ~smoke ~seed ~mixed =
  let versions = if mixed then 4 else 1 in
  let ns, nr, dr = if smoke then (5_000, 100, 20) else (100_000, 2_000, 200) in
  let d = Workload.Synthetic.pkfk ~seed ~ns ~ds:5 ~nr ~dr () in
  let t = d.Workload.Synthetic.t in
  let rng = Rng.of_int (seed + 1) in
  let dim = Normalized.cols t in
  (* scaled so scores spread over the sigmoid instead of saturating *)
  let weights = Array.init versions (fun _ -> Dense.scale 0.05 (Dense.gaussian ~rng dim 1)) in
  (t, weights, rng)

(* score_where predicates with selectivities spread evenly over 0.5-5 %
   (stratified, so every seed's pool costs about the same), a third each
   on an S column, an R column, and both. Thresholds are empirical
   quantiles over every tenth row of the generated data, rounded so the
   predicate prints short; the reference mask is exact. *)
let predicates t rng count =
  let n = Normalized.rows t in
  let s = Option.get (Normalized.ent t) in
  let part = List.hd (Normalized.parts t) in
  let ds = Sparse.Mat.cols s and dr = Sparse.Mat.cols part.Normalized.mat in
  let sorted = Hashtbl.create 16 in
  let column key g =
    match Hashtbl.find_opt sorted key with
    | Some v -> v
    | None ->
      let v = Array.init (n / 10) (fun i -> g (i * 10)) in
      Array.sort Float.compare v ;
      Hashtbl.add sorted key v ;
      v
  in
  let above col sel name =
    let x = Stat.quantile_sorted col (1.0 -. sel) in
    Pred.Cmp (name, Pred.Gt, float_of_string (Printf.sprintf "%.4f" x))
  in
  Array.init count (fun i ->
      let stratum = i / 3 and strata = count / 3 in
      let sel = 0.005 +. (0.045 *. (float_of_int stratum +. Rng.float rng) /. float_of_int strata) in
      let js = Rng.int rng ds and jr = Rng.int rng dr in
      let s_col () = column (`S js) (fun i -> Sparse.Mat.get s i js) in
      let r_col () =
        column (`R jr) (fun i ->
            Sparse.Mat.get part.Normalized.mat (Sparse.Indicator.col_of_row part.Normalized.ind i) jr)
      in
      let sname = Printf.sprintf "c%d" js and rname = Printf.sprintf "c%d" (ds + jr) in
      let p =
        match i mod 3 with
        | 0 -> above (s_col ()) sel sname
        | 1 -> above (r_col ()) sel rname
        | _ ->
          let a = sqrt sel in
          Pred.And (above (s_col ()) a sname, above (r_col ()) a rname)
      in
      (p, Relalg.mask t p))

let reference ~smoke ~seed ~mixed =
  let t, weights, rng = generate ~smoke ~seed ~mixed in
  let preds = Array.map (fun w -> Artifact.score_normalized (Artifact.Logreg w) t) weights in
  let wheres = if mixed then predicates t rng where_pool else [||] in
  let raw = Array.init 8 (fun _ -> Dense.gaussian ~rng ids_per_request (Normalized.cols t)) in
  { t; weights; preds; wheres; raw }

type request = Ids of int array | Where of int | Rows of int

let kind = function Ids _ -> "score_ids" | Where _ -> "score_where" | Rows _ -> "score"

(* A request stream. The mix comes in blocks of ten requests, each a
   seeded shuffle of 6 score_ids, 3 score_where and 1 raw-row score, so
   every run and seed carries the mix exactly (a per-request draw moved
   the raw-row count by a quarter between seeds, and its p90 with it).
   score_where requests walk a seeded permutation of the predicate pool,
   so each run sees the pool's selectivities evenly. *)
let request_stream ~mixed ~rows rng =
  let order = Array.init where_pool Fun.id in
  Rng.shuffle rng order ;
  let wheres = ref 0 in
  (* 0 score_ids, 1 score_where, 2 raw rows *)
  let block = [| 0; 0; 0; 0; 0; 0; 1; 1; 1; 2 |] in
  let pos = ref (Array.length block) in
  fun () ->
    let ids () = Ids (Array.init ids_per_request (fun _ -> Rng.int rng rows)) in
    if not mixed then ids ()
    else begin
      if !pos = Array.length block then begin
        Rng.shuffle rng block ;
        pos := 0
      end ;
      let k = block.(!pos) in
      incr pos ;
      match k with
      | 0 -> ids ()
      | 1 ->
        incr wheres ;
        Where order.(!wheres mod where_pool)
      | _ -> Rows (Rng.int rng 8)
    end

let target inp ~dataset = function
  | Ids ids -> Protocol.Dataset { dataset; ids }
  | Where k -> Protocol.Dataset_where { dataset; where = fst inp.wheres.(k) }
  | Rows k -> Protocol.Rows (Dense.to_arrays inp.raw.(k))

(* The reference answer for a request served by model version [v]. *)
let expected inp v req =
  let w = (v - 1) mod Array.length inp.weights in
  match req with
  | Ids ids -> Array.map (fun i -> inp.preds.(w).(i)) ids
  | Where k -> Array.map (fun i -> inp.preds.(w).(i)) (snd inp.wheres.(k))
  | Rows k -> Artifact.score_dense (Artifact.Logreg inp.weights.(w)) inp.raw.(k)

let version_of id =
  match String.index_opt id '@' with
  | Some i when i + 2 <= String.length id && id.[i + 1] = 'v' ->
    int_of_string_opt (String.sub id (i + 2) (String.length id - i - 2))
  | _ -> None

(* Check one response: the model id it names and predictions bitwise
   equal to the reference for that version. *)
let verify inp req = function
  | Error (code, msg) -> Error (Printf.sprintf "[%s] %s" code msg)
  | Ok j -> (
    let v = Option.bind (Option.bind (Json.member "model" j) Json.to_str) version_of in
    let p = Option.map Array.of_list (Option.bind (Json.member "predictions" j) Json.float_list) in
    match (v, p) with
    | Some v, Some p when v >= 1 ->
      if Stat.bits_equal p (expected inp v req) then Ok ()
      else Error (Printf.sprintf "%s: predictions differ from the reference (model v%d)" (kind req) v)
    | _ -> Error "response without model id or predictions")

(* ---- the deployment under test ---- *)

type deployment = {
  dataset : string;
  registry : string;
  server : int;
  server_addr : string;
  router : (int * string) option;
  target_addr : string;  (** where the load goes *)
}

let deploy ~bin ~dir ~mixed inp =
  rm_rf dir ;
  Sys.mkdir dir 0o755 ;
  let dataset = Filename.concat dir "ds" and registry = Filename.concat dir "reg" in
  Io.save ~dir:dataset inp.t ;
  ignore
    (Registry.save ~dir:registry ~name:"m" ~schema_hash:(Registry.schema_hash inp.t)
       (Artifact.Logreg inp.weights.(0))) ;
  let server_addr = free_port () in
  (* behind the router the shard gets more handler threads than its
     default 4: the router keeps pooled connections to it, each pinning
     one handler, and the benchmark's own stats calls need a free one *)
  let server =
    spawn bin
      ([ "serve"; "--registry"; registry; "--listen"; server_addr ]
      @ if mixed then [ "--handlers"; "8" ] else [])
  in
  let router = ref None in
  try
    await_healthy server_addr ;
    if mixed then begin
      let addr = free_port () in
      router :=
        Some (spawn bin [ "route"; "--listen"; addr; "--shard"; "s0=" ^ server_addr ], addr) ;
      await_healthy addr
    end ;
    let target_addr = match !router with Some (_, a) -> a | None -> server_addr in
    (* warm: the first score loads the model and the dataset *)
    let warm = Protocol.Dataset { dataset; ids = [| 0 |] } in
    (match
       Client.with_client ~socket:target_addr (fun c ->
           Client.call c (Protocol.Score { model = "m"; target = warm; deadline_ms = None }))
     with
    | Ok _ -> ()
    | Error (code, msg) -> failwith (Printf.sprintf "warm-up request failed: [%s] %s" code msg)) ;
    { dataset; registry; server; server_addr; router = !router; target_addr }
  with e ->
    Option.iter (fun (pid, _) -> stop pid) !router ;
    stop server ;
    raise e

let teardown dep =
  Option.iter (fun (pid, _) -> stop pid) dep.router ;
  stop dep.server

let stats addr =
  match Client.with_client ~socket:addr (fun c -> Client.call c Protocol.Stats) with
  | Ok j -> Option.value ~default:Json.Null (Json.member "stats" j)
  | Error _ -> Json.Null

let num j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  |> Fun.flip Option.bind Json.to_float
  |> Option.value ~default:0.0

(* ---- load ---- *)

type outcome = {
  req : request;
  due : float;  (** when it was due (closed loop: when it was sent) *)
  sent : float;
  done_ : float;
  ok : bool;
}

let mutex_list () =
  let m = Mutex.create () and l = ref [] in
  ((fun x -> Mutex.lock m ; l := x :: !l ; Mutex.unlock m), fun () -> !l)

type load = {
  outcomes : outcome list;
  elapsed : float;
  saves : float list;  (** Registry.save seconds, open loop only *)
  probes : (float * float) array;  (** (time, probe seconds), by time *)
}

(* Host-speed probes during the load (see Stat.probe), at most one per
   [probe_every] seconds per thread. *)
let probe_every = 0.1

let probes () =
  let push, get = mutex_list () in
  let take () =
    let t = now () in
    push (t, Stat.probe ())
  in
  (take, fun () -> Array.of_list (List.sort compare (get ())))

let span_of_outcome o =
  Trace.add ~req:(Trace.fresh_id ()) ("client." ^ kind o.req) o.sent o.done_

(* One request on the thread's connection, opened on first use; after a
   transport error the next request reconnects. *)
let send conn inp dep req =
  let score c =
    Client.call c
      (Protocol.Score { model = "m"; target = target inp ~dataset:dep.dataset req; deadline_ms = None })
  in
  match
    let c =
      match !conn with
      | Some c -> c
      | None ->
        let c = Client.connect ~socket:dep.target_addr in
        conn := Some c ;
        c
    in
    (c, score c)
  with
  | c, (Error ("transport", _) as r) ->
    (try Client.close c with Unix.Unix_error _ -> ()) ;
    conn := None ;
    r
  | _, r -> r
  | exception Unix.Unix_error (e, _, _) -> Error ("transport", Unix.error_message e)

let check_outcome push_err inp req r =
  match verify inp req r with
  | Ok () -> true
  | Error e -> push_err e ; false

let closed_loop ~seed ~window inp dep =
  let push, outs = mutex_list () in
  let push_err, errs = mutex_list () in
  let rows = Normalized.rows inp.t in
  let t0 = now () in
  let stop_at = t0 +. window in
  let probe, probed = probes () in
  let worker th =
    let next_request = request_stream ~mixed:false ~rows (Rng.of_int ((seed * 7919) + th)) in
    let conn = ref None in
    let last_probe = ref neg_infinity in
    while now () < stop_at do
      if now () -. !last_probe >= probe_every then begin
        probe () ;
        last_probe := now ()
      end ;
      let req = next_request () in
      let sent = now () in
      let r = send conn inp dep req in
      let done_ = now () in
      let o = { req; due = sent; sent; done_; ok = check_outcome push_err inp req r } in
      span_of_outcome o ;
      push o
    done ;
    Option.iter Client.close !conn
  in
  let threads = List.init 2 (Thread.create worker) in
  List.iter Thread.join threads ;
  ({ outcomes = outs (); elapsed = now () -. t0; saves = []; probes = probed () }, errs ())

type event = Request of request | Publish | Probe

let open_loop ~seed ~window inp dep =
  let next_request =
    request_stream ~mixed:true ~rows:(Normalized.rows inp.t) (Rng.of_int ((seed * 7919) + 17))
  in
  let t0 = now () +. 0.05 in
  let reqs = int_of_float (window *. mixed_rate) in
  let pubs = int_of_float (window /. publish_every) in
  let events =
    List.init reqs (fun k -> (t0 +. (float_of_int k /. mixed_rate), Request (next_request ())))
    @ List.init pubs (fun j -> (t0 +. (float_of_int (j + 1) *. publish_every), Publish))
    @ List.init
        (int_of_float (window /. probe_every))
        (fun j -> (t0 +. (float_of_int j *. probe_every), Probe))
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  let next = ref 0 and m = Mutex.create () in
  let version = ref 1 in
  let push, outs = mutex_list () in
  let push_err, errs = mutex_list () in
  let push_save, saves = mutex_list () in
  let schema_hash = Registry.schema_hash inp.t in
  let probe, probed = probes () in
  let worker _ =
    let conn = ref None in
    let rec loop () =
      Mutex.lock m ;
      let k = !next in
      incr next ;
      (* versions are numbered in schedule order, under the lock *)
      let pub_version =
        if k < Array.length events && snd events.(k) = Publish then begin
          incr version ;
          !version
        end
        else 0
      in
      Mutex.unlock m ;
      if k < Array.length events then begin
        let due, ev = events.(k) in
        let wait = due -. now () in
        if wait > 0.0 then Thread.delay wait ;
        (match ev with
        | Probe -> probe ()
        | Publish ->
          let w = inp.weights.((pub_version - 1) mod Array.length inp.weights) in
          let s0 = now () in
          let id = Trace.fresh_id () in
          ignore (Registry.save ~dir:dep.registry ~name:"m" ~schema_hash (Artifact.Logreg w)) ;
          let s1 = now () in
          Trace.add ~parent:id "registry.save" s0 s1 ;
          Trace.add ~id "generator.publish" s0 s1 ;
          push_save (s1 -. s0)
        | Request req ->
          let sent = now () in
          let r = send conn inp dep req in
          let done_ = now () in
          let o = { req; due; sent; done_; ok = check_outcome push_err inp req r } in
          span_of_outcome o ;
          push o) ;
        loop ()
      end
    in
    loop () ;
    Option.iter Client.close !conn
  in
  let threads = List.init 2 (Thread.create worker) in
  List.iter Thread.join threads ;
  let outcomes = outs () in
  ({ outcomes; elapsed = now () -. t0; saves = saves (); probes = probed () }, errs ())

(* The probes taken right before and after [t]. *)
let probe_at probes t =
  let n = Array.length probes in
  let rec find i = if i < n && fst probes.(i) <= t then find (i + 1) else i in
  let i = find 0 in
  let before = snd probes.(max 0 (i - 1)) and after = snd probes.(min (n - 1) i) in
  (before, after)

(* Latency from due time, calibrated to the nominal host speed; a failed
   request misses every limit. *)
let latencies l =
  Array.of_list
    (List.map
       (fun o ->
         if not o.ok then infinity
         else
           let before, after = probe_at l.probes o.due in
           Stat.calibrate (o.done_ -. o.due) ~before ~after)
       l.outcomes)

let raw_latencies l =
  Array.of_list (List.map (fun o -> if o.ok then o.done_ -. o.due else infinity) l.outcomes)

(* Completed requests per second. A closed loop's rate is set by the
   system, so it is calibrated by the run's mean probe; an open loop's
   is set by the schedule and only drops when requests fail. *)
let throughput ~mixed l =
  let ok = List.length (List.filter (fun o -> o.ok) l.outcomes) in
  let raw = float_of_int ok /. l.elapsed in
  if mixed then raw else raw *. Stat.mean (Array.map snd l.probes) /. Stat.nominal

(* ---- in-process replay of the generated requests (traced run) ---- *)

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median_time reps f = Stat.median (Array.init reps (fun _ -> snd (time f)))

let replay r ~seed ~mixed ~batch ~saves inp dep =
  let rows = Normalized.rows inp.t in
  let dir = dep.registry in
  Report.layer r "registry.resolve_us" "us" (us (median_time 50 (fun () -> Registry.resolve ~dir "m"))) ;
  Report.layer r "registry.load_ms" "ms" (ms (median_time 5 (fun () -> Registry.load ~dir "m"))) ;
  Report.layer r "io.load_ms" "ms" (ms (median_time 3 (fun () -> Io.load ~dir:dep.dataset))) ;
  let model = Artifact.Logreg inp.weights.(0) in
  let score = Artifact.score_normalized in
  (* the R·w_R product Rewrite.lmm issues for this model *)
  let part = List.hd (Normalized.parts inp.t) in
  let ds = Normalized.cols inp.t - Sparse.Mat.cols part.Normalized.mat in
  let rd = Sparse.Mat.dense part.Normalized.mat in
  let wr = Dense.sub_rows inp.weights.(0) ~lo:ds ~hi:(Normalized.cols inp.t) in
  let r_side = median_time 200 (fun () -> Blas.gemm rd wr) in
  (* the same request stream the load generator drew (thread 0's for
     the closed loop), grouped into batches of the server's mean size *)
  let next_request =
    request_stream ~mixed ~rows (Rng.of_int ((seed * 7919) + if mixed then 17 else 0))
  in
  let stream = List.init 400 (fun _ -> next_request ()) in
  (* the server fuses requests with one key: consecutive requests of one
     kind, except score_where, whose predicates differ *)
  let rec batches acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      let acc, cur =
        match cur with
        | y :: _ when kind y <> kind x -> (List.rev cur :: acc, [])
        | _ -> (acc, cur)
      in
      let cur = x :: cur in
      if List.length cur >= batch || kind x = "score_where" then batches (List.rev cur :: acc) [] rest
      else batches acc cur rest
  in
  let select = ref [] and scoren = ref [] and mask = ref [] and dense = ref [] in
  let render = ref [] and parse = ref [] and bytes = ref [] in
  let total = ref 0.0 and factorized = ref 0 in
  let frames preds =
    let nums = List.map (fun x -> Json.Num x) (Array.to_list preds) in
    let frame = Protocol.ok [ ("model", Json.Str "m@v1"); ("predictions", Json.Arr nums) ] in
    let s, dt = time (fun () -> Json.to_string frame) in
    render := dt :: !render ;
    bytes := float_of_int (String.length s) :: !bytes ;
    let _, dp = time (fun () -> Json.of_string s) in
    parse := dp :: !parse
  in
  let deadline = now () +. 3.0 in
  List.iter
    (fun b ->
      if now () < deadline then begin
        let bid = Trace.fresh_id () in
        let b0 = now () in
        let child name f =
          let s0 = now () in
          let x = f () in
          Trace.add ~parent:bid name s0 (now ()) ;
          x
        in
        (match b with
        | Where k :: _ ->
          let p = fst inp.wheres.(k) in
          let m0 = now () in
          let ids = child "relalg.mask" (fun () -> Relalg.mask inp.t p) in
          mask := (now () -. m0) :: !mask ;
          let sub = child "normalized.select_rows" (fun () -> Normalized.select_rows inp.t ids) in
          let preds = child "artifact.score_normalized" (fun () -> score model sub) in
          incr factorized ;
          child "json" (fun () -> frames preds)
        | Rows _ :: _ ->
          let x = Dense.vcat (List.filter_map (function Rows k -> Some inp.raw.(k) | _ -> None) b) in
          let s0 = now () in
          let preds = child "artifact.score_dense" (fun () -> Artifact.score_dense model x) in
          dense := (now () -. s0) :: !dense ;
          child "json" (fun () -> frames preds)
        | _ ->
          let ids = Array.concat (List.filter_map (function Ids i -> Some i | _ -> None) b) in
          let s0 = now () in
          let sub = child "normalized.select_rows" (fun () -> Normalized.select_rows inp.t ids) in
          let s1 = now () in
          let preds = child "artifact.score_normalized" (fun () -> score model sub) in
          let s2 = now () in
          incr factorized ;
          select := (s1 -. s0) :: !select ;
          scoren := (s2 -. s1) :: !scoren ;
          child "json" (fun () -> frames preds)) ;
        total := !total +. (now () -. b0) ;
        Trace.add ~id:bid "replay.batch" b0 (now ())
      end)
    (batches [] [] stream) ;
  let med l = if l = [] then 0.0 else Stat.median (Array.of_list l) in
  Report.layer r "relalg.mask_ms" "ms" (ms (med !mask)) ;
  Report.layer r "normalized.select_rows_us" "us" (us (med !select)) ;
  Report.layer r "artifact.score_normalized_us" "us" (us (med !scoren)) ;
  Report.layer r "blas.r_side_us" "us" (us r_side) ;
  (* the share of the replayed work that is the R·w_R product: one per
     factorized score, against everything the batches did *)
  Report.layer r "score.r_side_share" "share" (r_side *. float_of_int !factorized /. !total) ;
  Report.layer r "artifact.score_dense_us" "us" (us (med !dense)) ;
  Report.layer r "json.render_us" "us" (us (med !render)) ;
  Report.layer r "json.parse_us" "us" (us (med !parse)) ;
  Report.layer r "frame.resp_bytes_p50" "bytes" (med !bytes) ;
  let saves =
    if saves <> [] then saves
    else begin
      let dir = Filename.concat (Filename.dirname dep.registry) "replay-reg" in
      List.init 5 (fun _ -> snd (time (fun () -> Registry.save ~dir ~name:"m" model)))
    end
  in
  Report.layer r "registry.save_ms" "ms" (ms (med saves))

(* ---- the run ---- *)

let run ~smoke ~seed ~seconds ~traced ~bin ~scratch ~mixed r =
  let dir = Filename.concat (Sys.getcwd ()) scratch in
  (* set-up: generate, persist and deploy [Stat.setup_reps] times; keep the last *)
  let dep = ref None in
  let setup_times =
    Array.init Stat.setup_reps (fun _ ->
        Option.iter teardown !dep ;
        dep := None ;
        let before = Stat.probe () in
        let t0 = now () in
        let t, weights, _ = generate ~smoke ~seed ~mixed in
        let inp = { t; weights; preds = [||]; wheres = [||]; raw = [||] } in
        dep := Some (deploy ~bin ~dir ~mixed inp) ;
        let dt = now () -. t0 in
        Stat.calibrate dt ~before ~after:(Stat.probe ()))
  in
  let dep = Option.get !dep in
  Fun.protect ~finally:(fun () -> teardown dep ; rm_rf dir) @@ fun () ->
  let inp = reference ~smoke ~seed ~mixed in
  let window = if traced then seconds /. 2.0 else seconds in
  let run_load () =
    if mixed then open_loop ~seed ~window inp dep else closed_loop ~seed ~window inp dep
  in
  let before = stats dep.server_addr and before_router = Option.map (fun (_, a) -> stats a) dep.router in
  let load, errs = run_load () in
  let traced_load =
    if traced then begin
      Trace.on := true ;
      let l, e = run_load () in
      Trace.on := false ;
      Some (l, e)
    end
    else None
  in
  let after = stats dep.server_addr and after_router = Option.map (fun (_, a) -> stats a) dep.router in
  let peak =
    Stat.sum
      (Array.of_list
         (List.map
            (fun pid -> Option.value ~default:nan (Stat.vmhwm_mb (string_of_int pid)))
            (dep.server :: Option.to_list (Option.map fst dep.router))))
  in
  let all = load.outcomes @ (match traced_load with Some (l, _) -> l.outcomes | None -> []) in
  List.iter (fun o -> Report.op r o.ok) all ;
  List.iteri (fun i e -> if i < 5 then Printf.eprintf "check failed: %s\n%!" e)
    (errs @ match traced_load with Some (_, e) -> e | None -> []) ;
  let lat = raw_latencies load in
  let ok = List.length (List.filter (fun o -> o.ok) load.outcomes) in
  let n = List.length load.outcomes in
  let q, tail = Stat.tail lat in
  let setup_s = Stat.median setup_times in
  (* per request kind, then the geometric mean over kinds: the kinds'
     latencies differ by several times, so a pooled median would sit
     between modes and jump with the mix *)
  let kinds = [ "score_ids"; "score_where"; "score" ] in
  let of_kind k l = List.filter (fun o -> kind o.req = k) l in
  let present = List.filter (fun k -> of_kind k load.outcomes <> []) kinds in
  let kind_q qq =
    Stat.geomean
      (List.map
         (fun k -> Stat.quantile (latencies { load with outcomes = of_kind k load.outcomes }) qq)
         present)
  in
  List.iter
    (fun k ->
      let os = of_kind k all in
      if os <> [] then begin
        let l = raw_latencies { load with outcomes = of_kind k load.outcomes } in
        let q = Stat.quantile l in
        Report.line r
          "%s: sent %d, ok %d, failed %d; latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (%d samples)"
          k (List.length os)
          (List.length (List.filter (fun o -> o.ok) os))
          (List.length (List.filter (fun o -> not o.ok) os))
          (ms (q 0.5)) (ms (q 0.9)) (ms (q 0.99)) (Array.length l)
      end)
    kinds ;
  Report.line r "throughput_rps %.2f%s" (float_of_int ok /. load.elapsed)
    (if mixed then Printf.sprintf " (open loop: offered %g/s)" mixed_rate else "") ;
  Report.line r "latency_p50_ms %.4f" (ms (Stat.median lat)) ;
  Report.line r "host speed probe: median %.3f ms (nominal %.3f ms), %d probes"
    (ms (Stat.median (Array.map snd load.probes)))
    (ms Stat.nominal) (Array.length load.probes) ;
  Report.line r "latency_p%g_ms %.4f (%d samples, %d beyond)" (100.0 *. q) (ms tail) n
    (int_of_float (float_of_int n *. (1.0 -. q))) ;
  Report.line r "error_rate %.6f" (float_of_int (n - ok) /. float_of_int (max 1 n)) ;
  Report.line r "peak_rss_mb %.1f (server%s, VmHWM)" peak (if mixed then " + router" else "") ;
  let by_due = List.sort (fun a b -> compare a.due b.due) load.outcomes in
  let late = Array.of_list (List.map (fun o -> o.sent -. o.due) by_due) in
  let late_p99 = if mixed then Stat.quantile late 0.99 else 0.0 in
  if mixed then begin
    Report.line r "generator lateness p99 %.3f ms, max %.3f ms" (ms late_p99)
      (ms (Array.fold_left Float.max 0.0 late)) ;
    (* a growing backlog shows as lateness that persists to the end *)
    let k = Array.length late in
    let last = Array.sub late (k - (k / 5)) (k / 5) in
    if k >= 5 && Stat.median last > 0.1 then
      Report.invalidate r
        (Printf.sprintf
           "generator fell behind: median lateness %.1f ms over the last fifth of the schedule"
           (ms (Stat.median last)))
  end ;
  if not traced then begin
    Report.e2e r "setup_s" "s" setup_s ;
    Report.e2e r "op_p50_ms" "ms" (ms (kind_q 0.5)) ;
    Report.e2e r "op_p90_ms" "ms" (ms (kind_q 0.9)) ;
    Report.e2e r "throughput_ops" "1/s" (throughput ~mixed load) ;
    Report.e2e r "peak_rss_mb" "MB" peak
  end
  else begin
    let tl, _ = Option.get traced_load in
    Report.layer r "trace.overhead_ms" "ms"
      (ms (Stat.median (latencies tl) -. Stat.median (latencies load))) ;
    (* server-side figures: counters as deltas over the measured load,
       latency quantiles from the server's histograms *)
    let delta path = num after path -. num before path in
    let op_q o q = ms (num after [ "ops"; o; "latency"; q ]) in
    List.iter
      (fun o ->
        Report.layer r (Printf.sprintf "server.%s.latency_ms_p50" o) "ms" (op_q o "p50_s") ;
        Report.layer r (Printf.sprintf "server.%s.latency_ms_p99" o) "ms" (op_q o "p99_s"))
      [ "score_ids"; "score_where"; "score_rows" ] ;
    let batches = delta [ "batches"; "count" ] in
    (* a per-batch mean over the run's batches only *)
    let per_batch path =
      let total j = num j path *. num j [ "batches"; "count" ] in
      if batches > 0.0 then (total after -. total before) /. batches else 0.0 in
    Report.layer r "batcher.batches" "count" batches ;
    Report.layer r "batcher.mean_requests" "requests" (per_batch [ "batches"; "mean_requests" ]) ;
    Report.layer r "batcher.mean_rows" "rows" (per_batch [ "batches"; "mean_rows" ]) ;
    let hits = delta [ "dataset_cache"; "hits" ] and misses = delta [ "dataset_cache"; "misses" ] in
    Report.layer r "dataset_cache.hit_ratio" "share"
      (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0) ;
    Report.layer r "server.sheds" "count" (delta [ "robustness"; "sheds" ]) ;
    (* exact means over the run's score requests: the histograms'
       ~12 % buckets cannot resolve a sub-millisecond difference *)
    let score_mean ops before after =
      let sum f j = List.fold_left (fun acc o -> acc +. f j o) 0.0 ops in
      let cnt j o = num j [ "ops"; o; "count" ] in
      let tot = sum (fun j o -> cnt j o *. num j [ "ops"; o; "latency"; "mean_s" ]) in
      let cnt = sum cnt in
      (tot after -. tot before) /. (cnt after -. cnt before)
    in
    let server_mean = score_mean [ "score_ids"; "score_where"; "score_rows" ] before after in
    let front_mean =
      match (before_router, after_router) with
      | Some b, Some a -> score_mean [ "score_ids"; "score_where"; "score" ] b a
      | _ -> server_mean
    in
    let ok_all = List.filter (fun o -> o.ok) all in
    let client_mean = Stat.mean (Array.of_list (List.map (fun o -> o.done_ -. o.sent) ok_all)) in
    Report.layer r "wire_ms_mean" "ms" (ms (client_mean -. front_mean)) ;
    Report.layer r "router.overhead_ms_mean" "ms" (ms (front_mean -. server_mean)) ;
    let batch = max 1 (int_of_float (Float.round (per_batch [ "batches"; "mean_requests" ]))) in
    Trace.on := true ;
    replay r ~seed ~mixed ~batch ~saves:(load.saves @ tl.saves) inp dep ;
    Trace.on := false ;
    Report.layer r "generator.late_ms_p99" "ms" (ms late_p99) ;
    r.Report.files <- [ ("spans.jsonl", Trace.write_jsonl) ]
  end
