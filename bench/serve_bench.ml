(* Serving bench: closed-loop clients against an in-process scoring
   server on a Unix socket, measuring end-to-end request latency
   (client-side p50/p95/p99) and throughput, with micro-batching on
   (max_batch 64) vs off (max_batch 1). The server's prepared scorer
   pays the R-side work once per (model, dataset), so a batch costs a
   select_rows + S-side product + gathers either way: fusion can only
   save per-batch fixed costs (wake-ups, dispatch), not R-side work.

   Results go to stdout and BENCH_serve.json in the current directory.
   A quick run refuses to replace a full-mode BENCH_serve.json (the
   workloads differ) unless --force is given. *)

open La
open Morpheus
open Morpheus_serve

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path) ;
      Sys.rmdir path
    end
    else Sys.remove path

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

type scenario_result = {
  sc_name : string;
  sc_clients : int;
  sc_requests : int;
  sc_wall : float;
  sc_p50 : float;
  sc_p95 : float;
  sc_p99 : float;
  sc_max : float;
  sc_mean_batch : float;
  sc_batches : int;
}

(* One closed loop: [requests] score-by-ids calls of [ids_per_req] rows
   each, latencies recorded client-side. *)
let client_loop ~socket ~model ~dataset ~ids_per_req ~n_rows ~requests ~seed out
    =
  let rng = Rng.of_int seed in
  Client.with_client ~socket (fun c ->
      for r = 0 to requests - 1 do
        let ids = Array.init ids_per_req (fun _ -> Rng.int rng n_rows) in
        let t0 = Unix.gettimeofday () in
        (match Client.score_ids c ~model ~dataset ids with
        | Ok _ -> ()
        | Error (code, msg) ->
          Printf.eprintf "serve bench: [%s] %s\n%!" code msg ;
          exit 1) ;
        out.(r) <- Unix.gettimeofday () -. t0
      done)

let run_scenario ~name ~registry ~socket ~model ~dataset ~n_rows ~max_batch
    ~clients ~requests ~ids_per_req =
  let server =
    Server.start
      { (Server.default_config ~registry ~socket) with
        Server.max_batch;
        (* zero linger: a batch is whatever queued while the scorer was
           busy, so batching never *adds* latency and the contrast with
           max_batch = 1 isolates the fusion win *)
        max_wait = 0.0;
        handlers = clients
      }
  in
  Fun.protect ~finally:(fun () -> Server.stop server)
  @@ fun () ->
  (* warmup: fault in the model and the dataset *)
  Client.with_client ~socket (fun c ->
      match Client.score_ids c ~model ~dataset [| 0 |] with
      | Ok _ -> ()
      | Error (code, msg) ->
        Printf.eprintf "serve bench warmup: [%s] %s\n%!" code msg ;
        exit 1) ;
  let lat = Array.init clients (fun _ -> Array.make requests 0.0) in
  let wall0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            client_loop ~socket ~model ~dataset ~ids_per_req ~n_rows ~requests
              ~seed:(1000 + i) lat.(i))
          ())
  in
  List.iter Thread.join threads ;
  let wall = Unix.gettimeofday () -. wall0 in
  let all = Array.concat (Array.to_list lat) in
  Array.sort compare all ;
  let snapshot = Metrics.snapshot (Server.metrics server) in
  let stat path conv =
    List.fold_left
      (fun acc k -> Option.bind acc (Json.member k))
      (Some snapshot) path
    |> Fun.flip Option.bind conv
  in
  { sc_name = name;
    sc_clients = clients;
    sc_requests = clients * requests;
    sc_wall = wall;
    sc_p50 = percentile all 0.50;
    sc_p95 = percentile all 0.95;
    sc_p99 = percentile all 0.99;
    sc_max = all.(Array.length all - 1);
    sc_mean_batch =
      Option.value ~default:0.0 (stat [ "batches"; "mean_requests" ] Json.to_float);
    sc_batches =
      Option.value ~default:0 (stat [ "batches"; "count" ] Json.to_int)
  }

let print_result r =
  Printf.printf
    "%-12s %2d clients  %6d reqs  %7.0f req/s  p50 %6.3fms  p95 %6.3fms  p99 \
     %6.3fms  (batches: %d, mean %.1f reqs)\n%!"
    r.sc_name r.sc_clients r.sc_requests
    (float_of_int r.sc_requests /. r.sc_wall)
    (1e3 *. r.sc_p50) (1e3 *. r.sc_p95) (1e3 *. r.sc_p99) r.sc_batches
    r.sc_mean_batch

let json_result r =
  Printf.sprintf
    "    { \"scenario\": %S, \"clients\": %d, \"requests\": %d,\n\
    \      \"throughput_rps\": %.1f, \"p50_ms\": %.4f, \"p95_ms\": %.4f,\n\
    \      \"p99_ms\": %.4f, \"max_ms\": %.4f,\n\
    \      \"batches\": %d, \"mean_batch_requests\": %.2f }"
    r.sc_name r.sc_clients r.sc_requests
    (float_of_int r.sc_requests /. r.sc_wall)
    (1e3 *. r.sc_p50) (1e3 *. r.sc_p95) (1e3 *. r.sc_p99) (1e3 *. r.sc_max)
    r.sc_batches r.sc_mean_batch

let run (cfg : Harness.config) =
  Harness.section "Serving: micro-batched scoring over a Unix socket" ;
  (* a heavy attribute table: the R-side term of the factorized product
     is the per-batch fixed cost micro-batching amortizes *)
  let ns = if cfg.Harness.quick then 20_000 else 100_000 in
  let nr = if cfg.Harness.quick then 500 else 2_000 in
  let dr = if cfg.Harness.quick then 100 else 200 in
  let clients = if cfg.Harness.quick then 4 else 8 in
  let requests = if cfg.Harness.quick then 150 else 600 in
  let ids_per_req = 8 in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "morpheus_serve_bench_%d" (Unix.getpid ()))
  in
  rm_rf root ;
  Sys.mkdir root 0o755 ;
  Fun.protect ~finally:(fun () -> rm_rf root)
  @@ fun () ->
  let data = Workload.Synthetic.pkfk ~seed:7 ~ns ~ds:5 ~nr ~dr () in
  let t = data.Workload.Synthetic.t in
  let n_rows, d = Normalized.dims t in
  let dataset = Filename.concat root "ds" in
  Io.save ~dir:dataset t ;
  let registry = Filename.concat root "reg" in
  let model =
    (Registry.save ~dir:registry ~name:"bench"
       ~schema_hash:(Registry.schema_hash t)
       (Artifact.Logreg (Dense.random ~rng:(Rng.of_int 9) d 1)))
      .Registry.id
  in
  Printf.printf "dataset: %d x %d (nr=%d), model %s, %d ids/request\n%!" n_rows
    d nr model ids_per_req ;
  let scenario name max_batch i =
    run_scenario ~name ~registry
      ~socket:(Filename.concat root (Printf.sprintf "sock%d" i))
      ~model ~dataset ~n_rows ~max_batch ~clients ~requests ~ids_per_req
  in
  let unbatched = scenario "unbatched" 1 0 in
  print_result unbatched ;
  let batched = scenario "batched" 64 1 in
  print_result batched ;
  Printf.printf "micro-batching p95 speed-up: %.2fx\n%!"
    (unbatched.sc_p95 /. Float.max 1e-9 batched.sc_p95) ;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n" ;
  Buffer.add_string buf
    (Printf.sprintf "  \"experiment\": \"serve\", \"mode\": %S, \"cores_online\": %d,\n"
       (Harness.mode cfg)
       (Domain.recommended_domain_count ())) ;
  Buffer.add_string buf
    (Printf.sprintf
       "  \"workload\": { \"ns\": %d, \"nr\": %d, \"d\": %d, \"clients\": %d,\n\
       \    \"requests_per_client\": %d, \"ids_per_request\": %d },\n" ns nr d
       clients requests ids_per_req) ;
  Buffer.add_string buf "  \"scenarios\": [\n" ;
  Buffer.add_string buf
    (String.concat ",\n" (List.map json_result [ unbatched; batched ])) ;
  Buffer.add_string buf "\n  ]\n}\n" ;
  let path = "BENCH_serve.json" in
  Harness.write_report cfg ~path
    ~refuse:(fun () -> Harness.quick_over_full cfg path)
    (Buffer.contents buf)
