(* Sharded-serving bench: closed-loop scoring throughput against a
   `morpheus route` process over 1 → 2 → 4 shard server processes on
   loopback TCP. Every tier lives in its own process (the CLI binary
   from MORPHEUS_BIN) so the shards actually run on separate cores —
   in-process shards would share one domain and measure nothing.

   Four client threads each hold one keep-alive connection to the
   router and issue score_ids requests over an 8-id spread (blocks
   hash to different shards, so most requests scatter-gather) for a
   fixed wall-clock window; the reported quantity is requests/s and
   latency percentiles per shard count.

   Results go to stdout as a table and to BENCH_cluster.json. As with
   the parallel-scaling bench, [cores_online] records the host's
   exposed cores and a single-core host refuses to overwrite the
   committed multi-core numbers. *)

open La
open Sparse
open Morpheus
open Morpheus_serve
open Workload

let shard_counts = [ 1; 2; 4 ]
let client_threads = 4

let json_floats l =
  "[" ^ String.concat ", " (List.map (Printf.sprintf "%.6f") l) ^ "]"

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd)
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) ;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> failwith "no port bound"

let spawn bin argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull)
  @@ fun () ->
  Unix.create_process bin (Array.of_list (bin :: argv)) Unix.stdin devnull devnull

let await_healthy addr =
  let deadline = Timing.now () +. 10.0 in
  let rec go () =
    match Client.health ~socket:addr with
    | Ok _ -> ()
    | Error _ | (exception Unix.Unix_error _) ->
      if Timing.now () > deadline then
        failwith (Printf.sprintf "endpoint %s never became healthy" addr)
      else begin
        Thread.delay 0.05 ;
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

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

(* One closed-loop measurement: [n] shard processes, one router
   process, [client_threads] threads hammering score_ids for
   [window] seconds. Returns (requests, elapsed, latencies sorted). *)
let measure ~bin ~reg ~ds_dir ~model ~rows ~window n =
  let shard_ports = List.init n (fun _ -> free_port ()) in
  let shard_addrs =
    List.map (Printf.sprintf "127.0.0.1:%d") shard_ports
  in
  let shard_pids =
    List.map
      (fun addr ->
        spawn bin
          [ "serve"; "--registry"; reg; "--listen"; addr; "--handlers"; "4";
            "--max-wait-ms"; "1" ])
      shard_addrs
  in
  let router_addr = Printf.sprintf "127.0.0.1:%d" (free_port ()) in
  let router_pid = ref None in
  let all_pids () = (match !router_pid with Some p -> [ p ] | None -> []) @ shard_pids in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun pid -> try Unix.kill pid Sys.sigterm with _ -> ()) (all_pids ()) ;
      List.iter
        (fun pid -> try ignore (Unix.waitpid [] pid) with _ -> ())
        (all_pids ()))
  @@ fun () ->
  List.iter await_healthy shard_addrs ;
  router_pid :=
    Some
      (spawn bin
         ([ "route"; "--listen"; router_addr; "--block"; "8"; "--handlers"; "4" ]
         @ List.concat
             (List.mapi
                (fun i addr -> [ "--shard"; Printf.sprintf "shard%d=%s" i addr ])
                shard_addrs))) ;
  await_healthy router_addr ;
  let stop_at = Timing.now () +. window in
  let counts = Array.make client_threads 0 in
  let lats = Array.make client_threads [] in
  let failure = Mutex.create () and failed = ref None in
  let worker th =
    Client.with_client ~socket:router_addr
    @@ fun c ->
    let i = ref 0 in
    while Timing.now () < stop_at && Option.is_none !failed do
      let ids =
        Array.init 8 (fun k -> ((th * 7919) + (!i * 13) + (29 * k)) mod rows)
      in
      let t0 = Timing.now () in
      (match Client.score_ids c ~model ~dataset:ds_dir ids with
      | Ok _ ->
        counts.(th) <- counts.(th) + 1 ;
        lats.(th) <- (Timing.now () -. t0) :: lats.(th)
      | Error (code, msg) ->
        Mutex.lock failure ;
        failed := Some (Printf.sprintf "[%s] %s" code msg) ;
        Mutex.unlock failure) ;
      incr i
    done
  in
  let t0 = Timing.now () in
  let threads = List.init client_threads (fun th -> Thread.create worker th) in
  List.iter Thread.join threads ;
  let elapsed = Timing.now () -. t0 in
  (match !failed with
  | Some e -> failwith ("cluster bench request failed: " ^ e)
  | None -> ()) ;
  let requests = Array.fold_left ( + ) 0 counts in
  let sorted =
    Array.of_list (List.concat (Array.to_list lats)) |> fun a ->
    Array.sort compare a ;
    a
  in
  (requests, elapsed, sorted)

let run cfg =
  Harness.section "Cluster scaling: routed score_ids over 1/2/4 shard processes" ;
  match Sys.getenv_opt "MORPHEUS_BIN" with
  | None | Some "" ->
    print_endline
      "skipped: MORPHEUS_BIN must point at the morpheus CLI binary (the \
       shards and the router run as real processes)"
  | Some bin ->
    let rows = if cfg.Harness.quick then 400 else 2_000 in
    let window = if cfg.Harness.quick then 1.0 else 4.0 in
    let root =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "morpheus_cluster_bench_%d" (Unix.getpid ()))
    in
    rm_rf root ;
    Sys.mkdir root 0o755 ;
    Fun.protect ~finally:(fun () -> rm_rf root)
    @@ fun () ->
    let g = Rng.of_int 4242 in
    let s = Dense.random ~rng:g rows 3 in
    let r = Dense.random ~rng:g 50 4 in
    let k = Indicator.random ~rng:g ~rows ~cols:50 () in
    let t = Normalized.pkfk ~s:(Mat.of_dense s) ~k ~r:(Mat.of_dense r) in
    let d = snd (Normalized.dims t) in
    let ds_dir = Filename.concat root "ds" in
    Io.save ~dir:ds_dir t ;
    let reg = Filename.concat root "reg" in
    let entry =
      Registry.save ~dir:reg ~name:"bench"
        ~schema_hash:(Registry.schema_hash t)
        (Artifact.Logreg (Dense.random ~rng:g d 1))
    in
    let cores = Domain.recommended_domain_count () in
    Printf.printf
      "dataset: %d rows; %d client threads, %gs window per point; host \
       cores online: %d\n"
      rows client_threads window cores ;
    let results =
      List.map
        (fun n ->
          let requests, elapsed, lat =
            measure ~bin ~reg ~ds_dir ~model:entry.Registry.id ~rows ~window n
          in
          (n, float_of_int requests /. elapsed, lat))
        shard_counts
    in
    Printf.printf "\n%-8s %10s %10s %10s %10s %9s\n" "shards" "req/s" "p50"
      "p95" "p99" "speedup" ;
    let base_rate = match results with (_, r, _) :: _ -> r | [] -> 1.0 in
    List.iter
      (fun (n, rate, lat) ->
        Printf.printf "%-8d %10.0f %10s %10s %10s %8.2fx\n" n rate
          (Harness.ts (percentile lat 0.50))
          (Harness.ts (percentile lat 0.95))
          (Harness.ts (percentile lat 0.99))
          (rate /. base_rate))
      results ;
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n" ;
    Buffer.add_string buf
      (Printf.sprintf
         "  \"setting\": {\"rows\": %d, \"client_threads\": %d, \
          \"window_s\": %.1f, \"ids_per_request\": 8, \"block\": 8},\n"
         rows client_threads window) ;
    Buffer.add_string buf (Printf.sprintf "  \"cores_online\": %d,\n" cores) ;
    Buffer.add_string buf
      (Printf.sprintf "  \"shards\": [%s],\n"
         (String.concat ", " (List.map string_of_int shard_counts))) ;
    Buffer.add_string buf "  \"points\": [\n" ;
    List.iteri
      (fun i (n, rate, lat) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"shards\": %d, \"req_per_s\": %.1f, \"speedup_vs_1\": \
              %.3f, \"latency_s\": {\"p50\": %.6f, \"p95\": %.6f, \"p99\": \
              %.6f}}%s\n"
             n rate (rate /. base_rate)
             (percentile lat 0.50) (percentile lat 0.95) (percentile lat 0.99)
             (if i = List.length results - 1 then "" else ",")))
      results ;
    Buffer.add_string buf "  ]\n}\n" ;
    (* same discipline as the parallel-scaling bench: a single-core
       host cannot measure shard scaling *)
    Harness.write_report cfg ~path:"BENCH_cluster.json"
      ~refuse:Harness.single_core (Buffer.contents buf)
