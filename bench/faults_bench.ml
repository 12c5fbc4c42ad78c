(* Transport-fault bench: closed-loop routed scoring throughput while
   the shards' transport layer misbehaves. Two shard server processes
   and one router run from the CLI binary (MORPHEUS_BIN); each
   measurement arms 0, 1, or 2 transport fault points in the *shard*
   processes via MORPHEUS_FAULTS in their environment — dropped reads
   (`endpoint.read`) and torn frames (`endpoint.write.torn`) — and
   runs the same sweep with hedging off and on.

   Clients issue score_ids with the retrying client (transport errors
   are retryable and idempotent, so every accepted answer is still
   bitwise-identical to a fault-free run); the reported quantities are
   requests/s, success-latency p95, and how many requests exhausted
   the retry budget. What the sweep shows: how much throughput the
   retry + failover machinery gives back under byte-level faults, and
   what hedging buys on top.

   Results go to stdout as a table and to BENCH_faults.json. As with
   the cluster bench, [cores_online] records the host's exposed cores
   and a single-core host refuses to overwrite the committed numbers. *)

open La
open Sparse
open Morpheus
open Morpheus_serve
open Workload

let client_threads = 4

(* (label, MORPHEUS_FAULTS spec for the shards, armed point count) *)
let fault_configs =
  [ ("none", "", 0);
    ("read", "seed=7,endpoint.read=0.02", 1);
    ("read+torn", "seed=7,endpoint.read=0.02,endpoint.write.torn=0.01", 2)
  ]

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd)
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) ;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> failwith "no port bound"

let spawn ?(env = []) bin argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull)
  @@ fun () ->
  let full_env = Array.append (Unix.environment ()) (Array.of_list env) in
  Unix.create_process_env bin
    (Array.of_list (bin :: argv))
    full_env Unix.stdin devnull devnull

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

(* One closed-loop measurement: 2 shard processes with [faults] armed
   in their environment, one router (hedging per [hedge]),
   [client_threads] threads of retried score_ids for [window] seconds.
   Returns (ok requests, exhausted requests, elapsed, sorted ok
   latencies). *)
let measure ~bin ~reg ~ds_dir ~model ~rows ~window ~faults ~hedge =
  let shard_addrs =
    List.init 2 (fun _ -> Printf.sprintf "127.0.0.1:%d" (free_port ()))
  in
  let env = if faults = "" then [] else [ "MORPHEUS_FAULTS=" ^ faults ] in
  let shard_pids =
    List.map
      (fun addr ->
        spawn ~env bin
          [ "serve"; "--registry"; reg; "--listen"; addr; "--handlers"; "6";
            "--max-wait-ms"; "1"
          ])
      shard_addrs
  in
  let router_addr = Printf.sprintf "127.0.0.1:%d" (free_port ()) in
  let router_pid = ref None in
  let all_pids () =
    (match !router_pid with Some p -> [ p ] | None -> []) @ shard_pids
  in
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
         @ (if hedge then [ "--hedge" ] else [])
         @ List.concat
             (List.mapi
                (fun i addr -> [ "--shard"; Printf.sprintf "shard%d=%s" i addr ])
                shard_addrs))) ;
  await_healthy router_addr ;
  let stop_at = Timing.now () +. window in
  let oks = Array.make client_threads 0 in
  let exhausted = Array.make client_threads 0 in
  let lats = Array.make client_threads [] in
  let policy =
    { Client.default_retry with
      attempts = 6;
      base_backoff = 2e-3;
      max_backoff = 0.05;
      budget = 5.0;
      retry_codes = "unavailable" :: "rejected" :: Client.default_retry.retry_codes
    }
  in
  let worker th =
    let rng = Rng.of_int (0xfa017 + th) in
    let i = ref 0 in
    while Timing.now () < stop_at do
      let ids =
        Array.init 8 (fun k -> ((th * 7919) + (!i * 13) + (29 * k)) mod rows)
      in
      let t0 = Timing.now () in
      (match
         Client.score_ids_retry ~policy ~rng ~socket:router_addr ~model
           ~dataset:ds_dir ids
       with
      | Ok _ ->
        oks.(th) <- oks.(th) + 1 ;
        lats.(th) <- (Timing.now () -. t0) :: lats.(th)
      | Error _ ->
        (* retry budget exhausted under injected faults: a structured
           transient error, never a wrong answer *)
        exhausted.(th) <- exhausted.(th) + 1) ;
      incr i
    done
  in
  let t0 = Timing.now () in
  let threads = List.init client_threads (fun th -> Thread.create worker th) in
  List.iter Thread.join threads ;
  let elapsed = Timing.now () -. t0 in
  let sorted =
    Array.of_list (List.concat (Array.to_list lats)) |> fun a ->
    Array.sort compare a ;
    a
  in
  (Array.fold_left ( + ) 0 oks, Array.fold_left ( + ) 0 exhausted, elapsed, sorted)

let run cfg =
  Harness.section
    "Transport chaos: routed throughput with 0/1/2 armed fault points, \
     hedging off/on" ;
  match Sys.getenv_opt "MORPHEUS_BIN" with
  | None | Some "" ->
    print_endline
      "skipped: MORPHEUS_BIN must point at the morpheus CLI binary (the \
       shards and the router run as real processes)"
  | Some bin ->
    let rows = if cfg.Harness.quick then 400 else 2_000 in
    let window = if cfg.Harness.quick then 0.8 else 2.5 in
    let root =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "morpheus_faults_bench_%d" (Unix.getpid ()))
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
      "dataset: %d rows; 2 shards, %d client threads, %gs window per point; \
       host cores online: %d\n"
      rows client_threads window cores ;
    let results =
      List.concat_map
        (fun hedge ->
          List.map
            (fun (label, faults, armed) ->
              let ok, exhausted, elapsed, lat =
                measure ~bin ~reg ~ds_dir ~model:entry.Registry.id ~rows
                  ~window ~faults ~hedge
              in
              (label, armed, hedge, float_of_int ok /. elapsed, exhausted, lat))
            fault_configs)
        [ false; true ]
    in
    Printf.printf "\n%-11s %6s %6s %10s %10s %10s %10s\n" "faults" "armed"
      "hedge" "req/s" "p50" "p95" "exhausted" ;
    List.iter
      (fun (label, armed, hedge, rate, exhausted, lat) ->
        Printf.printf "%-11s %6d %6s %10.0f %10s %10s %10d\n" label armed
          (if hedge then "on" else "off")
          rate
          (Harness.ts (percentile lat 0.50))
          (Harness.ts (percentile lat 0.95))
          exhausted)
      results ;
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n" ;
    Buffer.add_string buf
      (Printf.sprintf
         "  \"setting\": {\"rows\": %d, \"shards\": 2, \"client_threads\": \
          %d, \"window_s\": %.1f, \"ids_per_request\": 8, \"block\": 8, \
          \"retry_attempts\": 6},\n"
         rows client_threads window) ;
    Buffer.add_string buf (Printf.sprintf "  \"cores_online\": %d,\n" cores) ;
    Buffer.add_string buf "  \"points\": [\n" ;
    List.iteri
      (fun i (label, armed, hedge, rate, exhausted, lat) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"faults\": \"%s\", \"points_armed\": %d, \"hedge\": %b, \
              \"req_per_s\": %.1f, \"retry_exhausted\": %d, \"latency_s\": \
              {\"p50\": %.6f, \"p95\": %.6f}}%s\n"
             label armed hedge rate exhausted
             (percentile lat 0.50) (percentile lat 0.95)
             (if i = List.length results - 1 then "" else ",")))
      results ;
    Buffer.add_string buf "  ]\n}\n" ;
    (* a single-core host serializes the shard processes and measures
       nothing *)
    Harness.write_report cfg ~path:"BENCH_faults.json"
      ~refuse:Harness.single_core (Buffer.contents buf)
