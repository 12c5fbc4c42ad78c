(* Kernel bench: cache-blocked/register-tiled Blas vs the frozen naive
   reference (Blas_ref), over matrix sizes d ∈ {100, 500, 1000, 2000}
   and 1/2/4 execution domains. Every timed pair is also checked
   bitwise — the tiled kernels must reproduce the reference exactly at
   every shape and domain count, so the speed column is the only thing
   allowed to differ.

   Next to the square sweep, the thin shapes the training algorithms
   actually issue (the kernel shape census of a traced train-dense
   perfbench run): one-column products T·w (100000×20·20×1,
   5000×80·80×1) and the one-row product wᵀ·S behind Tᵀ·p
   (1×100000·100000×20). gemm runs these through its thin loops, not
   the packed nest.

   Results go to stdout and to BENCH_kernels.json, which records the
   mode and cores online. The file is not silently replaced by a run on
   a single-core host (the tiled-vs-naive ratio is still meaningful
   there, but the domain columns are not) or by a quick run over a
   full-mode one; --force overrides. *)

open La
open Workload

let domain_counts = [ 1; 2; 4 ]

let json_floats l =
  "[" ^ String.concat ", " (List.map (Printf.sprintf "%.6f") l) ^ "]"

let bits_equal_mat a b =
  let ad = Dense.data a and bd = Dense.data b in
  Dense.rows a = Dense.rows b
  && Dense.cols a = Dense.cols b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       ad bd

let bits_equal_vec x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       x y

type probe = {
  name : string;
  naive : Exec.t -> unit -> unit;
  tiled : Exec.t -> unit -> unit;
  identical : Exec.t -> bool;
}

let probes d =
  let a = Dense.gaussian ~rng:(Rng.of_int (17 + d)) d d in
  let b = Dense.gaussian ~rng:(Rng.of_int (23 + d)) d d in
  let x = Array.init d (fun i -> sin (float_of_int (i + 1))) in
  [ { name = "gemm";
      naive = (fun exec () -> ignore (Blas_ref.gemm ~exec a b));
      tiled = (fun exec () -> ignore (Blas.gemm ~exec a b));
      identical =
        (fun exec -> bits_equal_mat (Blas_ref.gemm ~exec a b) (Blas.gemm ~exec a b))
    };
    { name = "crossprod";
      naive = (fun exec () -> ignore (Blas_ref.crossprod ~exec a));
      tiled = (fun exec () -> ignore (Blas.crossprod ~exec a));
      identical =
        (fun exec ->
          bits_equal_mat (Blas_ref.crossprod ~exec a) (Blas.crossprod ~exec a))
    };
    { name = "gemm_nt";
      naive = (fun exec () -> ignore (Blas_ref.gemm_nt ~exec a b));
      tiled = (fun exec () -> ignore (Blas.gemm_nt ~exec a b));
      identical =
        (fun exec ->
          bits_equal_mat (Blas_ref.gemm_nt ~exec a b) (Blas.gemm_nt ~exec a b))
    };
    { name = "gemv";
      naive = (fun exec () -> ignore (Blas_ref.gemv ~exec a x));
      tiled = (fun exec () -> ignore (Blas.gemv ~exec a x));
      identical =
        (fun exec ->
          bits_equal_vec (Blas_ref.gemv ~exec a x) (Blas.gemv ~exec a x))
    }
  ]

(* gemm at one (m, k, n) shape. *)
let gemm_probe ~m ~k ~n =
  let a = Dense.gaussian ~rng:(Rng.of_int (31 + m + k)) m k in
  let b = Dense.gaussian ~rng:(Rng.of_int (37 + k + n)) k n in
  { name = Printf.sprintf "gemm %dx%d*%dx%d" m k k n;
    naive = (fun exec () -> ignore (Blas_ref.gemm ~exec a b));
    tiled = (fun exec () -> ignore (Blas.gemm ~exec a b));
    identical =
      (fun exec -> bits_equal_mat (Blas_ref.gemm ~exec a b) (Blas.gemm ~exec a b))
  }

(* (m, k, n) of the census shapes; quick mode shrinks the long side. *)
let thin_shapes quick =
  let big = if quick then 20_000 else 100_000 in
  let nr = if quick then 1_000 else 5_000 in
  [ (big, 20, 1); (nr, 80, 1); (1, big, 20) ]

(* Time one probe at every domain count: (domains, naive s, tiled s,
   bitwise-identical) per count. *)
let time_probe ~runs p =
  List.map
    (fun domains ->
      let exec = Exec.make domains in
      let tn = Timing.measure ~warmup:1 ~runs (p.naive exec) in
      let tt = Timing.measure ~warmup:1 ~runs (p.tiled exec) in
      let same = p.identical exec in
      Exec.shutdown exec ;
      (domains, tn, tt, same))
    domain_counts

let print_header ~width label =
  Printf.printf "%-*s" width label ;
  List.iter
    (fun dn ->
      Printf.printf " %9s %9s" (Printf.sprintf "naive:%d" dn)
        (Printf.sprintf "tiled:%d" dn))
    domain_counts ;
  Printf.printf " %8s %5s\n" "speedup" "bits"

let print_row ~width name per_domain =
  let _, tn1, tt1, _ = List.hd per_domain in
  let all_same = List.for_all (fun (_, _, _, s) -> s) per_domain in
  Printf.printf "%-*s" width name ;
  List.iter
    (fun (_, tn, tt, _) -> Printf.printf " %9s %9s" (Harness.ts tn) (Harness.ts tt))
    per_domain ;
  Printf.printf "   %5.2fx %5s\n" (tn1 /. tt1) (if all_same then "ok" else "DIFF") ;
  all_same

(* The timing fields shared by square and thin JSON rows. *)
let json_timings per_domain all_same =
  let naive = List.map (fun (_, tn, _, _) -> tn) per_domain in
  let tiled = List.map (fun (_, _, tt, _) -> tt) per_domain in
  let _, tn1, tt1, _ = List.hd per_domain in
  Printf.sprintf
    "\"naive_seconds\": %s, \"tiled_seconds\": %s, \"tiled_speedup_1dom\": \
     %.3f, \"bitwise_identical\": %b"
    (json_floats naive) (json_floats tiled) (tn1 /. tt1) all_same

let run cfg =
  Harness.section "Dense kernels: naive (Blas_ref) vs cache-blocked (Blas)" ;
  let dims = if cfg.Harness.quick then [ 100; 300 ] else [ 100; 500; 1000; 2000 ] in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "tile profile: %s\nhost cores online: %d\n"
    (Tune.describe (Tune.current ()))
    cores ;
  let results = ref [] in
  List.iter
    (fun d ->
      let probes = probes d in
      (* big sizes amortize their own noise; cap repetitions there so
         the full sweep stays tractable *)
      let runs = if d >= 1000 then 1 else cfg.Harness.runs in
      Harness.subsection (Printf.sprintf "d = %d (runs=%d)" d runs) ;
      print_header ~width:10 "kernel" ;
      List.iter
        (fun p ->
          let per_domain = time_probe ~runs p in
          let all_same = print_row ~width:10 p.name per_domain in
          results := (d, p.name, per_domain, all_same) :: !results)
        probes)
    dims ;
  let results = List.rev !results in
  let headline =
    List.filter_map
      (fun (d, name, per_domain, _) ->
        if name = "gemm" && d >= 500 then
          let _, tn1, tt1, _ = List.hd per_domain in
          Some (d, tn1 /. tt1)
        else None)
      results
  in
  List.iter
    (fun (d, sp) ->
      Printf.printf "\ngemm d=%d: tiled %.2fx over naive (1 domain)%s" d sp
        (if sp >= 3.0 then "  [>=3x target met]" else ""))
    headline ;
  if headline <> [] then print_newline () ;
  Harness.subsection "thin shapes (gemm, census)" ;
  let width = 28 in
  print_header ~width "shape" ;
  let thin =
    List.map
      (fun (m, k, n) ->
        let p = gemm_probe ~m ~k ~n in
        let per_domain = time_probe ~runs:cfg.Harness.runs p in
        let all_same = print_row ~width p.name per_domain in
        ((m, k, n), per_domain, all_same))
      (thin_shapes cfg.Harness.quick)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n" ;
  Buffer.add_string buf (Harness.provenance cfg ~experiment:"kernels") ;
  Buffer.add_string buf
    (Printf.sprintf "  \"tile_profile\": %S,\n" (Tune.describe (Tune.current ()))) ;
  Buffer.add_string buf
    (Printf.sprintf "  \"domains\": [%s],\n"
       (String.concat ", " (List.map string_of_int domain_counts))) ;
  Buffer.add_string buf
    (Printf.sprintf "  \"dims\": [%s],\n"
       (String.concat ", " (List.map string_of_int dims))) ;
  Buffer.add_string buf "  \"kernels\": [\n" ;
  List.iteri
    (fun i (d, name, per_domain, all_same) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": %S, \"dim\": %d, %s}%s\n" name d
           (json_timings per_domain all_same)
           (if i = List.length results - 1 then "" else ",")))
    results ;
  Buffer.add_string buf "  ],\n  \"thin_shapes\": [\n" ;
  List.iteri
    (fun i ((m, k, n), per_domain, all_same) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"gemm\", \"m\": %d, \"k\": %d, \"n\": %d, %s}%s\n"
           m k n
           (json_timings per_domain all_same)
           (if i = List.length thin - 1 then "" else ",")))
    thin ;
  Buffer.add_string buf "  ]\n}\n" ;
  let path = "BENCH_kernels.json" in
  Harness.write_report cfg ~path
    ~refuse:(fun () ->
      match Harness.single_core () with
      | Some why -> Some why
      | None -> Harness.quick_over_full cfg path)
    (Buffer.contents buf)
