(* Planner bench: pushed-down selection vs materialize-then-filter.

   A segment query sigma_p(T)' sigma_p(T) (the filtered Gram matrix)
   and a segment scoring pass sigma_p(T) * w can run two ways:

   - pushdown: evaluate the predicate with per-table masks over the
     factorized representation, compose indicator mappings with one
     Normalized.select_rows, and run the factorized rewrite on the
     still-normalized segment (what Expr.optimize emits for
     filter(...) plans — docs/PLANNER.md);
   - materialize-then-filter: materialize the join, evaluate the
     predicate over the joined rows, gather the survivors, and run the
     standard kernel on the filtered regular matrix.

   The sweep varies predicate selectivity at the Fig-3 "large" cell
   (TR = 20, FR = 4). Results go to stdout and BENCH_planner.json (a quick
   run does not replace a full-mode file unless --force is given); the
   expectation checked by eye (and recorded in the JSON) is that
   pushdown wins at every selectivity <= 0.5, where the avoided
   materialization dominates. *)

open La
open Morpheus
open Workload

let selectivities = [ 0.01; 0.1; 0.25; 0.5; 0.9 ]

let json_floats l =
  "[" ^ String.concat ", " (List.map (Printf.sprintf "%.6f") l) ^ "]"

let run cfg =
  Harness.section
    "Planner: pushed-down selection vs materialize-then-filter (TR=20 FR=4)" ;
  let base = if cfg.Harness.quick then 500 else 2_000 in
  let d = Synthetic.table4_tuple_ratio ~base ~tr:20 ~fr:4.0 () in
  let t = d.Synthetic.t in
  let n, dc = Normalized.dims t in
  let dense_t = Sparse.Mat.dense (Materialize.to_mat t) in
  let w = Dense.gaussian ~rng:(Rng.of_int 11) dc 1 in
  (* thresholds from the empirical quantiles of column c0, so each
     target selectivity is hit to within 1/n *)
  let col0 = Array.init n (fun i -> Dense.get dense_t i 0) in
  Array.sort compare col0 ;
  Printf.printf "T: %d x %d; predicate c0 < quantile(sel)\n\n" n dc ;
  Printf.printf "%-6s %-6s %22s %22s\n" "sel" "rows" "crossprod (push/mat)"
    "scoring (push/mat)" ;
  let results =
    List.map
      (fun sel ->
        let thr =
          col0.(min (n - 1) (int_of_float (sel *. float_of_int n)))
        in
        let pred =
          match Pred.parse (Printf.sprintf "c0 < %.17g" thr) with
          | Ok p -> p
          | Error msg -> failwith ("planner bench predicate: " ^ msg)
        in
        let rows = Array.length (Relalg.mask t pred) in
        let push_xp () = ignore (Rewrite.crossprod (Relalg.filter t pred)) in
        let mat_xp () =
          ignore
            (Sparse.Mat.crossprod (Relalg.filter_mat (Materialize.to_mat t) pred))
        in
        let push_sc () = ignore (Rewrite.lmm (Relalg.filter t pred) w) in
        let mat_sc () =
          ignore (Sparse.Mat.mm (Relalg.filter_mat (Materialize.to_mat t) pred) w)
        in
        let time f = Timing.measure ~warmup:1 ~runs:cfg.Harness.runs f in
        let txp_p = time push_xp and txp_m = time mat_xp in
        let tsc_p = time push_sc and tsc_m = time mat_sc in
        Printf.printf "%-6.2f %-6d %10s/%-10s %10s/%-10s  xp %5.2fx  sc %5.2fx\n"
          sel rows (Harness.ts txp_p) (Harness.ts txp_m) (Harness.ts tsc_p)
          (Harness.ts tsc_m) (txp_m /. txp_p) (tsc_m /. tsc_p) ;
        (sel, rows, (txp_p, txp_m), (tsc_p, tsc_m)))
      selectivities
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n" ;
  Buffer.add_string buf (Harness.provenance cfg ~experiment:"planner") ;
  Buffer.add_string buf
    (Printf.sprintf
       "  \"setting\": {\"base\": %d, \"tr\": 20, \"fr\": 4.0, \"rows\": %d, \
        \"cols\": %d, \"predicate\": \"c0 < quantile(sel)\"},\n"
       base n dc) ;
  Buffer.add_string buf
    "  \"expectation\": \"pushdown beats materialize-then-filter at every \
     selectivity <= 0.5\",\n" ;
  Buffer.add_string buf
    (Printf.sprintf "  \"selectivities\": %s,\n" (json_floats selectivities)) ;
  Buffer.add_string buf "  \"sweep\": [\n" ;
  List.iteri
    (fun i (sel, rows, (txp_p, txp_m), (tsc_p, tsc_m)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"selectivity\": %.2f, \"rows\": %d, \"crossprod\": \
            {\"pushdown_s\": %.6f, \"materialize_s\": %.6f, \"speedup\": \
            %.3f}, \"scoring\": {\"pushdown_s\": %.6f, \"materialize_s\": \
            %.6f, \"speedup\": %.3f}}%s\n"
           sel rows txp_p txp_m (txp_m /. txp_p) tsc_p tsc_m (tsc_m /. tsc_p)
           (if i = List.length results - 1 then "" else ",")))
    results ;
  Buffer.add_string buf "  ]\n}\n" ;
  let path = "BENCH_planner.json" in
  Harness.write_report cfg ~path
    ~refuse:(fun () -> Harness.quick_over_full cfg path)
    (Buffer.contents buf)
