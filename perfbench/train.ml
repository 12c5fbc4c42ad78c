(* Training workloads: the paper's algorithms, run factorized over a
   normalized matrix generated from the seed.

   train-dense   Fig 5 PK-FK shape: n_S = 100k, d_S = 20, n_R = 5000,
                 d_R = 80 (TR = 20, FR = 4); logreg GD, K-Means k=10,
                 GNMF rank 10 and linreg normal equations.
   train-sparse  Table 6 Movies at its published size (one-hot star,
                 1,000,209 x 13,348); logreg GD and K-Means k=10.

   The algorithms take turns, one whole training call each (on a fresh
   memo, so every call pays the same), until the window is spent; the
   iteration times come from the algorithms' own on_iter hooks. *)

open La
open Morpheus

module Algos (M : Data_matrix.S) = struct
  module L = Ml_algs.Logreg.Make (M)
  module K = Ml_algs.Kmeans.Make (M)
  module G = Ml_algs.Gnmf.Make (M)
  module R = Ml_algs.Linreg.Make (M)

  let hook tick _ _ = tick ()

  let logreg ~iters ~tick t y _ =
    [ (L.train ~alpha:1e-4 ~iters ~on_iter:(hook tick) t y).L.w ]

  let kmeans ~iters ~tick t _ _ =
    let r = K.train ~iters ~k:10 ~on_iter:(hook tick) t in
    [ r.K.centroids;
      Dense.of_col_array (Array.map float_of_int r.K.assignments) ]

  let gnmf ~iters ~tick t _ _ =
    let f = G.train ~iters ~rank:10 ~on_iter:(hook tick) t in
    [ f.G.w; f.G.h ]

  let linreg ~iters:_ ~tick t _ yn =
    let w = R.train_normal t yn in
    tick () ;
    [ w ]
end

module AF = Algos (Factorized_matrix)
module AT = Algos (Traced)
module AM = Algos (Regular_matrix)

type 'm runner =
  iters:int -> tick:(unit -> unit) -> 'm -> Dense.t -> Dense.t -> Dense.t list

type algo = {
  name : string;
  iters : int;  (** iterations per training call *)
  drop_first : bool;
      (** the first iteration of a call also pays initialization and
          memo fills; linreg is one fit per call and keeps every one *)
  ops : string list;  (** the Data_matrix products this algorithm issues *)
  tol : float;  (** relative tolerance against the materialized reference *)
  f : Normalized.t runner;
  tr : Normalized.t runner;
  m : Regular_matrix.t runner;
}

let logreg =
  { name = "logreg"; iters = 10; drop_first = true; ops = [ "lmm"; "tlmm" ];
    tol = 1e-9; f = AF.logreg; tr = AT.logreg; m = AM.logreg }

let kmeans =
  { name = "kmeans"; iters = 4; drop_first = true;
    ops = [ "lmm"; "tlmm" ]; tol = 1e-9; f = AF.kmeans; tr = AT.kmeans;
    m = AM.kmeans }

let gnmf =
  { name = "gnmf"; iters = 4; drop_first = true; ops = [ "lmm"; "tlmm" ];
    tol = 1e-9; f = AF.gnmf; tr = AT.gnmf; m = AM.gnmf }

let linreg =
  { name = "linreg"; iters = 1; drop_first = false;
    ops = [ "crossprod"; "tlmm" ]; tol = 1e-6; f = AF.linreg; tr = AT.linreg;
    m = AM.linreg }

let all_algos = [ logreg; kmeans; gnmf; linreg ]

type data = { t : Normalized.t; y : Dense.t; yn : Dense.t }

let generate ~smoke ~seed = function
  | `Dense ->
    let ns, nr = if smoke then (4_000, 200) else (100_000, 5_000) in
    let d = Workload.Synthetic.pkfk ~seed ~ns ~ds:20 ~nr ~dr:80 () in
    (* |Gaussian| features: GNMF is only defined on non-negative data,
       and its check against the materialized baseline needs that *)
    { t = Normalized.map_mats (Sparse.Mat.map_scalar Float.abs) d.Workload.Synthetic.t;
      y = d.Workload.Synthetic.y;
      yn = d.Workload.Synthetic.y_numeric }
  | `Sparse ->
    let scale_rows = if smoke then 0.005 else 1.0 in
    let t, y, yn = Workload.Realistic.load ~seed ~scale_rows Workload.Realistic.movies in
    { t; y; yn }

(* A new logical matrix over the same data, so no memoized invariant
   (crossprod, rowSums(T²)) survives from one training call to the next. *)
let fresh t = { t with Normalized.memo = Normalized.fresh_memo () }

let now = Workload.Timing.now

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type sample = {
  dt : float;  (** seconds, as measured *)
  cal : float;  (** seconds, calibrated to the nominal host speed *)
  flops : float;
  words : float;
}

(* One training call on a fresh memo; appends its warm iteration
   samples. With [traced], iteration spans bracket the op spans the
   Traced wrapper records. Returns the call's result. *)
let call algo d ~traced samples =
  let t = fresh d.t in
  let idx = ref 0 in
  let probed = ref (Stat.probe ()) in
  let last = ref (now (), Flops.get (), alloc_words ()) in
  if traced then begin
    Traced.parent := Trace.fresh_id () ;
    Traced.iteration := 1
  end ;
  let tick () =
    let t1 = now () and f1 = Flops.get () and w1 = alloc_words () in
    let t0, f0, w0 = !last in
    incr idx ;
    let warm = !idx >= 2 || not algo.drop_first in
    let before = !probed in
    probed := Stat.probe () ;
    if warm then
      samples :=
        { dt = t1 -. t0; cal = Stat.calibrate (t1 -. t0) ~before ~after:!probed; flops = f1 -. f0;
          words = w1 -. w0 }
        :: !samples ;
    if traced then begin
      Trace.add ~id:!Traced.parent ~req:!idx (algo.name ^ if warm then ".iter" else ".iter0") t0 t1 ;
      Traced.parent := Trace.fresh_id () ;
      Traced.iteration := !idx + 1
    end ;
    last := (now (), Flops.get (), alloc_words ())
  in
  let run = if traced then algo.tr else algo.f in
  let out = run ~iters:algo.iters ~tick t d.y d.yn in
  if traced then begin
    let t0, _, _ = !last in
    Trace.add ~id:!Traced.parent (algo.name ^ ".tail") t0 (now ()) ;
    Traced.parent := 0
  end ;
  out

type measured = {
  algo : algo;
  plain : sample array;  (** untraced warm iterations *)
  traced_s : sample array;  (** traced warm iterations (traced run only) *)
  first_match : bool;  (** first traced result bitwise equal to the first untraced one *)
}

(* Rounds of one call per algorithm until [budget] seconds are spent (at
   least one round). Host speed can drift over seconds, so each
   algorithm's samples are spread over the whole window rather than
   taken in one slot. In a traced run every untraced call is followed by
   a traced one on the same input. *)
let measure algos d ~traced ~budget =
  let acc = List.map (fun a -> (a, ref [], ref [], ref None, ref true)) algos in
  let stop_at = now () +. budget in
  let rounds = ref 0 in
  while !rounds = 0 || now () < stop_at do
    List.iter
      (fun (a, plain, tr, first, matches) ->
        let out = call a d ~traced:false plain in
        if traced then begin
          Trace.on := true ;
          let tout = call a d ~traced:true tr in
          Trace.on := false ;
          if Option.is_none !first then matches := List.for_all2 Stat.dense_bits_equal out tout
        end ;
        if Option.is_none !first then first := Some out)
      acc ;
    incr rounds
  done ;
  List.map
    (fun (algo, plain, tr, _, matches) ->
      { algo; plain = Array.of_list (List.rev !plain); traced_s = Array.of_list (List.rev !tr);
        first_match = !matches })
    acc

let rel_diff a b =
  Dense.max_abs_diff a b /. Float.max 1e-300 (Dense.max_abs b)

(* The factorized result on a row subset must match the materialized
   baseline (the paper's reference semantics) on the same rows. *)
let reference_check r algos d =
  let n = Normalized.rows d.t in
  let m = min n 2_000 in
  let ids = Array.init m (fun i -> i * (n / m)) in
  let pick y = Dense.init m 1 (fun i _ -> Dense.get y ids.(i) 0) in
  let ts = Normalized.select_rows d.t ids in
  let ms = Materialize.to_regular ts in
  let y = pick d.y and yn = pick d.yn in
  List.iter
    (fun a ->
      let tick () = () in
      let fo = a.f ~iters:3 ~tick ts y yn and mo = a.m ~iters:3 ~tick ms y yn in
      let worst = List.fold_left2 (fun acc x y -> Float.max acc (rel_diff x y)) 0.0 fo mo in
      Report.check r
        (Printf.sprintf "%s factorized vs materialized on %d rows: rel diff %g > %g" a.name m
           worst a.tol)
        (worst <= a.tol))
    algos

let ms x = x *. 1e3

let run ~smoke ~seed ~seconds ~traced ~shape r =
  let algos =
    match shape with `Dense -> all_algos | `Sparse -> [ logreg; kmeans ]
  in
  (* set-up: generate the data [Stat.setup_reps] times, report the median *)
  let kept = ref None in
  let setup_s =
    Stat.median
      (Array.init Stat.setup_reps (fun _ ->
           kept := None ;
           Gc.compact () ;
           let before = Stat.probe () in
           let t0 = now () in
           kept := Some (generate ~smoke ~seed shape) ;
           let dt = now () -. t0 in
           Stat.calibrate dt ~before ~after:(Stat.probe ())))
  in
  let d = Option.get !kept in
  let n, dim = Normalized.dims d.t in
  Report.line r "data: %d x %d, tuple ratio %.1f" n dim (Normalized.tuple_ratio d.t) ;
  reference_check r algos d ;
  let t_start = now () in
  let results = measure algos d ~traced ~budget:seconds in
  let train_s = now () -. t_start in
  List.iter (fun m -> Array.iter (fun _ -> Report.op r true) m.plain) results ;
  let iter_ms a = Stat.median (Array.map (fun s -> ms s.dt) a) in
  let p90_ms a = Stat.quantile (Array.map (fun s -> ms s.dt) a) 0.9 in
  let cal_ms q a = Stat.quantile (Array.map (fun s -> ms s.cal) a) q in
  let p50 = Stat.geomean (List.map (fun m -> iter_ms m.plain) results) in
  let total_iters = List.fold_left (fun acc m -> acc + Array.length m.plain) 0 results in
  List.iter
    (fun m ->
      Report.line r "%s_iter_ms %.3f (p90 %.3f, %d iterations; calibrated p50 %.3f p90 %.3f)"
        m.algo.name (iter_ms m.plain) (p90_ms m.plain) (Array.length m.plain) (cal_ms 0.5 m.plain)
        (cal_ms 0.9 m.plain))
    results ;
  Report.line r "train_total_s %.3f" train_s ;
  if not traced then begin
    Report.e2e r "setup_s" "s" setup_s ;
    Report.e2e r "op_p50_ms" "ms" (Stat.geomean (List.map (fun m -> cal_ms 0.5 m.plain) results)) ;
    Report.e2e r "op_p90_ms" "ms" (Stat.geomean (List.map (fun m -> cal_ms 0.9 m.plain) results)) ;
    Report.e2e r "throughput_ops" "1/s"
      (float_of_int total_iters
      /. Stat.sum (Array.concat (List.map (fun m -> Array.map (fun x -> x.cal) m.plain) results))) ;
    Report.e2e r "peak_rss_mb" "MB" (Option.value ~default:nan (Stat.vmhwm_mb "self"))
  end
  else begin
    List.iter
      (fun m ->
        Report.check r (m.algo.name ^ ": traced result differs from the untraced one") m.first_match)
      results ;
    let traced_p50 = Stat.geomean (List.map (fun m -> iter_ms m.traced_s) results) in
    Report.layer r "trace.overhead_ms" "ms" (traced_p50 -. p50) ;
    let spans = Trace.all () in
    let fm =
      match shape with
      | `Sparse -> fun _ -> 0.0
      | `Dense ->
        (* materialized baseline on the same data: a few iterations *)
        let mat = Materialize.to_regular d.t in
        fun m ->
          let k = ref 0 and total = ref 0.0 and last = ref (now ()) in
          let tick () =
            incr k ;
            if !k >= 2 || not m.algo.drop_first then total := !total +. (now () -. !last) ;
            last := now ()
          in
          last := now () ;
          ignore (m.algo.m ~iters:3 ~tick mat d.y d.yn) ;
          let warm = if m.algo.drop_first then !k - 1 else !k in
          ms (!total /. float_of_int warm) /. iter_ms m.plain
    in
    List.iter
      (fun m ->
        let p = m.algo.name in
        let warm = List.filter (fun sp -> sp.Trace.name = p ^ ".iter") spans in
        let ids = Hashtbl.create 64 in
        List.iter (fun sp -> Hashtbl.replace ids sp.Trace.id ()) warm ;
        let kids = List.filter (fun sp -> Hashtbl.mem ids sp.Trace.parent) spans in
        let nw = float_of_int (max 1 (List.length warm)) in
        let per_iter l = ms (List.fold_left (fun acc sp -> acc +. Trace.dur sp) 0.0 l) /. nw in
        Report.layer r (p ^ "_iter_ms") "ms" (iter_ms m.plain) ;
        Report.layer r (p ^ ".iter_ms_p90") "ms" (p90_ms m.plain) ;
        List.iter
          (fun op ->
            Report.layer r
              (Printf.sprintf "%s.rewrite.%s_ms" p op)
              "ms"
              (per_iter (List.filter (fun sp -> sp.Trace.name = "rewrite." ^ op) kids)))
          m.algo.ops ;
        Report.layer r (p ^ ".ml_self_ms") "ms" (per_iter warm -. per_iter kids) ;
        let mult =
          List.filter
            (fun sp -> List.mem sp.Trace.name [ "rewrite.lmm"; "rewrite.tlmm"; "rewrite.rmm" ])
            kids
        in
        let rhs1 =
          List.filter
            (fun sp ->
              match sp.Trace.shape with
              | Some (_, _, 1) -> sp.Trace.name <> "rewrite.rmm"
              | Some (1, _, _) -> sp.Trace.name = "rewrite.rmm"
              | _ -> false)
            mult
        in
        Report.layer r (p ^ ".rhs1_share") "share"
          (if mult = [] then 0.0 else per_iter rhs1 /. per_iter mult) ;
        Report.layer r (p ^ ".flops_per_iter") "count"
          (Stat.median (Array.map (fun x -> x.flops) m.traced_s)) ;
        Report.layer r (p ^ ".alloc_mw_per_iter") "Mwords"
          (Stat.median (Array.map (fun x -> x.words /. 1e6) m.plain)) ;
        Report.layer r (p ^ ".fm_speedup") "x" (fm m))
      results ;
    let census = Trace.census () in
    Report.line r "kernel shape census (op m k n: calls, ms):" ;
    List.iter
      (fun ((op, m, k, n), (c, t)) -> Report.line r "  %s %d %d %d: %d, %.3f" op m k n c (ms t))
      census ;
    r.Report.files <-
      [ ("census.json", fun path -> Trace.write_census path census);
        ("spans.jsonl", Trace.write_jsonl) ]
  end
