(* Memoization + in-place-kernel bench: per-iteration wall-clock and
   heap allocation of the three iterative ML algorithms, before vs
   after the invariant-memo / allocation-free-loop work.

   "before" re-creates the legacy loop shapes locally — dense one-hot
   selectors, fresh temporaries from add/scale/gemm on every iteration,
   a materialized 2·T copy and rowSums(T²) recomputed per call — and
   runs them with memoization disabled. "after" is the shipped
   implementation: memoized rowSums(T²)/crossprod on the normalized
   matrix, [axpy]/[gemm_into]/workspace loops inside.

   Both arms compute bitwise-identical models (the in-place kernels are
   exact rewrites), so the delta is pure overhead removed. Results go
   to stdout and BENCH_memo.json in the current directory; a quick run
   does not replace a full-mode file unless --force is given. *)

open La
open Morpheus
open Workload
open Ml_algs.Algorithms
module F = Factorized_matrix

(* ---- legacy loop shapes (pre-memo, allocating) ---- *)

let legacy_logreg ~alpha ~iters t y =
  let d = F.cols t in
  let w = ref (Dense.create d 1) in
  for _ = 1 to iters do
    let scores = F.lmm t !w in
    let p = Dense.create (Dense.rows y) 1 in
    let pd = Dense.data p and yd = Dense.data y and sd = Dense.data scores in
    for i = 0 to Array.length pd - 1 do
      let yi = Array.unsafe_get yd i in
      Array.unsafe_set pd i
        (yi /. (1.0 +. Stdlib.exp (yi *. Array.unsafe_get sd i)))
    done ;
    let grad = F.tlmm t p in
    w := Dense.add !w (Dense.scale alpha grad)
  done ;
  !w

let legacy_kmeans ~iters ~k t =
  let n = F.rows t in
  (* dense n×k one-hot selector for the seeds *)
  let sel = Dense.init n k (fun i j -> if i = j * (n / k) then 1.0 else 0.0) in
  let c = ref (F.tlmm t sel) in
  (* recomputed on every call: rowSums(T²) and a scaled 2·T copy *)
  let dt = F.row_sums (F.pow t 2.0) in
  let t2 = F.scale 2.0 t in
  for _ = 1 to iters do
    let c2 = Dense.col_sums (Dense.pow_scalar !c 2.0) in
    let tc = F.lmm t2 !c in
    let d = Dense.create n k in
    let dd = Dense.data d
    and dtd = Dense.data dt
    and c2d = Dense.data c2
    and tcd = Dense.data tc in
    for i = 0 to n - 1 do
      let base = i * k in
      let dti = Array.unsafe_get dtd i in
      for j = 0 to k - 1 do
        Array.unsafe_set dd (base + j)
          (dti +. Array.unsafe_get c2d j -. Array.unsafe_get tcd (base + j))
      done
    done ;
    let args = Dense.row_argmins d in
    let a = Dense.create n k in
    let ad = Dense.data a in
    Array.iteri (fun i j -> Array.unsafe_set ad ((i * k) + j) 1.0) args ;
    let ta = F.tlmm t a in
    let counts = Dense.col_sums a in
    c :=
      Dense.init (F.cols t) k (fun i j ->
          let cnt = Dense.get counts 0 j in
          if cnt > 0.0 then Dense.get ta i j /. cnt else Dense.get !c i j)
  done ;
  !c

let legacy_gnmf ~iters ~rank t =
  let rng = Rng.of_int 42 in
  let n = F.rows t and d = F.cols t in
  let pos rows cols = Dense.init rows cols (fun _ _ -> 0.1 +. Rng.float rng) in
  let w = ref (pos n rank) and h = ref (pos d rank) in
  let eps = 1e-12 in
  for _ = 1 to iters do
    let update cur num den =
      let out = Dense.create (Dense.rows cur) (Dense.cols cur) in
      let od = Dense.data out
      and cd = Dense.data cur
      and nd = Dense.data num
      and dd = Dense.data den in
      for i = 0 to Array.length od - 1 do
        Array.unsafe_set od i
          (Array.unsafe_get cd i *. Array.unsafe_get nd i
          /. (Array.unsafe_get dd i +. eps))
      done ;
      out
    in
    let p = F.tlmm t !w in
    let denom_h = Blas.gemm !h (Blas.crossprod !w) in
    h := update !h p denom_h ;
    let p = F.lmm t !h in
    let denom_w = Blas.gemm !w (Blas.crossprod !h) in
    w := update !w p denom_w
  done ;
  (!w, !h)

(* ---- driver ---- *)

let per_iter iters (a : Timing.alloc) =
  let n = float_of_int iters in
  Timing.
    {
      seconds = a.seconds /. n;
      minor_words = a.minor_words /. n;
      major_words = a.major_words /. n;
      promoted_words = a.promoted_words /. n;
    }

let json_alloc (a : Timing.alloc) =
  Printf.sprintf
    "{\"seconds_per_iter\": %.6e, \"minor_words_per_iter\": %.1f, \"major_words_per_iter\": %.1f, \"promoted_words_per_iter\": %.1f}"
    a.Timing.seconds a.Timing.minor_words a.Timing.major_words
    a.Timing.promoted_words

let run cfg =
  Harness.section
    "Memoization + in-place kernels: per-iteration time and allocation" ;
  let base = if cfg.Harness.quick then 300 else 2_000 in
  let tr = 10 and fr = 4.0 in
  let data = Synthetic.table4_tuple_ratio ~base ~tr ~fr () in
  let t = data.Synthetic.t and y = data.Synthetic.y in
  let iters = if cfg.Harness.quick then 3 else 10 in
  Printf.printf
    "factorized T at TR=%d FR=%.1f (base n_R=%d); %d iterations per run\n" tr
    fr base iters ;
  let cases =
    [ ( "logreg",
        (fun () -> ignore (legacy_logreg ~alpha:1e-4 ~iters t y)),
        fun () -> ignore (Factorized.Logreg.train ~alpha:1e-4 ~iters t y) );
      ( "kmeans",
        (fun () -> ignore (legacy_kmeans ~iters ~k:5 t)),
        fun () -> ignore (Factorized.Kmeans.train ~iters ~k:5 t) );
      ( "gnmf",
        (fun () -> ignore (legacy_gnmf ~iters ~rank:5 t)),
        fun () -> ignore (Factorized.Gnmf.train ~iters ~rank:5 t) )
    ]
  in
  let results =
    List.map
      (fun (name, before, after) ->
        (* legacy arm with memoization off: every run recomputes the
           loop invariants, as the pre-memo library did *)
        let b =
          per_iter iters
            (Harness.measure_alloc cfg (fun () -> Memo.with_disabled before))
        in
        (* shipped arm: memoization on (the driver turns it off for the
           paper benches); warmup populates the memo cells attached to
           [t], so measured runs see the steady state *)
        let a =
          Memo.set_enabled true ;
          let r = per_iter iters (Harness.measure_alloc cfg after) in
          Memo.set_enabled false ;
          r
        in
        Harness.subsection name ;
        Harness.alloc_header () ;
        Harness.alloc_row "before (legacy, no memo)" b ;
        Harness.alloc_row "after (memo + in-place)" a ;
        Printf.printf "per-iteration speedup: %.2fx\n"
          (b.Timing.seconds /. a.Timing.seconds) ;
        (name, b, a))
      cases
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n" ;
  Buffer.add_string buf (Harness.provenance cfg ~experiment:"memo") ;
  Buffer.add_string buf
    (Printf.sprintf
       "  \"setting\": {\"base\": %d, \"tr\": %d, \"fr\": %.1f, \"iters\": %d},\n"
       base tr fr iters) ;
  Buffer.add_string buf "  \"algorithms\": [\n" ;
  List.iteri
    (fun i (name, b, a) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S,\n     \"before\": %s,\n     \"after\": %s,\n     \"speedup_per_iter\": %.2f}%s\n"
           name (json_alloc b) (json_alloc a)
           (b.Timing.seconds /. a.Timing.seconds)
           (if i = List.length results - 1 then "" else ",")))
    results ;
  Buffer.add_string buf "  ]\n}\n" ;
  let path = "BENCH_memo.json" in
  Harness.write_report cfg ~path
    ~refuse:(fun () -> Harness.quick_over_full cfg path)
    (Buffer.contents buf)
