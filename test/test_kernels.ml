(* Bitwise equivalence of the cache-blocked/register-tiled kernels
   (Blas) against the frozen naive reference (Blas_ref), at adversarial
   shapes, betas, and tile profiles. Not approximate: every comparison
   is on IEEE bit patterns, because the tiled kernels promise the same
   accumulation sequence per output cell — any reordering shows up here
   as a one-ulp diff long before it corrupts a model.

   The @kernelcheck dune alias re-runs this binary at MORPHEUS_THREADS
   1 and 4 and under MORPHEUS_LOCKDEP=1, so the equivalence is
   certified on both backends and under the lock-order analyzer. *)

open La

let bits = Int64.bits_of_float

(* Bit equality, except that any NaN matches any NaN: IEEE 754 leaves
   NaN sign/payload propagation to the implementation, and x86 resolves
   a NaN×NaN (or NaN-producing) operation to the *destination*
   operand's payload — which operand lands in the destination register
   is per-site codegen, so two differently-compiled bodies cannot
   promise matching payloads. Where a NaN appears is still checked
   exactly (a cell that is NaN in one result must be NaN in the
   other); everything finite and ±Inf and ±0.0 is compared on bits. *)
let eq_bits x y =
  Int64.equal (bits x) (bits y) || (Float.is_nan x && Float.is_nan y)

let mat_equal a b =
  Dense.rows a = Dense.rows b
  && Dense.cols a = Dense.cols b
  && Array.for_all2 eq_bits (Dense.data a) (Dense.data b)

let vec_equal x y =
  Array.length x = Array.length y && Array.for_all2 eq_bits x y

let check_mat name a b =
  if not (mat_equal a b) then
    Alcotest.failf "%s: tiled result differs bitwise from reference (%s)" name
      (Tune.describe (Tune.current ()))

let check_vec name x y =
  if not (vec_equal x y) then
    Alcotest.failf "%s: tiled result differs bitwise from reference (%s)" name
      (Tune.describe (Tune.current ()))

(* Mix of ordinary values, exact zeros (both signs — they exercise the
   reference's [<> 0.0] skip and the packers' zero-free detection), and
   small integers (which collide into equal products, catching
   accumulation-order swaps that cancellation would otherwise hide). *)
let gen_mat rng rows cols =
  Dense.init rows cols (fun _ _ ->
      match Rng.int rng 8 with
      | 0 -> 0.0
      | 1 -> -0.0
      | 2 -> float_of_int (Rng.int rng 7 - 3)
      | _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

let gen_vec rng n =
  Array.init n (fun _ ->
      match Rng.int rng 8 with
      | 0 -> 0.0
      | 1 -> -0.0
      | _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

(* Tile profiles the suite pins via Tune.set: the shipped default, a
   deliberately misaligned tiny blocking (tiles never divide the
   matrix), the 6x2 micro shape, and the degenerate all-1 profile
   (every tile is an edge case). Results must not depend on any of
   this. *)
let profiles =
  [ ("default", Tune.default);
    ("tiny-misaligned", { Tune.default with mc = 5; kc = 3; nc = 7; mr = 3; nr = 5 });
    ("micro-6x2", { Tune.default with mc = 12; kc = 8; nc = 10; mr = 6; nr = 2 });
    ("all-ones", { Tune.default with mc = 1; kc = 1; nc = 1; mr = 1; nr = 1 })
  ]

(* Shapes that stress the edges: unit dims, row/column vectors shaped
   as matrices, primes that no tile divides, and one size past the
   default parallel_for chunking threshold at 4 domains. gemm's thin
   paths get their own: one-column products (n = 1, with a row count
   that leaves a partial 4-row tile) and one-row products (m = 1). *)
let shapes =
  [ (1, 1, 1); (1, 9, 1); (7, 1, 5); (5, 3, 7); (13, 17, 11); (4, 4, 4);
    (33, 29, 31); (64, 40, 12); (9, 7, 1); (64, 40, 1); (1, 7, 5);
    (1, 40, 12) ]

let betas = [ 0.0; 1.0; 0.5 ]

let with_profile p f =
  Tune.set p ;
  Fun.protect ~finally:Tune.reset f

let check_all_kernels ~m ~k ~n rng =
  let a = gen_mat rng m k in
  let b = gen_mat rng k n in
  let at = gen_mat rng k m in (* tgemm multiplies atᵀ·b *)
  let bt = gen_mat rng n k in (* gemm_nt multiplies a·btᵀ *)
  let w = gen_vec rng m in
  let x = gen_vec rng k in
  check_mat "gemm" (Blas_ref.gemm a b) (Blas.gemm a b) ;
  check_mat "tgemm" (Blas_ref.tgemm at b) (Blas.tgemm at b) ;
  check_mat "gemm_nt" (Blas_ref.gemm_nt a bt) (Blas.gemm_nt a bt) ;
  check_mat "crossprod" (Blas_ref.crossprod a) (Blas.crossprod a) ;
  check_mat "weighted_crossprod"
    (Blas_ref.weighted_crossprod a w)
    (Blas.weighted_crossprod a w) ;
  check_mat "tcrossprod" (Blas_ref.tcrossprod a) (Blas.tcrossprod a) ;
  check_vec "gemv" (Blas_ref.gemv a x) (Blas.gemv a x) ;
  List.iter
    (fun beta ->
      let c0 = gen_mat rng m n in
      let cr = Dense.copy c0 and ct = Dense.copy c0 in
      Blas_ref.gemm_into ~beta a b ~c:cr ;
      Blas.gemm_into ~beta a b ~c:ct ;
      check_mat (Printf.sprintf "gemm_into beta=%g" beta) cr ct ;
      let y0 = gen_vec rng m in
      let yr = Array.copy y0 and yt = Array.copy y0 in
      Blas_ref.gemv_into ~beta a x ~y:yr ;
      Blas.gemv_into ~beta a x ~y:yt ;
      check_vec (Printf.sprintf "gemv_into beta=%g" beta) yr yt)
    betas

let test_directed_shapes () =
  List.iter
    (fun (pname, p) ->
      with_profile p (fun () ->
          List.iter
            (fun (m, k, n) ->
              let rng = Rng.of_int ((m * 1000) + (k * 100) + n) in
              try check_all_kernels ~m ~k ~n rng
              with e ->
                Printf.eprintf "at profile %s, shape %dx%dx%d\n%!" pname m k n ;
                raise e)
            shapes))
    profiles

(* NaN and infinity must propagate to the same cells: the reference's
   zero-skip decides whether a NaN/Inf product enters a cell at all,
   and the tiled kernels replicate that skip per (row, depth) element
   (weighted_crossprod additionally forces 0.0 on zero weights, which
   this matrix exercises alongside non-finite data). NaN *payloads*
   are exempted by [eq_bits] above; Inf signs are exact. *)
let test_nonfinite () =
  let rng = Rng.of_int 4242 in
  let inject m =
    Dense.mapi
      (fun i j v ->
        match (i + (2 * j)) mod 11 with
        | 0 -> Float.nan
        | 1 -> Float.infinity
        | 2 -> Float.neg_infinity
        | 3 -> 0.0
        | _ -> v)
      m
  in
  let a = inject (gen_mat rng 9 7) and b = inject (gen_mat rng 7 5) in
  let w = Array.init 9 (fun i -> if i mod 3 = 0 then 0.0 else 1.5) in
  List.iter
    (fun (_, p) ->
      with_profile p (fun () ->
          check_mat "gemm nonfinite" (Blas_ref.gemm a b) (Blas.gemm a b) ;
          check_mat "crossprod nonfinite" (Blas_ref.crossprod a)
            (Blas.crossprod a) ;
          check_mat "weighted nonfinite"
            (Blas_ref.weighted_crossprod a w)
            (Blas.weighted_crossprod a w) ;
          check_mat "tcrossprod nonfinite" (Blas_ref.tcrossprod a)
            (Blas.tcrossprod a)))
    profiles ;
  (* gemm's thin paths: NaN/Inf in the vector operand meet only exact
     zeros in the matrix, so the reference — which skips a zero A-side
     factor — never lets them into a cell and stays finite, while a
     skip-less gemv-style loop would produce NaN. Separately, a -0.0
     destination with beta = 1 and an all-zero A side must stay -0.0
     (an added 0·v term would turn it into +0.0). *)
  let col =
    Dense.of_col_array [| 1.25; Float.nan; -0.5; 2.0; Float.infinity; 0.75; -1.0 |]
  in
  let a1 =
    Dense.mapi
      (fun i k v -> if k = 1 || k = 4 || i = 3 then 0.0 else v)
      (gen_mat rng 9 7)
  in
  let x = Dense.of_arrays [| [| 0.0; -0.0; 2.0; 0.0; 1.5; 0.5; 0.0 |] |] in
  let bx =
    Dense.mapi
      (fun k j v ->
        if Dense.get x 0 k <> 0.0 then v
        else if j mod 2 = 0 then Float.infinity
        else Float.nan)
      (gen_mat rng 7 5)
  in
  let zeros_row = Dense.of_arrays [| [| 0.0; -0.0; 0.0; 0.0; -0.0; 0.0; 0.0 |] |] in
  let finite_col = gen_mat rng 7 1 and finite_b = gen_mat rng 7 5 in
  let neg_zero_into name a b =
    let cr = Dense.make (Dense.rows a) (Dense.cols b) (-0.0) in
    let ct = Dense.copy cr in
    Blas_ref.gemm_into ~beta:1.0 a b ~c:cr ;
    Blas.gemm_into ~beta:1.0 a b ~c:ct ;
    check_mat name cr ct
  in
  List.iter
    (fun (_, p) ->
      with_profile p (fun () ->
          check_mat "gemm n=1 nonfinite" (Blas_ref.gemm a1 col) (Blas.gemm a1 col) ;
          check_mat "gemm m=1 nonfinite" (Blas_ref.gemm x bx) (Blas.gemm x bx) ;
          neg_zero_into "gemm_into n=1 -0.0" a1 finite_col ;
          neg_zero_into "gemm_into m=1 -0.0" zeros_row finite_b))
    profiles

(* The tiled kernels must charge exactly the reference's analytic flop
   counts — packing is movement, not arithmetic (test_exec's
   model-vs-measured equalities depend on this staying exact). *)
let test_flops_equal () =
  let rng = Rng.of_int 77 in
  let a = gen_mat rng 13 9 and b = gen_mat rng 9 11 in
  let at = gen_mat rng 9 13 and bt = gen_mat rng 11 9 in
  let w = gen_vec rng 13 and x = gen_vec rng 9 in
  let c0 = gen_mat rng 13 11 in
  let counted f = snd (Flops.count f) in
  let pair name fr ft =
    Alcotest.(check (float 0.0)) (name ^ " flops") (counted fr) (counted ft)
  in
  pair "gemm"
    (fun () -> ignore (Blas_ref.gemm a b))
    (fun () -> ignore (Blas.gemm a b)) ;
  pair "tgemm"
    (fun () -> ignore (Blas_ref.tgemm at b))
    (fun () -> ignore (Blas.tgemm at b)) ;
  pair "gemm_nt"
    (fun () -> ignore (Blas_ref.gemm_nt a bt))
    (fun () -> ignore (Blas.gemm_nt a bt)) ;
  pair "crossprod"
    (fun () -> ignore (Blas_ref.crossprod a))
    (fun () -> ignore (Blas.crossprod a)) ;
  pair "weighted_crossprod"
    (fun () -> ignore (Blas_ref.weighted_crossprod a w))
    (fun () -> ignore (Blas.weighted_crossprod a w)) ;
  pair "tcrossprod"
    (fun () -> ignore (Blas_ref.tcrossprod a))
    (fun () -> ignore (Blas.tcrossprod a)) ;
  pair "gemv"
    (fun () -> ignore (Blas_ref.gemv a x))
    (fun () -> ignore (Blas.gemv a x)) ;
  let col = gen_mat rng 9 1 and row = gen_mat rng 1 9 in
  pair "gemm n=1"
    (fun () -> ignore (Blas_ref.gemm a col))
    (fun () -> ignore (Blas.gemm a col)) ;
  pair "gemm m=1"
    (fun () -> ignore (Blas_ref.gemm row at))
    (fun () -> ignore (Blas.gemm row at)) ;
  List.iter
    (fun beta ->
      pair
        (Printf.sprintf "gemm_into beta=%g" beta)
        (fun () -> Blas_ref.gemm_into ~beta a b ~c:(Dense.copy c0))
        (fun () -> Blas.gemm_into ~beta a b ~c:(Dense.copy c0)))
    betas

(* qcheck: random shapes × random profile index; the directed shapes
   above pin the known-nasty corners, this sweeps the space between. *)
let qc = QCheck_alcotest.to_alcotest

let prop_bitwise =
  QCheck.Test.make ~name:"tiled kernels bitwise == reference" ~count:60
    (QCheck.make
       ~print:(fun (s, p) -> Printf.sprintf "seed=%d profile=%d" s p)
       QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 0 3)))
    (fun (seed, pidx) ->
      let _, p = List.nth profiles pidx in
      let rng = Rng.of_int seed in
      let m = 1 + Rng.int rng 24
      and k = 1 + Rng.int rng 24
      and n = 1 + Rng.int rng 24 in
      with_profile p (fun () ->
          check_all_kernels ~m ~k ~n rng ;
          true))

(* An explicit 4-domain pool (regardless of MORPHEUS_THREADS), so the
   parallel path is exercised even in the plain runtest invocation. *)
let test_four_domains () =
  let exec = Exec.make 4 in
  Fun.protect
    ~finally:(fun () -> Exec.shutdown exec)
    (fun () ->
      let rng = Rng.of_int 90210 in
      let a = gen_mat rng 47 19 and b = gen_mat rng 19 23 in
      with_profile (List.assoc "tiny-misaligned" profiles) (fun () ->
          check_mat "gemm 4dom" (Blas_ref.gemm ~exec a b) (Blas.gemm ~exec a b) ;
          check_mat "crossprod 4dom" (Blas_ref.crossprod ~exec a)
            (Blas.crossprod ~exec a) ;
          check_mat "tcrossprod 4dom" (Blas_ref.tcrossprod ~exec a)
            (Blas.tcrossprod ~exec a) ;
          let x = gen_vec rng 19 in
          check_vec "gemv 4dom" (Blas_ref.gemv ~exec a x)
            (Blas.gemv ~exec a x) ;
          (* n = 1 past the chunk threshold (65536 / (2·19) = 1724 rows
             at the default grain): four chunks whose bounds cut 4-row
             tiles. *)
          let tall = gen_mat rng 7001 19 and col = gen_mat rng 19 1 in
          check_mat "gemm n=1 4dom" (Blas_ref.gemm ~exec tall col)
            (Blas.gemm ~exec tall col)))

let () =
  Alcotest.run "kernels"
    [ ( "bitwise",
        [ Alcotest.test_case "directed shapes x profiles" `Quick
            test_directed_shapes;
          Alcotest.test_case "nonfinite propagation" `Quick test_nonfinite;
          Alcotest.test_case "flop accounting equal" `Quick test_flops_equal;
          Alcotest.test_case "explicit 4-domain pool" `Quick test_four_domains;
          qc prop_bitwise
        ] )
    ]
