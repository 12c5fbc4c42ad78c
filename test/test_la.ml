(* Tests for the dense LA substrate: Dense, Blas, Linalg. *)

open La

let check_close ?(tol = 1e-9) msg a b =
  if not (Dense.approx_equal ~tol a b) then
    Alcotest.failf "%s: max|diff| = %g" msg (Dense.max_abs_diff a b)

let check_float = Alcotest.(check (float 1e-9))

let rng () = Rng.of_int 12345

(* ---- Dense ---- *)

let test_create_dims () =
  let m = Dense.create 3 4 in
  Alcotest.(check (pair int int)) "dims" (3, 4) (Dense.dims m) ;
  Alcotest.(check int) "numel" 12 (Dense.numel m)

let test_of_arrays_roundtrip () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  let m = Dense.of_arrays a in
  Alcotest.(check bool) "roundtrip" true (Dense.to_arrays m = a)

let test_get_set () =
  let m = Dense.create 2 2 in
  Dense.set m 1 0 7.5 ;
  check_float "get" 7.5 (Dense.get m 1 0) ;
  Alcotest.check_raises "oob" (Invalid_argument "Dense.get: (2,0) out of 2x2")
    (fun () -> ignore (Dense.get m 2 0))

let test_identity () =
  let i3 = Dense.identity 3 in
  check_float "diag" 1.0 (Dense.get i3 1 1) ;
  check_float "offdiag" 0.0 (Dense.get i3 0 2) ;
  check_float "trace" 3.0 (Dense.sum i3)

let test_transpose_involution () =
  let m = Dense.random ~rng:(rng ()) 5 7 in
  check_close "ttᵀᵀ = t" m (Dense.transpose (Dense.transpose m))

let test_hcat_vcat () =
  let a = Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Dense.of_arrays [| [| 5. |]; [| 6. |] |] in
  let h = Dense.hcat [ a; b ] in
  Alcotest.(check (pair int int)) "hcat dims" (2, 3) (Dense.dims h) ;
  check_float "hcat val" 5.0 (Dense.get h 0 2) ;
  let v = Dense.vcat [ a; Dense.transpose b ] in
  Alcotest.(check (pair int int)) "vcat dims" (3, 2) (Dense.dims v) ;
  check_float "vcat val" 6.0 (Dense.get v 2 1)

let test_sub_rows_cols () =
  let m = Dense.init 4 5 (fun i j -> float_of_int ((10 * i) + j)) in
  let r = Dense.sub_rows m ~lo:1 ~hi:3 in
  check_float "sub_rows" 21.0 (Dense.get r 1 1) ;
  let c = Dense.sub_cols m ~lo:2 ~hi:4 in
  check_float "sub_cols" 13.0 (Dense.get c 1 1)

let test_row_col_sums () =
  let m = Dense.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  check_close "row_sums" (Dense.of_col_array [| 6.; 15. |]) (Dense.row_sums m) ;
  check_close "col_sums" (Dense.of_row_array [| 5.; 7.; 9. |]) (Dense.col_sums m) ;
  check_float "sum" 21.0 (Dense.sum m)

let test_row_mins_argmins () =
  let m = Dense.of_arrays [| [| 3.; 1.; 2. |]; [| -1.; 5.; 0. |] |] in
  check_close "row_mins" (Dense.of_col_array [| 1.; -1. |]) (Dense.row_mins m) ;
  Alcotest.(check (array int)) "argmins" [| 1; 0 |] (Dense.row_argmins m)

let test_scalar_ops () =
  let m = Dense.of_arrays [| [| 1.; -2. |] |] in
  check_close "scale" (Dense.of_arrays [| [| 3.; -6. |] |]) (Dense.scale 3.0 m) ;
  check_close "add_scalar" (Dense.of_arrays [| [| 2.; -1. |] |]) (Dense.add_scalar 1.0 m) ;
  check_close "pow" (Dense.of_arrays [| [| 1.; 4. |] |]) (Dense.pow_scalar m 2.0)

let test_elementwise () =
  let a = Dense.of_arrays [| [| 1.; 2. |] |] in
  let b = Dense.of_arrays [| [| 3.; 4. |] |] in
  check_close "add" (Dense.of_arrays [| [| 4.; 6. |] |]) (Dense.add a b) ;
  check_close "mul" (Dense.of_arrays [| [| 3.; 8. |] |]) (Dense.mul_elem a b) ;
  check_close "div" (Dense.of_arrays [| [| 3.; 2. |] |]) (Dense.div_elem b a)

let test_diag () =
  let d = Dense.diag_of_array [| 1.; 2.; 3. |] in
  check_float "diag val" 2.0 (Dense.get d 1 1) ;
  Alcotest.(check (array (float 0.))) "extract" [| 1.; 2.; 3. |] (Dense.diag d)

(* ---- Blas ---- *)

let naive_gemm a b =
  Dense.init (Dense.rows a) (Dense.cols b) (fun i j ->
      let acc = ref 0.0 in
      for k = 0 to Dense.cols a - 1 do
        acc := !acc +. (Dense.get a i k *. Dense.get b k j)
      done ;
      !acc)

let test_gemm_known () =
  let a = Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Dense.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  check_close "gemm" (Dense.of_arrays [| [| 19.; 22. |]; [| 43.; 50. |] |]) (Blas.gemm a b)

let test_gemm_random () =
  let r = rng () in
  let a = Dense.random ~rng:r 7 5 and b = Dense.random ~rng:r 5 9 in
  check_close "gemm vs naive" (naive_gemm a b) (Blas.gemm a b)

let test_tgemm () =
  let r = rng () in
  let a = Dense.random ~rng:r 6 4 and b = Dense.random ~rng:r 6 3 in
  check_close "tgemm" (naive_gemm (Dense.transpose a) b) (Blas.tgemm a b)

let test_gemm_nt () =
  let r = rng () in
  let a = Dense.random ~rng:r 4 6 and b = Dense.random ~rng:r 5 6 in
  check_close "gemm_nt" (naive_gemm a (Dense.transpose b)) (Blas.gemm_nt a b)

let test_crossprod () =
  let a = Dense.random ~rng:(rng ()) 8 5 in
  check_close "crossprod" (naive_gemm (Dense.transpose a) a) (Blas.crossprod a)

let test_weighted_crossprod () =
  let r = rng () in
  let a = Dense.random ~rng:r 8 4 in
  let w = Array.init 8 (fun _ -> Rng.float r) in
  let wa = Dense.init 8 4 (fun i j -> w.(i) *. Dense.get a i j) in
  check_close "weighted" (naive_gemm (Dense.transpose wa) a) (Blas.weighted_crossprod a w)

let test_tcrossprod () =
  let a = Dense.random ~rng:(rng ()) 5 3 in
  check_close "tcrossprod" (naive_gemm a (Dense.transpose a)) (Blas.tcrossprod a)

let test_gemv_dot () =
  let a = Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (float 1e-12))) "gemv" [| 5.; 11. |] (Blas.gemv a [| 1.; 2. |]) ;
  check_float "dot" 11.0 (Blas.dot [| 1.; 2.; 3. |] [| 3.; 1.; 2. |])

(* ---- Linalg ---- *)

let spd n r =
  (* random symmetric positive-definite matrix *)
  let a = Dense.random ~rng:r n n in
  Dense.add (Blas.crossprod a) (Dense.scale 0.5 (Dense.identity n))

let test_lu_solve () =
  let r = rng () in
  let a = spd 6 r in
  let b = Dense.random ~rng:r 6 2 in
  let x = Linalg.solve a b in
  check_close ~tol:1e-8 "Ax=b" b (Blas.gemm a x)

let test_inverse () =
  let a = spd 5 (rng ()) in
  check_close ~tol:1e-8 "A·A⁻¹=I" (Dense.identity 5) (Blas.gemm a (Linalg.inverse a))

let test_determinant () =
  let a = Dense.of_arrays [| [| 2.; 0. |]; [| 1.; 3. |] |] in
  check_float "det" 6.0 (Linalg.determinant a) ;
  let sing = Dense.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  check_float "singular det" 0.0 (Linalg.determinant sing)

let test_cholesky () =
  let a = spd 6 (rng ()) in
  let l = Linalg.cholesky a in
  check_close ~tol:1e-8 "LLᵀ=A" a (Blas.gemm_nt l l) ;
  (* strictly upper entries are zero *)
  Dense.iteri (fun i j v -> if j > i then check_float "upper" 0.0 v) l

let test_cholesky_not_pd () =
  let a = Dense.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "not PD" Linalg.Not_positive_definite (fun () ->
      ignore (Linalg.cholesky a))

let test_sym_eig () =
  let a = spd 6 (rng ()) in
  let vals, v = Linalg.sym_eig a in
  (* V orthogonal *)
  check_close ~tol:1e-8 "VᵀV=I" (Dense.identity 6) (Blas.crossprod v) ;
  (* A = V diag Vᵀ *)
  let recon = Blas.gemm_nt (Blas.gemm v (Dense.diag_of_array vals)) v in
  check_close ~tol:1e-7 "reconstruction" a recon

let test_svd () =
  let a = Dense.random ~rng:(rng ()) 8 5 in
  let u, s, v = Linalg.svd a in
  let recon = Blas.gemm_nt (Blas.gemm u (Dense.diag_of_array s)) v in
  check_close ~tol:1e-7 "USVᵀ=A" a recon ;
  check_close ~tol:1e-8 "UᵀU=I" (Dense.identity 5) (Blas.crossprod u) ;
  Array.iter (fun x -> Alcotest.(check bool) "s>=0" true (x >= 0.0)) s

let test_svd_wide () =
  let a = Dense.random ~rng:(rng ()) 4 9 in
  let u, s, v = Linalg.svd a in
  let recon = Blas.gemm_nt (Blas.gemm u (Dense.diag_of_array s)) v in
  check_close ~tol:1e-7 "wide USVᵀ=A" a recon

(* the four Moore-Penrose conditions *)
let moore_penrose name a g =
  check_close ~tol:1e-6 (name ^ ": AGA=A") a (Blas.gemm (Blas.gemm a g) a) ;
  check_close ~tol:1e-6 (name ^ ": GAG=G") g (Blas.gemm (Blas.gemm g a) g) ;
  let ag = Blas.gemm a g and ga = Blas.gemm g a in
  check_close ~tol:1e-6 (name ^ ": (AG)ᵀ=AG") (Dense.transpose ag) ag ;
  check_close ~tol:1e-6 (name ^ ": (GA)ᵀ=GA") (Dense.transpose ga) ga

let test_ginv_tall () =
  let a = Dense.random ~rng:(rng ()) 8 4 in
  moore_penrose "tall" a (Linalg.ginv a)

let test_ginv_wide () =
  let a = Dense.random ~rng:(rng ()) 3 7 in
  moore_penrose "wide" a (Linalg.ginv a)

let test_ginv_singular () =
  (* rank-1 matrix *)
  let a = Dense.init 5 4 (fun i j -> float_of_int ((i + 1) * (j + 1))) in
  moore_penrose "singular" a (Linalg.ginv a)

let test_ginv_sym () =
  let a = spd 5 (rng ()) in
  check_close ~tol:1e-7 "sym ginv = inverse for SPD" (Linalg.inverse a)
    (Linalg.ginv_sym a) ;
  (* singular symmetric: projector property *)
  let ones = Dense.make 4 4 1.0 in
  moore_penrose "singular sym" ones (Linalg.ginv_sym ones)

let test_lstsq () =
  let r = rng () in
  let a = Dense.random ~rng:r 10 3 in
  let x_true = Dense.random ~rng:r 3 1 in
  let b = Blas.gemm a x_true in
  check_close ~tol:1e-7 "recovers exact solution" x_true (Linalg.lstsq a b)

(* ---- Linalg against its frozen boxed-accessor copy ----

   Linalg's loops index [Dense.data] directly; test_support's
   [Linalg_frozen] is the code as it was when it went through the boxed
   [Dense.unsafe_get]/[unsafe_set] accessors. The float operations and
   their order are meant to be unchanged, so every result must match on
   IEEE bits, not within a tolerance. *)

module F = Test_support.Linalg_frozen

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let check_bits_arr msg x y =
  if not (Array.length x = Array.length y && Array.for_all2 same_bits x y) then
    Alcotest.failf "%s: differs bitwise from the frozen copy" msg

let check_bits msg a b =
  Alcotest.(check (pair int int)) (msg ^ " dims") (Dense.dims a) (Dense.dims b) ;
  check_bits_arr msg (Dense.data a) (Dense.data b)

let random_sym rng n =
  let a = Dense.random ~rng n n in
  Dense.add a (Dense.transpose a)

(* Symmetric with exact zero off-diagonals mixed in: the Jacobi sweep's
   [|a_pq| > 1e-300] skip fires on them, at least on the first sweep. *)
let sparse_sym rng n =
  Dense.mapi
    (fun i j x -> if i <> j && (i + j) mod 3 = 0 then 0.0 else x)
    (random_sym rng n)

(* The d×d cross-product shape the linreg and ginv rewrites decompose. *)
let crossprod_100 () = Blas.crossprod (Dense.random ~rng:(Rng.of_int 7) 300 100)

let symmetric_inputs () =
  let r = Rng.of_int 2024 in
  [ ("random 7x7", random_sym r 7);
    ("random 20x20", random_sym r 20);
    ("diagonal", Dense.diag_of_array [| 3.0; -1.0; 0.5; 0.0; 2.0 |]);
    ("1x1", Dense.of_arrays [| [| -4.25 |] |]);
    ("zero off-diagonals", sparse_sym r 9);
    ("crossprod 100x100", crossprod_100 ()) ]

let test_frozen_sym_eig () =
  List.iter
    (fun (name, a) ->
      let vals, v = Linalg.sym_eig a and fvals, fv = F.sym_eig a in
      check_bits_arr (name ^ " sym_eig values") vals fvals ;
      check_bits (name ^ " sym_eig vectors") v fv ;
      check_bits (name ^ " ginv_sym") (Linalg.ginv_sym a) (F.ginv_sym a))
    (symmetric_inputs ())

let test_frozen_factorizations () =
  let r = Rng.of_int 31337 in
  List.iter
    (fun n ->
      let a = Dense.random ~rng:r n n and b = Dense.random ~rng:r n 3 in
      let s = spd n r in
      check_bits (Printf.sprintf "solve %d" n) (Linalg.solve a b) (F.solve a b) ;
      check_bits (Printf.sprintf "inverse %d" n) (Linalg.inverse s)
        (F.inverse s) ;
      Alcotest.(check bool)
        (Printf.sprintf "determinant %d" n)
        true
        (same_bits (Linalg.determinant a) (F.determinant a)) ;
      check_bits (Printf.sprintf "cholesky %d" n) (Linalg.cholesky s)
        (F.cholesky s))
    [ 1; 6; 17 ] ;
  List.iter
    (fun (n, d) ->
      let a = Dense.random ~rng:r n d and b = Dense.random ~rng:r n 2 in
      let tag = Printf.sprintf "%dx%d" n d in
      let q, rr = Linalg.qr a and fq, frr = F.qr a in
      check_bits (tag ^ " qr q") q fq ;
      check_bits (tag ^ " qr r") rr frr ;
      check_bits (tag ^ " lstsq_qr") (Linalg.lstsq_qr a b) (F.lstsq_qr a b) ;
      let u, sv, v = Linalg.svd_tall a and fu, fsv, fv = F.svd_tall a in
      check_bits (tag ^ " svd u") u fu ;
      check_bits_arr (tag ^ " svd s") sv fsv ;
      check_bits (tag ^ " svd v") v fv ;
      check_bits (tag ^ " ginv") (Linalg.ginv a) (F.ginv a) ;
      let w = Dense.transpose a in
      check_bits (tag ^ " ginv wide") (Linalg.ginv w) (F.ginv w))
    [ (1, 1); (9, 4); (40, 11) ] ;
  (* a singular system still raises on the same pivot *)
  let z = Dense.make 3 3 1.0 in
  Alcotest.check_raises "singular" Linalg.Singular (fun () ->
      ignore (Linalg.solve z z))

(* Unboxed Jacobi: one 100×100 eigendecomposition allocated ~95 Mwords
   of minor heap when every element went through a boxed accessor. The
   rewritten loops allocate only the result matrices. *)
let test_sym_eig_alloc () =
  let a = crossprod_100 () in
  let w0 = Gc.minor_words () in
  ignore (Linalg.sym_eig a) ;
  let words = Gc.minor_words () -. w0 in
  if words >= 1e6 then
    Alcotest.failf "sym_eig 100x100 allocated %.0f minor words (bound 1e6)"
      words

(* ---- Rng determinism & flops ---- *)

let test_rng_deterministic () =
  let a = Rng.of_int 99 and b = Rng.of_int 99 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_bounds () =
  let r = rng () in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0) ;
    let i = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (i >= 0 && i < 10)
  done

let test_flops_gemm () =
  Flops.reset () ;
  let a = Dense.create 10 20 and b = Dense.create 20 5 in
  ignore (Blas.gemm a b) ;
  check_float "2mnk" (2.0 *. 10.0 *. 20.0 *. 5.0) (Flops.get ())

let test_flops_count () =
  Flops.reset () ;
  let _, f = Flops.count (fun () -> ignore (Dense.scale 2.0 (Dense.create 4 5))) in
  check_float "scale flops" 20.0 f

(* qcheck properties *)

let dense_gen =
  QCheck.make
    ~print:(fun (r, c, seed) -> Printf.sprintf "%dx%d seed=%d" r c seed)
    QCheck.Gen.(triple (int_range 1 12) (int_range 1 12) (int_range 0 1000))

let prop_transpose_gemm =
  QCheck.Test.make ~name:"(AB)ᵀ = BᵀAᵀ" ~count:50 dense_gen (fun (r, c, seed) ->
      let g = Rng.of_int seed in
      let a = Dense.random ~rng:g r c and b = Dense.random ~rng:g c (r + 1) in
      Dense.approx_equal ~tol:1e-9
        (Dense.transpose (Blas.gemm a b))
        (Blas.gemm (Dense.transpose b) (Dense.transpose a)))

let prop_rowsums_sum =
  QCheck.Test.make ~name:"sum = sum of row_sums" ~count:50 dense_gen
    (fun (r, c, seed) ->
      let m = Dense.random ~rng:(Rng.of_int seed) r c in
      Float.abs (Dense.sum m -. Dense.sum (Dense.row_sums m)) < 1e-9)

let prop_ginv_moore_penrose =
  QCheck.Test.make ~name:"ginv satisfies AGA=A" ~count:25 dense_gen
    (fun (r, c, seed) ->
      let a = Dense.random ~rng:(Rng.of_int seed) r c in
      let g = Linalg.ginv a in
      Dense.approx_equal ~tol:1e-6 a (Blas.gemm (Blas.gemm a g) a))

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "la"
    [ ( "dense",
        [ Alcotest.test_case "create dims" `Quick test_create_dims;
          Alcotest.test_case "of_arrays roundtrip" `Quick test_of_arrays_roundtrip;
          Alcotest.test_case "get/set + bounds" `Quick test_get_set;
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
          Alcotest.test_case "hcat/vcat" `Quick test_hcat_vcat;
          Alcotest.test_case "sub rows/cols" `Quick test_sub_rows_cols;
          Alcotest.test_case "row/col sums" `Quick test_row_col_sums;
          Alcotest.test_case "row mins/argmins" `Quick test_row_mins_argmins;
          Alcotest.test_case "scalar ops" `Quick test_scalar_ops;
          Alcotest.test_case "elementwise ops" `Quick test_elementwise;
          Alcotest.test_case "diag" `Quick test_diag ] );
      ( "blas",
        [ Alcotest.test_case "gemm known" `Quick test_gemm_known;
          Alcotest.test_case "gemm random" `Quick test_gemm_random;
          Alcotest.test_case "tgemm" `Quick test_tgemm;
          Alcotest.test_case "gemm_nt" `Quick test_gemm_nt;
          Alcotest.test_case "crossprod" `Quick test_crossprod;
          Alcotest.test_case "weighted crossprod" `Quick test_weighted_crossprod;
          Alcotest.test_case "tcrossprod" `Quick test_tcrossprod;
          Alcotest.test_case "gemv/dot" `Quick test_gemv_dot;
          qc prop_transpose_gemm ] );
      ( "linalg",
        [ Alcotest.test_case "lu solve" `Quick test_lu_solve;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "determinant" `Quick test_determinant;
          Alcotest.test_case "cholesky" `Quick test_cholesky;
          Alcotest.test_case "cholesky rejects non-PD" `Quick test_cholesky_not_pd;
          Alcotest.test_case "symmetric eigen" `Quick test_sym_eig;
          Alcotest.test_case "svd tall" `Quick test_svd;
          Alcotest.test_case "svd wide" `Quick test_svd_wide;
          Alcotest.test_case "ginv tall" `Quick test_ginv_tall;
          Alcotest.test_case "ginv wide" `Quick test_ginv_wide;
          Alcotest.test_case "ginv singular" `Quick test_ginv_singular;
          Alcotest.test_case "ginv symmetric" `Quick test_ginv_sym;
          Alcotest.test_case "lstsq" `Quick test_lstsq;
          qc prop_ginv_moore_penrose ] );
      ( "linalg frozen",
        [ Alcotest.test_case "sym_eig + ginv_sym bitwise" `Quick
            test_frozen_sym_eig;
          Alcotest.test_case "lu/cholesky/qr/svd/ginv bitwise" `Quick
            test_frozen_factorizations;
          Alcotest.test_case "sym_eig 100x100 allocation" `Quick
            test_sym_eig_alloc ] );
      ( "rng+flops",
        [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
          Alcotest.test_case "flops gemm" `Quick test_flops_gemm;
          Alcotest.test_case "flops count" `Quick test_flops_count;
          qc prop_rowsums_sum ] ) ]
