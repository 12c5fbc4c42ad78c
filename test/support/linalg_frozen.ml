(* A frozen copy of Linalg's factorizations as they were before their
   loops were rewritten to index [Dense.data] directly. Test-only: the
   rewritten module must stay bitwise-equal to these (test_la.ml, the
   "linalg frozen" group). Do not "improve" this file — its value is
   that it does not change. It reads and writes through the boxed
   [Dense.unsafe_get]/[unsafe_set] accessors, exactly as the original. *)

open La

let sq x = x *. x

(* ---------------- LU with partial pivoting ---------------- *)

type lu = { lu : Dense.t; perm : int array; sign : float }

exception Singular

let lu_decompose a =
  let n = Dense.rows a in
  if Dense.cols a <> n then invalid_arg "Linalg.lu_decompose: not square" ;
  Flops.addf (2.0 /. 3.0 *. float_of_int n ** 3.0) ;
  let m = Dense.copy a in
  let perm = Array.init n Fun.id in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* pivot *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Dense.unsafe_get m i k) > Float.abs (Dense.unsafe_get m !piv k)
      then piv := i
    done ;
    if Float.abs (Dense.unsafe_get m !piv k) < 1e-13 then raise Singular ;
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let t = Dense.unsafe_get m k j in
        Dense.unsafe_set m k j (Dense.unsafe_get m !piv j) ;
        Dense.unsafe_set m !piv j t
      done ;
      let t = perm.(k) in
      perm.(k) <- perm.(!piv) ;
      perm.(!piv) <- t ;
      sign := -. !sign
    end ;
    let pivot = Dense.unsafe_get m k k in
    for i = k + 1 to n - 1 do
      let f = Dense.unsafe_get m i k /. pivot in
      Dense.unsafe_set m i k f ;
      if f <> 0.0 then
        for j = k + 1 to n - 1 do
          Dense.unsafe_set m i j
            (Dense.unsafe_get m i j -. (f *. Dense.unsafe_get m k j))
        done
    done
  done ;
  { lu = m; perm; sign = !sign }

(* Solve A x = b (b given as a matrix of right-hand-side columns). *)
let lu_solve { lu = m; perm; _ } b =
  let n = Dense.rows m in
  if Dense.rows b <> n then invalid_arg "Linalg.lu_solve: dim mismatch" ;
  let k = Dense.cols b in
  Flops.addf (2.0 *. float_of_int (n * n * k)) ;
  let x = Dense.init n k (fun i j -> Dense.unsafe_get b perm.(i) j) in
  (* forward substitution (unit lower) *)
  for i = 0 to n - 1 do
    for p = 0 to i - 1 do
      let f = Dense.unsafe_get m i p in
      if f <> 0.0 then
        for j = 0 to k - 1 do
          Dense.unsafe_set x i j
            (Dense.unsafe_get x i j -. (f *. Dense.unsafe_get x p j))
        done
    done
  done ;
  (* back substitution *)
  for i = n - 1 downto 0 do
    for p = i + 1 to n - 1 do
      let f = Dense.unsafe_get m i p in
      if f <> 0.0 then
        for j = 0 to k - 1 do
          Dense.unsafe_set x i j
            (Dense.unsafe_get x i j -. (f *. Dense.unsafe_get x p j))
        done
    done ;
    let d = Dense.unsafe_get m i i in
    for j = 0 to k - 1 do
      Dense.unsafe_set x i j (Dense.unsafe_get x i j /. d)
    done
  done ;
  x

(* R's solve(A, B): exact solve for a nonsingular square system. *)
let solve a b = lu_solve (lu_decompose a) b

let inverse a = solve a (Dense.identity (Dense.rows a))

let determinant a =
  match lu_decompose a with
  | { lu; sign; _ } ->
    let n = Dense.rows lu in
    let acc = ref sign in
    for i = 0 to n - 1 do
      acc := !acc *. Dense.unsafe_get lu i i
    done ;
    !acc
  | exception Singular -> 0.0

(* ---------------- Cholesky (SPD) ---------------- *)

exception Not_positive_definite

(* Lower-triangular L with A = L Lᵀ. *)
let cholesky a =
  let n = Dense.rows a in
  if Dense.cols a <> n then invalid_arg "Linalg.cholesky: not square" ;
  Flops.addf (1.0 /. 3.0 *. float_of_int n ** 3.0) ;
  let l = Dense.create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Dense.unsafe_get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Dense.unsafe_get l i k *. Dense.unsafe_get l j k)
      done ;
      if i = j then begin
        if !acc <= 0.0 then raise Not_positive_definite ;
        Dense.unsafe_set l i j (sqrt !acc)
      end
      else Dense.unsafe_set l i j (!acc /. Dense.unsafe_get l j j)
    done
  done ;
  l

(* ---------------- QR (Householder) ---------------- *)

(* Thin QR of a matrix with rows >= cols: a = q·r with q n×d
   orthonormal-column, r d×d upper-triangular. *)
let qr a =
  let n = Dense.rows a and d = Dense.cols a in
  if n < d then invalid_arg "Linalg.qr: need rows >= cols" ;
  Flops.addf (2.0 *. float_of_int n *. float_of_int d *. float_of_int d) ;
  let r = Dense.copy a in
  (* accumulate Householder vectors to build thin Q at the end *)
  let vs = Array.make d [||] in
  for k = 0 to d - 1 do
    (* build the Householder vector for column k below the diagonal *)
    let norm = ref 0.0 in
    for i = k to n - 1 do
      norm := !norm +. sq (Dense.unsafe_get r i k)
    done ;
    let norm = sqrt !norm in
    if norm > 1e-300 then begin
      let akk = Dense.unsafe_get r k k in
      let alpha = if akk >= 0.0 then -.norm else norm in
      let v = Array.make (n - k) 0.0 in
      v.(0) <- akk -. alpha ;
      for i = k + 1 to n - 1 do
        v.(i - k) <- Dense.unsafe_get r i k
      done ;
      let vnorm2 = Array.fold_left (fun acc x -> acc +. sq x) 0.0 v in
      if vnorm2 > 1e-300 then begin
        vs.(k) <- v ;
        (* apply H = I - 2vvᵀ/(vᵀv) to the trailing columns of r *)
        for j = k to d - 1 do
          let dot = ref 0.0 in
          for i = k to n - 1 do
            dot := !dot +. (v.(i - k) *. Dense.unsafe_get r i j)
          done ;
          let f = 2.0 *. !dot /. vnorm2 in
          for i = k to n - 1 do
            Dense.unsafe_set r i j
              (Dense.unsafe_get r i j -. (f *. v.(i - k)))
          done
        done
      end
    end
  done ;
  (* thin Q = H₀·H₁·…·H_{d-1} applied to the first d identity columns *)
  let q = Dense.init n d (fun i j -> if i = j then 1.0 else 0.0) in
  for k = d - 1 downto 0 do
    let v = vs.(k) in
    if Array.length v > 0 then begin
      let vnorm2 = Array.fold_left (fun acc x -> acc +. sq x) 0.0 v in
      for j = 0 to d - 1 do
        let dot = ref 0.0 in
        for i = k to n - 1 do
          dot := !dot +. (v.(i - k) *. Dense.unsafe_get q i j)
        done ;
        let f = 2.0 *. !dot /. vnorm2 in
        for i = k to n - 1 do
          Dense.unsafe_set q i j (Dense.unsafe_get q i j -. (f *. v.(i - k)))
        done
      done
    end
  done ;
  (* r: keep the top d×d upper triangle *)
  let r_out = Dense.init d d (fun i j -> if j >= i then Dense.unsafe_get r i j else 0.0) in
  (q, r_out)

(* Least squares via QR for full-column-rank systems:
   min ‖a·x − b‖ with x = R⁻¹ Qᵀ b (back substitution). *)
let lstsq_qr a b =
  let q, r = qr a in
  let qtb = Blas.tgemm q b in
  let d = Dense.cols r and k = Dense.cols qtb in
  let x = Dense.copy qtb in
  for i = d - 1 downto 0 do
    let rii = Dense.unsafe_get r i i in
    if Float.abs rii < 1e-13 then raise Singular ;
    for j = 0 to k - 1 do
      let acc = ref (Dense.unsafe_get x i j) in
      for p = i + 1 to d - 1 do
        acc := !acc -. (Dense.unsafe_get r i p *. Dense.unsafe_get x p j)
      done ;
      Dense.unsafe_set x i j (!acc /. rii)
    done
  done ;
  x

(* ---------------- Symmetric eigendecomposition (cyclic Jacobi) ------- *)

(* Returns (eigenvalues, V) with A = V diag(vals) Vᵀ, V orthogonal.
   Eigenvalues are not sorted. *)
let sym_eig ?(max_sweeps = 64) ?(tol = 1e-12) a =
  let n = Dense.rows a in
  if Dense.cols a <> n then invalid_arg "Linalg.sym_eig: not square" ;
  Flops.addf (9.0 *. float_of_int n ** 3.0) ;
  let m = Dense.copy a in
  let v = Dense.identity n in
  let off m =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        acc := !acc +. sq (Dense.unsafe_get m i j)
      done
    done ;
    !acc
  in
  let scale = Float.max 1e-300 (Dense.max_abs m) in
  let sweep = ref 0 in
  while !sweep < max_sweeps && off m > tol *. tol *. scale *. scale do
    incr sweep ;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = Dense.unsafe_get m p q in
        if Float.abs apq > 1e-300 then begin
          let app = Dense.unsafe_get m p p and aqq = Dense.unsafe_get m q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (Float.abs theta +. sqrt (sq theta +. 1.0))
          in
          let c = 1.0 /. sqrt (sq t +. 1.0) in
          let s = t *. c in
          (* rotate rows/cols p,q of m *)
          for k = 0 to n - 1 do
            let mkp = Dense.unsafe_get m k p and mkq = Dense.unsafe_get m k q in
            Dense.unsafe_set m k p ((c *. mkp) -. (s *. mkq)) ;
            Dense.unsafe_set m k q ((s *. mkp) +. (c *. mkq))
          done ;
          for k = 0 to n - 1 do
            let mpk = Dense.unsafe_get m p k and mqk = Dense.unsafe_get m q k in
            Dense.unsafe_set m p k ((c *. mpk) -. (s *. mqk)) ;
            Dense.unsafe_set m q k ((s *. mpk) +. (c *. mqk))
          done ;
          for k = 0 to n - 1 do
            let vkp = Dense.unsafe_get v k p and vkq = Dense.unsafe_get v k q in
            Dense.unsafe_set v k p ((c *. vkp) -. (s *. vkq)) ;
            Dense.unsafe_set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done
  done ;
  (Dense.diag m, v)

(* Moore-Penrose pseudo-inverse of a symmetric matrix via eigen-
   decomposition: V diag(1/λᵢ if |λᵢ| > tol else 0) Vᵀ. *)
let ginv_sym ?tol a =
  let vals, v = sym_eig a in
  let n = Array.length vals in
  let vmax = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 vals in
  let cutoff =
    match tol with Some t -> t | None -> float_of_int n *. vmax *. 1e-12
  in
  let inv = Array.map (fun l -> if Float.abs l > cutoff then 1.0 /. l else 0.0) vals in
  (* V diag(inv) Vᵀ *)
  let scaled =
    Dense.init n n (fun i j -> Dense.unsafe_get v i j *. inv.(j))
  in
  Blas.gemm_nt scaled v

(* ---------------- One-sided Jacobi SVD ---------------- *)

(* Thin SVD of a with rows >= cols: a = U diag(s) Vᵀ, U: n×d with
   orthonormal columns (zero columns where the singular value is 0),
   V: d×d orthogonal. *)
let svd_tall ?(max_sweeps = 64) ?(tol = 1e-12) a =
  let n = Dense.rows a and d = Dense.cols a in
  if n < d then invalid_arg "Linalg.svd_tall: need rows >= cols" ;
  Flops.addf (4.0 *. float_of_int n *. float_of_int d *. float_of_int d) ;
  let u = Dense.copy a in
  let v = Dense.identity d in
  let converged = ref false in
  let sweep = ref 0 in
  while not !converged && !sweep < max_sweeps do
    incr sweep ;
    converged := true ;
    for p = 0 to d - 2 do
      for q = p + 1 to d - 1 do
        (* inner products of columns p and q *)
        let app = ref 0.0 and aqq = ref 0.0 and apq = ref 0.0 in
        for i = 0 to n - 1 do
          let uip = Dense.unsafe_get u i p and uiq = Dense.unsafe_get u i q in
          app := !app +. (uip *. uip) ;
          aqq := !aqq +. (uiq *. uiq) ;
          apq := !apq +. (uip *. uiq)
        done ;
        if Float.abs !apq > tol *. sqrt (!app *. !aqq) +. 1e-300 then begin
          converged := false ;
          let theta = (!aqq -. !app) /. (2.0 *. !apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (Float.abs theta +. sqrt (sq theta +. 1.0))
          in
          let c = 1.0 /. sqrt (sq t +. 1.0) in
          let s = t *. c in
          for i = 0 to n - 1 do
            let uip = Dense.unsafe_get u i p and uiq = Dense.unsafe_get u i q in
            Dense.unsafe_set u i p ((c *. uip) -. (s *. uiq)) ;
            Dense.unsafe_set u i q ((s *. uip) +. (c *. uiq))
          done ;
          for i = 0 to d - 1 do
            let vip = Dense.unsafe_get v i p and viq = Dense.unsafe_get v i q in
            Dense.unsafe_set v i p ((c *. vip) -. (s *. viq)) ;
            Dense.unsafe_set v i q ((s *. vip) +. (c *. viq))
          done
        end
      done
    done
  done ;
  (* extract singular values = column norms of u; normalize columns *)
  let s = Array.make d 0.0 in
  for j = 0 to d - 1 do
    let norm = ref 0.0 in
    for i = 0 to n - 1 do
      norm := !norm +. sq (Dense.unsafe_get u i j)
    done ;
    let norm = sqrt !norm in
    s.(j) <- norm ;
    if norm > 0.0 then
      for i = 0 to n - 1 do
        Dense.unsafe_set u i j (Dense.unsafe_get u i j /. norm)
      done
  done ;
  (u, s, v)

(* Economic SVD of any matrix (transposes internally when wide). Returns
   (u, s, v) with a = u diag(s) vᵀ. *)
let svd a =
  if Dense.rows a >= Dense.cols a then svd_tall a
  else begin
    let u', s, v' = svd_tall (Dense.transpose a) in
    (v', s, u')
  end

(* Moore-Penrose pseudo-inverse via economic SVD, like R MASS::ginv. *)
let ginv ?tol a =
  let u, s, v = svd a in
  let smax = Array.fold_left Float.max 0.0 s in
  let cutoff =
    match tol with
    | Some t -> t
    | None -> float_of_int (max (Dense.rows a) (Dense.cols a)) *. smax *. 1e-12
  in
  let inv = Array.map (fun x -> if x > cutoff then 1.0 /. x else 0.0) s in
  (* v diag(inv) uᵀ *)
  let scaled =
    Dense.init (Dense.rows v) (Dense.cols v) (fun i j ->
        Dense.unsafe_get v i j *. inv.(j))
  in
  Blas.gemm_nt scaled u

(* Least-squares solve of (possibly singular / rectangular) A x = B via
   the pseudo-inverse: x = ginv(A) B. *)
let lstsq a b = Blas.gemm (ginv a) b
