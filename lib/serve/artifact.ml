(* Trained-model artifacts. Scoring reuses the ML functors'
   instantiations from {!Ml_algs.Algorithms}: the factorized path for
   normalized datasets, the regular-matrix path for raw dense rows —
   the same code the trainers ran, so serving semantics can't drift
   from training semantics. *)

open La
open Morpheus
module F = Ml_algs.Algorithms.Factorized
module M = Ml_algs.Algorithms.Materialized

type t =
  | Logreg of Dense.t
  | Linreg of Dense.t
  | Glm of Ml_algs.Glm.family * Dense.t
  | Kmeans of Dense.t
  | Naive_bayes of Ml_algs.Naive_bayes.model

let kind = function
  | Logreg _ -> "logreg"
  | Linreg _ -> "linreg"
  | Glm _ -> "glm"
  | Kmeans _ -> "kmeans"
  | Naive_bayes _ -> "naive_bayes"

let feature_dim = function
  | Logreg w | Linreg w | Glm (_, w) -> Dense.rows w
  | Kmeans c -> Dense.rows c
  | Naive_bayes m -> Ml_algs.Naive_bayes.feature_dim m

let describe t =
  match t with
  | Logreg w -> Printf.sprintf "logreg (d=%d)" (Dense.rows w)
  | Linreg w -> Printf.sprintf "linreg (d=%d)" (Dense.rows w)
  | Glm (fam, w) ->
    Printf.sprintf "glm %s (d=%d)"
      (Ml_algs.Glm.family_to_string fam)
      (Dense.rows w)
  | Kmeans c -> Printf.sprintf "kmeans (d=%d, k=%d)" (Dense.rows c) (Dense.cols c)
  | Naive_bayes m ->
    Printf.sprintf "naive_bayes (d=%d, classes=%d)"
      (Ml_algs.Naive_bayes.feature_dim m)
      (List.length m.Ml_algs.Naive_bayes.classes)

let check_dim t d =
  let want = feature_dim t in
  if d <> want then
    invalid_arg
      (Printf.sprintf "Artifact.score: %s expects %d features, got %d" (kind t)
         want d)

let sigmoid s = 1.0 /. (1.0 +. Stdlib.exp (-.s))

let col_array m = Dense.col_to_array m

(* The weight models differ only in the link applied to T·w; keeping
   one multiply + an element-wise map preserves per-row bitwise
   identity between single-row and batched scoring. *)
let logistic scores = Array.map sigmoid (col_array scores)

let mean_response family scores =
  col_array (Ml_algs.Glm.mean_response family scores)

let score_normalized t tn =
  check_dim t (Normalized.cols tn) ;
  match t with
  | Logreg w -> logistic (Rewrite.lmm tn w)
  | Linreg w -> col_array (Rewrite.lmm tn w)
  | Glm (family, w) -> mean_response family (Rewrite.lmm tn w)
  | Kmeans c -> Array.map float_of_int (F.Kmeans.assign tn c)
  | Naive_bayes m -> Ml_algs.Naive_bayes.predict m tn

(* ---- prepared scoring ----

   Scoring rows [ids] of a dataset means scoring select_rows tn ids,
   whose Rᵢ are tn's own. Everything that depends only on the Rᵢ and
   the model is computed once here; a score is then the S-side product
   over the selected rows plus indicator gathers, through the same
   kernels [score_normalized] runs — hence bitwise-equal to it. *)

type prepared_kind =
  | P_weights of (Dense.t -> float array) * Rewrite.lmm_prepared
      (* the link, and zᵢ = Rᵢ·wᵢ *)
  | P_kmeans of {
      z : Rewrite.lmm_prepared;  (* Rᵢ·Cᵢ *)
      c2 : Dense.t;  (* colSums(C²) *)
      dt : Dense.t;  (* rowSums(T²) of the whole dataset, memoized on it *)
    }
  | P_direct of t  (* Naive Bayes: scores row slices directly *)

type prepared = { tn : Normalized.t; kind : prepared_kind }

let prepare t tn =
  check_dim t (Normalized.cols tn) ;
  if Normalized.is_transposed tn then
    invalid_arg "Artifact.prepare: transposed dataset" ;
  let body = Normalized.body tn in
  let kind =
    match t with
    | Logreg w -> P_weights (logistic, Rewrite.lmm_prepare body w)
    | Linreg w -> P_weights (col_array, Rewrite.lmm_prepare body w)
    | Glm (family, w) ->
      P_weights (mean_response family, Rewrite.lmm_prepare body w)
    | Kmeans c ->
      P_kmeans
        { z = Rewrite.lmm_prepare body c;
          c2 = Ml_algs.Kmeans.centroid_norms c;
          dt = Rewrite.row_sums_sq tn
        }
    | Naive_bayes _ -> P_direct t
  in
  { tn; kind }

let score_rows p ids =
  let sel = Normalized.select_rows p.tn ids in
  match p.kind with
  | P_weights (link, z) -> link (Rewrite.lmm_apply z (Normalized.body sel))
  | P_kmeans { z; c2; dt } ->
    let tc = Rewrite.lmm_apply z (Normalized.body sel) in
    let dt = Dense.of_col_array (Array.map (fun i -> Dense.get dt i 0) ids) in
    Array.map float_of_int (Ml_algs.Kmeans.assign_of ~dt ~c2 ~tc)
  | P_direct t -> score_normalized t sel

let score_dense t x =
  check_dim t (Dense.cols x) ;
  match t with
  | Logreg w -> logistic (Blas.gemm x w)
  | Linreg w -> col_array (Blas.gemm x w)
  | Glm (family, w) ->
    col_array
      (M.Glm.predict_mean (Regular_matrix.of_dense x) { M.Glm.family; w })
  | Kmeans c ->
    Array.map float_of_int (M.Kmeans.assign (Regular_matrix.of_dense x) c)
  | Naive_bayes m -> Ml_algs.Naive_bayes.predict_dense m x

(* ---- marshal-safe persisted form ---- *)

type dense_payload = { pr : int; pc : int; pd : float array }

type payload =
  | PL_logreg of dense_payload
  | PL_linreg of dense_payload
  | PL_glm of string * dense_payload
  | PL_kmeans of dense_payload
  | PL_nb of int * (float * float * float array * float array) list

let dense_to_payload m = { pr = Dense.rows m; pc = Dense.cols m; pd = Dense.data m }

let dense_of_payload p =
  if p.pr <= 0 || p.pc <= 0 || Array.length p.pd <> p.pr * p.pc then
    Error
      (Printf.sprintf "dense payload: %d values for a %dx%d matrix"
         (Array.length p.pd) p.pr p.pc)
  else
    match Validate.scan p.pd with
    | Some i ->
      Error
        (Printf.sprintf "dense payload: non-finite value %h at index %d"
           p.pd.(i) i)
    | None -> Ok (Dense.of_array ~rows:p.pr ~cols:p.pc (Array.copy p.pd))

let to_payload = function
  | Logreg w -> PL_logreg (dense_to_payload w)
  | Linreg w -> PL_linreg (dense_to_payload w)
  | Glm (fam, w) -> PL_glm (Ml_algs.Glm.family_to_string fam, dense_to_payload w)
  | Kmeans c -> PL_kmeans (dense_to_payload c)
  | Naive_bayes m ->
    PL_nb
      ( Ml_algs.Naive_bayes.feature_dim m,
        List.map
          (fun (c : Ml_algs.Naive_bayes.class_stats) ->
            (c.label, c.prior, c.mean, c.variance))
          m.Ml_algs.Naive_bayes.classes )

let ( let* ) = Result.bind

let of_payload = function
  | PL_logreg p ->
    let* w = dense_of_payload p in
    if Dense.cols w <> 1 then Error "logreg weights must be a column"
    else Ok (Logreg w)
  | PL_linreg p ->
    let* w = dense_of_payload p in
    if Dense.cols w <> 1 then Error "linreg weights must be a column"
    else Ok (Linreg w)
  | PL_glm (fam, p) -> (
    let* w = dense_of_payload p in
    if Dense.cols w <> 1 then Error "glm weights must be a column"
    else
      match Ml_algs.Glm.family_of_string fam with
      | Some family -> Ok (Glm (family, w))
      | None -> Error (Printf.sprintf "unknown glm family %S" fam))
  | PL_kmeans p ->
    let* c = dense_of_payload p in
    Ok (Kmeans c)
  | PL_nb (d, classes) -> (
    match
      Ml_algs.Naive_bayes.make ~d
        (List.map
           (fun (label, prior, mean, variance) ->
             { Ml_algs.Naive_bayes.label;
               prior;
               mean = Array.copy mean;
               variance = Array.copy variance
             })
           classes)
    with
    | m -> Ok (Naive_bayes m)
    | exception Invalid_argument msg -> Error msg)
