(* Generalized linear models with gradient descent, factorized through
   the data-matrix signature. The paper's factorized-learning line
   ([26]) targets GLMs as a family; this functor generalizes the
   Algorithm 3/4 pattern to any member whose gradient weights are an
   element-wise function of (score, target):

     w ← w + α · Tᵀ · g(T·w, Y)

   with g per family:
     logistic  g(s, y) = y / (1 + exp(y·s))          (labels ±1)
     gaussian  g(s, y) = y − s                       (least squares)
     poisson   g(s, y) = y − exp(s)                  (log link)

   Only T·w and Tᵀ·p touch the data matrix, so every family factorizes
   identically. *)

open La

type family = Logistic | Gaussian | Poisson | Hinge

(* Stable names for manifests and wire formats (the serving layer's
   model registry); [family_of_string] is total over these. *)
let family_to_string = function
  | Logistic -> "logistic"
  | Gaussian -> "gaussian"
  | Poisson -> "poisson"
  | Hinge -> "hinge"

let family_of_string = function
  | "logistic" -> Some Logistic
  | "gaussian" -> Some Gaussian
  | "poisson" -> Some Poisson
  | "hinge" -> Some Hinge
  | _ -> None

let all_families = [ Logistic; Gaussian; Poisson; Hinge ]

let gradient_weight family ~score ~y =
  match family with
  | Logistic -> y /. (1.0 +. Stdlib.exp (y *. score))
  | Gaussian -> y -. score
  | Poisson -> y -. Stdlib.exp score
  | Hinge -> if y *. score < 1.0 then y else 0.0

(* Per-example negative log-likelihood (up to constants), for tests and
   convergence monitoring. *)
let nll family ~score ~y =
  match family with
  | Logistic -> Stdlib.log (1.0 +. Stdlib.exp (-.y *. score))
  | Gaussian -> 0.5 *. ((y -. score) ** 2.0)
  | Poisson -> Stdlib.exp score -. (y *. score)
  | Hinge -> Float.max 0.0 (1.0 -. (y *. score))

(* Mean response under the family's inverse link, from scores T·w. *)
let mean_response family scores =
  match family with
  | Gaussian -> scores
  | Logistic -> Dense.map (fun s -> 1.0 /. (1.0 +. Stdlib.exp (-.s))) scores
  | Poisson -> Dense.map Stdlib.exp scores
  | Hinge -> Dense.map (fun s -> if s >= 0.0 then 1.0 else -1.0) scores

module Make (M : Morpheus.Data_matrix.S) = struct
  type model = { family : family; w : Dense.t }

  let mean_nll family scores y =
    let n = Dense.rows scores in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc :=
        !acc +. nll family ~score:(Dense.get scores i 0) ~y:(Dense.get y i 0)
    done ;
    !acc /. float_of_int n

  let gradient family t w y =
    let scores = M.lmm t w in
    let p = Dense.create (Dense.rows scores) 1 in
    let pd = Dense.data p and sd = Dense.data scores and yd = Dense.data y in
    for i = 0 to Array.length pd - 1 do
      Array.unsafe_set pd i
        (gradient_weight family ~score:(Array.unsafe_get sd i)
           ~y:(Array.unsafe_get yd i))
    done ;
    M.tlmm t p

  let train ?(alpha = 1e-4) ?(iters = 20) ?w0 ?on_iter ~family t y =
    if Dense.rows y <> M.rows t || Dense.cols y <> 1 then
      invalid_arg "Glm.train: bad target shape" ;
    let w = match w0 with Some w -> Dense.copy w | None -> Dense.create (M.cols t) 1 in
    for it = 1 to iters do
      (* w ← w + α·grad in place (bitwise-identical to add∘scale) *)
      Dense.axpy ~alpha (gradient family t w y) w ;
      (* a diverged step (e.g. poisson's exp overflowing) must name
         itself instead of poisoning later products *)
      Validate.check_array ~stage:"glm.step" (Dense.data w) ;
      match on_iter with Some f -> f it w | None -> ()
    done ;
    { family; w }

  let predict_scores t model = M.lmm t model.w

  let predict_mean t model = mean_response model.family (predict_scores t model)

  let loss t model y = mean_nll model.family (predict_scores t model) y
end
