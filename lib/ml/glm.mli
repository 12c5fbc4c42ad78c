(** Generalized linear models with gradient descent: the Algorithm 3/4
    pattern [w ← w + α·Tᵀ·g(T·w, Y)] for any family whose gradient
    weight g is element-wise in (score, target). Only T·w and Tᵀ·p touch
    the data matrix, so every family factorizes identically. *)

open La

type family =
  | Logistic  (** labels ±1; g(s,y) = y/(1+exp(y·s)) *)
  | Gaussian  (** least squares; g(s,y) = y − s *)
  | Poisson  (** log link; g(s,y) = y − exp(s) *)
  | Hinge  (** linear SVM subgradient; labels ±1; loss = hinge *)

val family_to_string : family -> string
(** Stable lowercase name ("logistic", …) for manifests and wire
    formats (the model registry persists it). *)

val family_of_string : string -> family option

val all_families : family list

val gradient_weight : family -> score:float -> y:float -> float

val nll : family -> score:float -> y:float -> float
(** Per-example negative log-likelihood (up to constants). *)

val mean_response : family -> Dense.t -> Dense.t
(** The family's inverse link applied element-wise to scores [T·w]
    (Gaussian returns [scores] itself). *)

module Make (M : Morpheus.Data_matrix.S) : sig
  type model = { family : family; w : Dense.t }

  val gradient : family -> M.t -> Dense.t -> Dense.t -> Dense.t
  (** Tᵀ·g(T·w, Y). *)

  val train :
    ?alpha:float -> ?iters:int -> ?w0:Dense.t ->
    ?on_iter:(int -> Dense.t -> unit) -> family:family ->
    M.t -> Dense.t -> model
  (** [on_iter i w] observes the live weights after iteration [i]
      (1-based) — the checkpoint hook; resuming from [w0] with the
      remaining iteration count is bitwise-identical to the
      uninterrupted run. Raises {!La.Validate.Numeric_error} if a
      step produces a non-finite weight. *)

  val predict_scores : M.t -> model -> Dense.t

  val predict_mean : M.t -> model -> Dense.t
  (** Mean response under the family's inverse link. *)

  val loss : M.t -> model -> Dense.t -> float
  (** Mean NLL. *)
end
