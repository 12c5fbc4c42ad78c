(** K-Means clustering (paper Algorithms 7/15), vectorized exactly as in
    the paper: D = rowSums(T²)·1 + 1·colSums(C²) − 2·T·C, boolean
    assignment matrix, centroid update (TᵀA)/counts. The factorized
    instantiation exercises element-wise exponentiation, aggregations,
    and full matrix-matrix LMM/transposed-LMM rewrites. *)

open La

val centroid_norms : Dense.t -> Dense.t
(** [colSums(C²)] of d×k centroids, as a 1×k row. *)

val assign_of : dt:Dense.t -> c2:Dense.t -> tc:Dense.t -> int array
(** Nearest-centroid id per row from precomputed pieces: [dt =
    rowSums(T²)] (n×1), [c2 = ]{!centroid_norms}[ c] and [tc = T·C]
    (n×k). Runs the same distance fill as {!Make.assign}, so the ids
    are bitwise-identical to it given the same pieces — the serving
    layer's prepared K-Means path. *)

module Make (M : Morpheus.Data_matrix.S) : sig
  type result = {
    centroids : Dense.t;  (** d×k *)
    assignments : int array;  (** cluster id per data row *)
    objective : float;  (** Σ squared distance to assigned centroid *)
  }

  val init_centroids : M.t -> int -> Dense.t
  (** Deterministic seeding: k rows of T spread across the row range. *)

  val row_of : M.t -> int -> Dense.t
  (** Row [i] of T as a d×1 column, extracted through the signature. *)

  val init_plus_plus : ?rng:Rng.t -> M.t -> int -> Dense.t
  (** K-Means++ seeding: each next centroid sampled proportionally to
      the squared distance from the nearest chosen one; the distance
      computations run factorized on normalized inputs. *)

  val distances : M.t -> Dense.t -> Dense.t
  (** [distances t c] is the n×k pairwise squared-distance matrix of
      T's rows against the d×k centroids [c] — the training loop's
      exact distance computation, exposed for scoring a trained model
      (the serving layer's K-Means path). *)

  val assign : M.t -> Dense.t -> int array
  (** Nearest-centroid id per row, [Dense.row_argmins] of
      {!distances} — bitwise-identical to the assignment [train]
      computes with the same centroids. *)

  val train :
    ?iters:int ->
    ?centroids:Dense.t ->
    ?on_iter:(int -> Dense.t -> unit) ->
    k:int ->
    M.t ->
    result
  (** [on_iter i c] observes the centroids after iteration [i]
      (1-based) — the checkpoint hook; resuming from [centroids] with
      the remaining iteration count is bitwise-identical to the
      uninterrupted run. Raises {!La.Validate.Numeric_error} if an
      update produces a non-finite centroid. *)
end
