(** Trained-model artifacts: the serveable output of the ML layer, with
    one scoring semantics per kind and a marshal-safe persisted form.

    Scoring over a normalized dataset runs the same factorized rewrites
    the trainers use (lmm / tlmm / rowSums(T²)), so a server batch is a
    single factorized matrix product; every per-row value is
    bitwise-identical whether the row is scored alone or inside a batch
    (the rewrites accumulate each output row independently). *)

open La
open Morpheus

type t =
  | Logreg of Dense.t  (** d×1 weights; predictions are P(y = +1) *)
  | Linreg of Dense.t  (** d×1 weights; predictions are scores T·w *)
  | Glm of Ml_algs.Glm.family * Dense.t
      (** d×1 weights; predictions are the family's mean response *)
  | Kmeans of Dense.t  (** d×k centroids; predictions are cluster ids *)
  | Naive_bayes of Ml_algs.Naive_bayes.model
      (** predictions are class labels *)

val kind : t -> string
(** Stable kind tag: ["logreg"], ["linreg"], ["glm"], ["kmeans"],
    ["naive_bayes"]. *)

val feature_dim : t -> int
(** The d every scored row must have. *)

val describe : t -> string
(** One-line human summary (kind + dims + family/classes). *)

val score_normalized : t -> Normalized.t -> float array
(** One prediction per row of the normalized matrix, computed through
    the factorized rewrites (never materializes T except the Naive
    Bayes row slices). Raises [Invalid_argument] on a feature-dimension
    mismatch. *)

type prepared
(** A model bound to one dataset, with every row-independent part of
    scoring precomputed: the per-part [zᵢ = Rᵢ·wᵢ] for logreg, linreg
    and GLM ({!Rewrite.lmm_prepare}); [Rᵢ·Cᵢ], [colSums(C²)] and the
    dataset's memoized [rowSums(T²)] for K-Means. Naive Bayes keeps its
    direct path. *)

val prepare : t -> Normalized.t -> prepared
(** Pays the Rᵢ-side work once (O(Σ n_Ri·d_Ri) for the weight
    models). Raises [Invalid_argument] on a feature-dimension mismatch
    or a transposed dataset. *)

val score_rows : prepared -> int array -> float array
(** [score_rows (prepare t tn) ids] is bitwise-equal to
    [score_normalized t (Normalized.select_rows tn ids)] — the same
    S-side products and gathers ({!Rewrite.lmm_apply}) — at
    O(|ids|·d_S) instead of also redoing the Rᵢ side. Ids may repeat
    and come in any order; an out-of-range id raises
    [Invalid_argument]. *)

val score_dense : t -> Dense.t -> float array
(** One prediction per row of a dense feature matrix (the protocol's
    raw-rows path). *)

(** {1 Persistence} *)

type payload
(** Marshal-safe mirror of {!t} (plain ints, floats, arrays, strings —
    no abstract library types), the registry's on-disk form. *)

val to_payload : t -> payload

val of_payload : payload -> (t, string) result
(** Re-validates everything [Marshal] cannot: known GLM family, dense
    buffer lengths, Naive-Bayes invariants. *)
