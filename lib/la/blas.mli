(** Dense multiplication kernels — the BLAS-shaped substrate. Both the
    materialized and factorized execution paths funnel through these
    routines, so measured speed-ups reflect the algorithms, not kernel
    differences. All kernels count flops in {!Flops}.

    Every kernel is a range-parameterized body executed through the
    pluggable {!Exec} engine; [?exec] overrides the process default
    ({!Exec.default}). Results are bitwise-identical across backends
    and domain counts: map-shaped kernels partition output rows, and
    reductions fold partials over {!Exec.reduce}'s canonical grid. *)

val gemm : ?exec:Exec.t -> Dense.t -> Dense.t -> Dense.t
(** [gemm a b] is [a·b]. Raises [Invalid_argument] on dim mismatch.
    The loop is picked by shape: one-column ([n = 1]) and one-row
    ([m = 1]) products skip the packed, cache-blocked nest and run
    per-row dot products or the reference's k-j loop. Every path gives
    {!Blas_ref}'s bits. *)

val tgemm : ?exec:Exec.t -> Dense.t -> Dense.t -> Dense.t
(** [tgemm a b] is [aᵀ·b] without materializing [aᵀ]. *)

val gemm_nt : ?exec:Exec.t -> Dense.t -> Dense.t -> Dense.t
(** [gemm_nt a b] is [a·bᵀ] without materializing [bᵀ]. *)

val crossprod : ?exec:Exec.t -> Dense.t -> Dense.t
(** [crossprod a] is [aᵀ·a], exploiting symmetry (half the multiplies —
    the saving the paper's Algorithm 2 relies on). *)

val weighted_crossprod : ?exec:Exec.t -> Dense.t -> float array -> Dense.t
(** [weighted_crossprod a w] is [aᵀ·diag(w)·a]; the heart of Algorithm
    2's [crossprod(diag(colSums K)^½ R)] without forming the scaled
    copy. Raises if [w] doesn't match [a]'s row count. *)

val tcrossprod : ?exec:Exec.t -> Dense.t -> Dense.t
(** [tcrossprod a] is [a·aᵀ] (the Gram matrix when rows are examples). *)

val gemv : ?exec:Exec.t -> Dense.t -> float array -> float array
(** Matrix-vector product. *)

(** {1 In-place / accumulating variants}

    Allocation-free destinations for iteration loops (see
    docs/PERFORMANCE.md). [?beta] (default [0.]) scales the existing
    destination before accumulating: [0.] overwrites, [1.] accumulates,
    anything else pre-scales (one extra counted pass). The destination
    must not alias an input. The pure kernels delegate to these with a
    fresh zero destination, so results are bitwise-identical. *)

val gemm_into : ?exec:Exec.t -> ?beta:float -> Dense.t -> Dense.t -> c:Dense.t -> unit
(** [gemm_into a b ~c] is [c ← a·b + beta·c]. *)

val gemv_into :
  ?exec:Exec.t -> ?beta:float -> Dense.t -> float array -> y:float array -> unit
(** [gemv_into a x ~y] is [y ← a·x + beta·y]. *)

val dot : float array -> float array -> float

(** {1 Autotuning}

    The kernels read their cache-blocking tile sizes from the process
    {!Tune} profile; tile sizes are performance-only (results are
    bitwise-identical to {!Blas_ref} under every profile). *)

val autotune :
  ?quick:bool ->
  ?now:(unit -> float) ->
  unit ->
  Tune.profile * (Tune.profile * float) list
(** Sweep the candidate tile profiles over a fixed sequential gemm
    workload, measure the domain-pool dispatch overhead, install the
    winner as the process profile ({!Tune.set} — the caller persists
    with {!Tune.save}), and return it with the full timing table
    (profile, seconds — smaller is better). [?now] injects a wall
    clock (default [Sys.time], CPU time — exact for the sequential
    sweep). Backs the [morpheus tune] subcommand. *)
