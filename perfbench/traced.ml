(* The factorized data matrix with one span per Data_matrix operation.
   The ML functors instantiated over this module run the same algorithm
   code as over Factorized_matrix; only the calls are timed. Spans carry
   the current iteration as parent, so per-iteration op time and the ML
   layer's self time fall out of the trace. *)

open La
module F = Morpheus.Factorized_matrix

type t = F.t

let parent = ref 0
let iteration = ref 0

let span ?shape name f =
  let t0 = Workload.Timing.now () in
  let r = f () in
  Trace.add ~parent:!parent ~req:!iteration ?shape ("rewrite." ^ name) t0 (Workload.Timing.now ()) ;
  r

let rows = F.rows
let cols = F.cols
let scale a t = span "scale" (fun () -> F.scale a t)
let add_scalar a t = span "add_scalar" (fun () -> F.add_scalar a t)
let pow t a = span "pow" (fun () -> F.pow t a)
let map_scalar f t = span "map_scalar" (fun () -> F.map_scalar f t)
let select_rows t idx = span "select_rows" (fun () -> F.select_rows t idx)
let row_sums t = span ~shape:(rows t, cols t, 1) "row_sums" (fun () -> F.row_sums t)
let col_sums t = span ~shape:(1, rows t, cols t) "col_sums" (fun () -> F.col_sums t)
let sum t = span "sum" (fun () -> F.sum t)
let row_sums_sq t = span ~shape:(rows t, cols t, 1) "row_sums_sq" (fun () -> F.row_sums_sq t)
let lmm t x = span ~shape:(rows t, cols t, Dense.cols x) "lmm" (fun () -> F.lmm t x)
let rmm x t = span ~shape:(Dense.rows x, rows t, cols t) "rmm" (fun () -> F.rmm x t)
let tlmm t x = span ~shape:(cols t, rows t, Dense.cols x) "tlmm" (fun () -> F.tlmm t x)
let crossprod t = span ~shape:(cols t, rows t, cols t) "crossprod" (fun () -> F.crossprod t)
let ginv t = span ~shape:(cols t, rows t, rows t) "ginv" (fun () -> F.ginv t)
let describe = F.describe
