(* Dense matrix-multiplication kernels. Plays the role of the paper's
   BLAS (libblas3) substrate: every multiplication in the system — both
   the materialized and factorized execution paths — funnels through
   these routines, so speed-up ratios between the two paths reflect the
   algorithms, not kernel differences.

   The kernels are cache-blocked and register-tiled (BLIS-style): an
   mc × kc panel of the A-side operand and a kc × nc panel of the
   B-side operand are packed into contiguous per-domain buffers
   ({!Ws}, reused via [Domain.DLS]) and fed to an mr × nr register
   micro-kernel whose accumulators are non-escaping local float refs —
   classic ocamlopt unboxes those, whereas float arguments of a
   recursive loop are boxed at every call (measured: 2 words per float
   per iteration). Tile sizes come from the {!Tune} profile (autotuned
   or pinned via MORPHEUS_TUNE) and are performance-only.

   gemm dispatches on the operand shape alone (no knob): a one-column
   product (n = 1) runs register-tiled per-row dot products and a
   one-row product (m = 1) runs the reference's own k-j loop, neither
   packing anything; every other shape takes the blocked nest. The thin
   loops keep the reference's per-cell sequence and zero-skips, so all
   three give the reference's bits.

   Bitwise determinism is load-bearing and preserved by construction:

   - Each kernel is still a range-parameterized body executed through
     {!Exec}: map-shaped kernels (gemm, gemm_nt, tcrossprod, gemv)
     partition their *output* rows with [Exec.parallel_for]; reduction
     kernels (tgemm, crossprod, weighted_crossprod) fold per-chunk
     partials over *input* rows with [Exec.reduce]'s canonical grid
     (default grain — never the tuned scheduling grain, which feeds
     only [min_chunk]).
   - Per output cell, the accumulation sequence is identical to the
     naive reference ({!Blas_ref}): the depth index ascends globally
     (the k-panel loop sits outside the row/column tile loops and
     panels are visited in order), every partial sum is a 64-bit
     double whether it lives in a register or round-trips through C
     (IEEE store/load is exact), and the reference's [<> 0.0]
     zero-skips are replicated per element — skipping versus adding
     ±0.0 differs bitwise when C holds -0.0 or the other operand is
     non-finite, so the skip is semantics, not an optimization.
   - Packing copies bits verbatim (the weighted kernel premultiplies
     during packing exactly the product the reference computes, with
     the same zero-row forcing), so the values entering each multiply
     are bit-identical to the reference's.

   Hence any tile profile, backend, or domain count produces the same
   matrices as {!Blas_ref} — enforced by test/test_kernels.ml
   (@kernelcheck). All kernels count flops with the same analytic
   formulas as the reference (packing is data movement, not
   arithmetic), so flop totals stay exact and schedule-independent. *)

let dim_error name a b =
  invalid_arg
    (Printf.sprintf "Blas.%s: dim mismatch %dx%d * %dx%d" name (Dense.rows a)
       (Dense.cols a) (Dense.rows b) (Dense.cols b))

(* Smallest row range worth scheduling as its own task, from the per-row
   operation count and the tuned scheduling grain: below this, chunking
   overhead beats the work. Chunk boundaries never affect results. *)
let min_rows ~grain per_row = max 1 (grain / max 1 per_row)

(* acc += part, element-wise — the [combine] of every dense reduction.
   Mutates and returns [acc]; Exec.reduce folds partials in canonical
   chunk order, keeping the rounding schedule-independent. *)
let add_into acc part =
  let ad = Dense.data acc and pd = Dense.data part in
  for i = 0 to Array.length ad - 1 do
    Array.unsafe_set ad i (Array.unsafe_get ad i +. Array.unsafe_get pd i)
  done ;
  acc

(* Mirror the upper triangle of a d×d matrix into the lower one. *)
let mirror_lower c d =
  let cd = Dense.data c in
  for i = 0 to d - 1 do
    for j = 0 to i - 1 do
      Array.unsafe_set cd ((i * d) + j) (Array.unsafe_get cd ((j * d) + i))
    done
  done

(* Prepare an accumulation destination for a [?beta] kernel: beta = 0
   zero-fills (the pure-kernel case), beta = 1 accumulates as-is, any
   other beta pre-scales the destination (counted as one pass). *)
let apply_beta ?exec beta c =
  if beta = 0.0 then Dense.fill c 0.0
  else if beta <> 1.0 then Dense.scale_into ?exec beta c ~out:c

(* Per-domain packing workspace, reused across kernel calls. Safe to
   share through DLS because kernel bodies are leaves: nothing inside a
   Blas body calls back into Blas, so a domain never needs two live
   workspaces at once. Buffers grow geometrically and are uninitialized
   ([create_float]) — packing writes every slot the micro-kernels read. *)
module Ws = struct
  type t = { mutable a : float array; mutable b : float array }

  let key = Domain.DLS.new_key (fun () -> { a = [||]; b = [||] })
  let get () = Domain.DLS.get key

  let grow cur n =
    if Array.length cur >= n then cur
    else Array.create_float (max n (2 * Array.length cur))

  let a ws n =
    let buf = grow ws.a n in
    ws.a <- buf ;
    buf

  let b ws n =
    let buf = grow ws.b n in
    ws.b <- buf ;
    buf
end

(* ---- panel packing ----

   A-side panels are stored as mr-row micro-panels: micro-panel [ir]
   (of [mrb <= mr] actual rows) starts at [ir * kcb] and holds its
   depth-k slice at [k * mrb + rr]. B-side panels are the mirror image
   with nr-column micro-panels. Edge micro-panels pack at their true
   width — no zero padding, which would add spurious ±0/NaN terms.

   A-side packers return [true] when the panel is zero-free: packing
   already touches every value, so the check is nearly free, and on a
   zero-free panel the reference's per-element [<> 0.0] skip can never
   fire — the micro-kernels then run a branch-free inner loop that is
   bitwise-identical by construction. *)

(* Rows [ic, ic+h) × depth [pc, pc+kcb) of a row-major src (stride lda). *)
let pack_a_rows src lda buf ~ic ~h ~pc ~kcb ~mr =
  let zfree = ref true in
  let ir = ref 0 in
  while !ir < h do
    let mrb = min mr (h - !ir) in
    let base = !ir * kcb in
    for rr = 0 to mrb - 1 do
      let sbase = ((ic + !ir + rr) * lda) + pc in
      let dbase = base + rr in
      for k = 0 to kcb - 1 do
        let v = Array.unsafe_get src (sbase + k) in
        if v = 0.0 then zfree := false ;
        Array.unsafe_set buf (dbase + (k * mrb)) v
      done
    done ;
    ir := !ir + mr
  done ;
  !zfree

(* Same panel shape from a transposed source: element (row i, depth k)
   is [src[(pc + k) * lda + i]] — a column slice of the original. *)
let pack_a_trans src lda buf ~ic ~h ~pc ~kcb ~mr =
  let zfree = ref true in
  let ir = ref 0 in
  while !ir < h do
    let mrb = min mr (h - !ir) in
    let base = !ir * kcb in
    for k = 0 to kcb - 1 do
      let sbase = ((pc + k) * lda) + ic + !ir in
      let dbase = base + (k * mrb) in
      for rr = 0 to mrb - 1 do
        let v = Array.unsafe_get src (sbase + rr) in
        if v = 0.0 then zfree := false ;
        Array.unsafe_set buf (dbase + rr) v
      done
    done ;
    ir := !ir + mr
  done ;
  !zfree

(* Transposed pack premultiplied by per-depth weights: packs
   [w_k * src[k, i]], forcing 0.0 when [w_k = 0.0] so a zero-weight row
   contributes nothing even when src holds NaN/inf — exactly the
   reference kernel's outer row-skip. The packed value equals the
   reference's [ari = wr *. a], so its [<> 0.0] skip transfers. *)
let pack_a_trans_w src lda wts buf ~ic ~h ~pc ~kcb ~mr =
  let zfree = ref true in
  let ir = ref 0 in
  while !ir < h do
    let mrb = min mr (h - !ir) in
    let base = !ir * kcb in
    for k = 0 to kcb - 1 do
      let wr = Array.unsafe_get wts (pc + k) in
      let sbase = ((pc + k) * lda) + ic + !ir in
      let dbase = base + (k * mrb) in
      if wr = 0.0 then begin
        zfree := false ;
        for rr = 0 to mrb - 1 do
          Array.unsafe_set buf (dbase + rr) 0.0
        done
      end
      else
        for rr = 0 to mrb - 1 do
          let v = wr *. Array.unsafe_get src (sbase + rr) in
          if v = 0.0 then zfree := false ;
          Array.unsafe_set buf (dbase + rr) v
        done
    done ;
    ir := !ir + mr
  done ;
  !zfree

(* Depth [pc, pc+kcb) × columns [jc, jc+w) of a row-major src. *)
let pack_b_panel src ldb buf ~jc ~w ~pc ~kcb ~nr =
  let jr = ref 0 in
  while !jr < w do
    let nrb = min nr (w - !jr) in
    let base = !jr * kcb in
    for k = 0 to kcb - 1 do
      let sbase = ((pc + k) * ldb) + jc + !jr in
      let dbase = base + (k * nrb) in
      for jj = 0 to nrb - 1 do
        Array.unsafe_set buf (dbase + jj) (Array.unsafe_get src (sbase + jj))
      done
    done ;
    jr := !jr + nr
  done

(* ---- accumulating micro-kernels (gemm-shaped) ----

   C[tile] += Apanel · Bpanel over one kc panel. Accumulators are loaded
   from C, updated for each depth index in ascending order, and stored
   back once — the same per-cell operation sequence as the reference,
   with each row's contribution guarded by its [<> 0.0] skip. When the
   packer reported the panel zero-free ([zf]), the skip can never fire,
   so an unguarded loop produces the exact same float sequence — that
   branch-free path is where the dense-data throughput comes from. *)

let micro_4x4 ab ao bb bo cd co cs kcb zf =
  let r1 = co + cs in
  let r2 = r1 + cs in
  let r3 = r2 + cs in
  let c00 = ref (Array.unsafe_get cd co)
  and c01 = ref (Array.unsafe_get cd (co + 1))
  and c02 = ref (Array.unsafe_get cd (co + 2))
  and c03 = ref (Array.unsafe_get cd (co + 3))
  and c10 = ref (Array.unsafe_get cd r1)
  and c11 = ref (Array.unsafe_get cd (r1 + 1))
  and c12 = ref (Array.unsafe_get cd (r1 + 2))
  and c13 = ref (Array.unsafe_get cd (r1 + 3))
  and c20 = ref (Array.unsafe_get cd r2)
  and c21 = ref (Array.unsafe_get cd (r2 + 1))
  and c22 = ref (Array.unsafe_get cd (r2 + 2))
  and c23 = ref (Array.unsafe_get cd (r2 + 3))
  and c30 = ref (Array.unsafe_get cd r3)
  and c31 = ref (Array.unsafe_get cd (r3 + 1))
  and c32 = ref (Array.unsafe_get cd (r3 + 2))
  and c33 = ref (Array.unsafe_get cd (r3 + 3)) in
  if zf then
    (* Branch-free path: same update sequence with the skips elided.
       Kept as a straight non-unrolled loop — a k-unroll-by-2 variant
       measured consistently slower here (the 16 live accumulators plus
       running offsets spill once the unrolled body doubles register
       demand), and the loop bodies are spelled out inline rather than
       factored into a local function because a closure would capture
       the accumulator refs and box them. *)
    for k = 0 to kcb - 1 do
      let ap = ao + (4 * k) and bp = bo + (4 * k) in
      let b0 = Array.unsafe_get bb bp
      and b1 = Array.unsafe_get bb (bp + 1)
      and b2 = Array.unsafe_get bb (bp + 2)
      and b3 = Array.unsafe_get bb (bp + 3) in
      let a0 = Array.unsafe_get ab ap in
      c00 := !c00 +. (a0 *. b0) ;
      c01 := !c01 +. (a0 *. b1) ;
      c02 := !c02 +. (a0 *. b2) ;
      c03 := !c03 +. (a0 *. b3) ;
      let a1 = Array.unsafe_get ab (ap + 1) in
      c10 := !c10 +. (a1 *. b0) ;
      c11 := !c11 +. (a1 *. b1) ;
      c12 := !c12 +. (a1 *. b2) ;
      c13 := !c13 +. (a1 *. b3) ;
      let a2 = Array.unsafe_get ab (ap + 2) in
      c20 := !c20 +. (a2 *. b0) ;
      c21 := !c21 +. (a2 *. b1) ;
      c22 := !c22 +. (a2 *. b2) ;
      c23 := !c23 +. (a2 *. b3) ;
      let a3 = Array.unsafe_get ab (ap + 3) in
      c30 := !c30 +. (a3 *. b0) ;
      c31 := !c31 +. (a3 *. b1) ;
      c32 := !c32 +. (a3 *. b2) ;
      c33 := !c33 +. (a3 *. b3)
    done
  else
    for k = 0 to kcb - 1 do
      let ap = ao + (4 * k) and bp = bo + (4 * k) in
      let b0 = Array.unsafe_get bb bp
      and b1 = Array.unsafe_get bb (bp + 1)
      and b2 = Array.unsafe_get bb (bp + 2)
      and b3 = Array.unsafe_get bb (bp + 3) in
      let a0 = Array.unsafe_get ab ap in
      if a0 <> 0.0 then begin
        c00 := !c00 +. (a0 *. b0) ;
        c01 := !c01 +. (a0 *. b1) ;
        c02 := !c02 +. (a0 *. b2) ;
        c03 := !c03 +. (a0 *. b3)
      end ;
      let a1 = Array.unsafe_get ab (ap + 1) in
      if a1 <> 0.0 then begin
        c10 := !c10 +. (a1 *. b0) ;
        c11 := !c11 +. (a1 *. b1) ;
        c12 := !c12 +. (a1 *. b2) ;
        c13 := !c13 +. (a1 *. b3)
      end ;
      let a2 = Array.unsafe_get ab (ap + 2) in
      if a2 <> 0.0 then begin
        c20 := !c20 +. (a2 *. b0) ;
        c21 := !c21 +. (a2 *. b1) ;
        c22 := !c22 +. (a2 *. b2) ;
        c23 := !c23 +. (a2 *. b3)
      end ;
      let a3 = Array.unsafe_get ab (ap + 3) in
      if a3 <> 0.0 then begin
        c30 := !c30 +. (a3 *. b0) ;
        c31 := !c31 +. (a3 *. b1) ;
        c32 := !c32 +. (a3 *. b2) ;
        c33 := !c33 +. (a3 *. b3)
      end
    done ;
  Array.unsafe_set cd co !c00 ;
  Array.unsafe_set cd (co + 1) !c01 ;
  Array.unsafe_set cd (co + 2) !c02 ;
  Array.unsafe_set cd (co + 3) !c03 ;
  Array.unsafe_set cd r1 !c10 ;
  Array.unsafe_set cd (r1 + 1) !c11 ;
  Array.unsafe_set cd (r1 + 2) !c12 ;
  Array.unsafe_set cd (r1 + 3) !c13 ;
  Array.unsafe_set cd r2 !c20 ;
  Array.unsafe_set cd (r2 + 1) !c21 ;
  Array.unsafe_set cd (r2 + 2) !c22 ;
  Array.unsafe_set cd (r2 + 3) !c23 ;
  Array.unsafe_set cd r3 !c30 ;
  Array.unsafe_set cd (r3 + 1) !c31 ;
  Array.unsafe_set cd (r3 + 2) !c32 ;
  Array.unsafe_set cd (r3 + 3) !c33

let micro_6x2 ab ao bb bo cd co cs kcb zf =
  let r1 = co + cs in
  let r2 = r1 + cs in
  let r3 = r2 + cs in
  let r4 = r3 + cs in
  let r5 = r4 + cs in
  let c00 = ref (Array.unsafe_get cd co)
  and c01 = ref (Array.unsafe_get cd (co + 1))
  and c10 = ref (Array.unsafe_get cd r1)
  and c11 = ref (Array.unsafe_get cd (r1 + 1))
  and c20 = ref (Array.unsafe_get cd r2)
  and c21 = ref (Array.unsafe_get cd (r2 + 1))
  and c30 = ref (Array.unsafe_get cd r3)
  and c31 = ref (Array.unsafe_get cd (r3 + 1))
  and c40 = ref (Array.unsafe_get cd r4)
  and c41 = ref (Array.unsafe_get cd (r4 + 1))
  and c50 = ref (Array.unsafe_get cd r5)
  and c51 = ref (Array.unsafe_get cd (r5 + 1)) in
  if zf then
    for k = 0 to kcb - 1 do
      let ap = ao + (6 * k) and bp = bo + (2 * k) in
      let b0 = Array.unsafe_get bb bp and b1 = Array.unsafe_get bb (bp + 1) in
      let a0 = Array.unsafe_get ab ap in
      c00 := !c00 +. (a0 *. b0) ;
      c01 := !c01 +. (a0 *. b1) ;
      let a1 = Array.unsafe_get ab (ap + 1) in
      c10 := !c10 +. (a1 *. b0) ;
      c11 := !c11 +. (a1 *. b1) ;
      let a2 = Array.unsafe_get ab (ap + 2) in
      c20 := !c20 +. (a2 *. b0) ;
      c21 := !c21 +. (a2 *. b1) ;
      let a3 = Array.unsafe_get ab (ap + 3) in
      c30 := !c30 +. (a3 *. b0) ;
      c31 := !c31 +. (a3 *. b1) ;
      let a4 = Array.unsafe_get ab (ap + 4) in
      c40 := !c40 +. (a4 *. b0) ;
      c41 := !c41 +. (a4 *. b1) ;
      let a5 = Array.unsafe_get ab (ap + 5) in
      c50 := !c50 +. (a5 *. b0) ;
      c51 := !c51 +. (a5 *. b1)
    done
  else
    for k = 0 to kcb - 1 do
      let ap = ao + (6 * k) and bp = bo + (2 * k) in
      let b0 = Array.unsafe_get bb bp and b1 = Array.unsafe_get bb (bp + 1) in
      let a0 = Array.unsafe_get ab ap in
      if a0 <> 0.0 then begin
        c00 := !c00 +. (a0 *. b0) ;
        c01 := !c01 +. (a0 *. b1)
      end ;
      let a1 = Array.unsafe_get ab (ap + 1) in
      if a1 <> 0.0 then begin
        c10 := !c10 +. (a1 *. b0) ;
        c11 := !c11 +. (a1 *. b1)
      end ;
      let a2 = Array.unsafe_get ab (ap + 2) in
      if a2 <> 0.0 then begin
        c20 := !c20 +. (a2 *. b0) ;
        c21 := !c21 +. (a2 *. b1)
      end ;
      let a3 = Array.unsafe_get ab (ap + 3) in
      if a3 <> 0.0 then begin
        c30 := !c30 +. (a3 *. b0) ;
        c31 := !c31 +. (a3 *. b1)
      end ;
      let a4 = Array.unsafe_get ab (ap + 4) in
      if a4 <> 0.0 then begin
        c40 := !c40 +. (a4 *. b0) ;
        c41 := !c41 +. (a4 *. b1)
      end ;
      let a5 = Array.unsafe_get ab (ap + 5) in
      if a5 <> 0.0 then begin
        c50 := !c50 +. (a5 *. b0) ;
        c51 := !c51 +. (a5 *. b1)
      end
    done ;
  Array.unsafe_set cd co !c00 ;
  Array.unsafe_set cd (co + 1) !c01 ;
  Array.unsafe_set cd r1 !c10 ;
  Array.unsafe_set cd (r1 + 1) !c11 ;
  Array.unsafe_set cd r2 !c20 ;
  Array.unsafe_set cd (r2 + 1) !c21 ;
  Array.unsafe_set cd r3 !c30 ;
  Array.unsafe_set cd (r3 + 1) !c31 ;
  Array.unsafe_set cd r4 !c40 ;
  Array.unsafe_set cd (r4 + 1) !c41 ;
  Array.unsafe_set cd r5 !c50 ;
  Array.unsafe_set cd (r5 + 1) !c51

(* Edge tiles and pinned non-unrolled shapes: accumulate straight into
   C memory, per depth index ascending — the reference's own order. *)
let micro_gen ab ao bb bo cd co cs kcb mrb nrb =
  for k = 0 to kcb - 1 do
    let ap = ao + (mrb * k) and bp = bo + (nrb * k) in
    for rr = 0 to mrb - 1 do
      let av = Array.unsafe_get ab (ap + rr) in
      if av <> 0.0 then begin
        let cr = co + (rr * cs) in
        for jj = 0 to nrb - 1 do
          Array.unsafe_set cd (cr + jj)
            (Array.unsafe_get cd (cr + jj)
            +. (av *. Array.unsafe_get bb (bp + jj)))
        done
      end
    done
  done

(* Diagonal-crossing tiles of the symmetric kernels: only cells with
   j >= i, matching the reference's upper-triangle loops. *)
let micro_gen_tri ab ao bb bo cd cs kcb mrb nrb ~i0 ~j0 =
  for k = 0 to kcb - 1 do
    let ap = ao + (mrb * k) and bp = bo + (nrb * k) in
    for rr = 0 to mrb - 1 do
      let av = Array.unsafe_get ab (ap + rr) in
      if av <> 0.0 then begin
        let i = i0 + rr in
        let cr = (i * cs) + j0 in
        for jj = max 0 (i - j0) to nrb - 1 do
          Array.unsafe_set cd (cr + jj)
            (Array.unsafe_get cd (cr + jj)
            +. (av *. Array.unsafe_get bb (bp + jj)))
        done
      end
    done
  done

(* ---- the blocked macro-kernel driver ----

   Loop nest (BLIS order): jc over output columns [clo, chi) step nc,
   pc over the depth [klo, khi) step kc *ascending* (this is what keeps
   every cell's accumulation order global-k-ascending), pack the B
   panel, ic over output rows [rlo, rhi) step mc, pack the A panel,
   then jr/ir over register tiles. [tri] restricts to the upper
   triangle for the symmetric kernels: register tiles entirely above
   the diagonal use the fast micros, tiles crossing it fall back to the
   triangular edge micro, tiles strictly below are skipped. *)
let blocked ~p ~tri cd cs ~rlo ~rhi ~klo ~khi ~clo ~chi ~pack_a ~pack_b =
  let { Tune.mc; kc; nc; mr; nr; _ } = p in
  let ws = Ws.get () in
  let kmax = min kc (max 0 (khi - klo)) in
  let abuf = Ws.a ws (min mc (max 0 (rhi - rlo)) * kmax) in
  let bbuf = Ws.b ws (min nc (max 0 (chi - clo)) * kmax) in
  let jc = ref clo in
  while !jc < chi do
    let w = min nc (chi - !jc) in
    let pc = ref klo in
    while !pc < khi do
      let kcb = min kc (khi - !pc) in
      pack_b bbuf ~jc:!jc ~w ~pc:!pc ~kcb ~nr ;
      let ic = ref rlo in
      while !ic < rhi do
        let h = min mc (rhi - !ic) in
        let zf = pack_a abuf ~ic:!ic ~h ~pc:!pc ~kcb ~mr in
        let jr = ref 0 in
        while !jr < w do
          let nrb = min nr (w - !jr) in
          let bo = !jr * kcb in
          let j0 = !jc + !jr in
          let ir = ref 0 in
          while !ir < h do
            let mrb = min mr (h - !ir) in
            let ao = !ir * kcb in
            let i0 = !ic + !ir in
            if (not tri) || j0 >= i0 + mrb - 1 then begin
              let co = (i0 * cs) + j0 in
              if mrb = 4 && nrb = 4 then
                micro_4x4 abuf ao bbuf bo cd co cs kcb zf
              else if mrb = 6 && nrb = 2 then
                micro_6x2 abuf ao bbuf bo cd co cs kcb zf
              else micro_gen abuf ao bbuf bo cd co cs kcb mrb nrb
            end
            else if j0 + nrb - 1 >= i0 then
              micro_gen_tri abuf ao bbuf bo cd cs kcb mrb nrb ~i0 ~j0 ;
            ir := !ir + mr
          done ;
          jr := !jr + nr
        done ;
        ic := !ic + mc
      done ;
      pc := !pc + kc
    done ;
    jc := !jc + nc
  done

(* ---- dot-shaped micro-kernels (gemm_nt / tcrossprod) ----

   Both operands are row-contiguous in k, so there is nothing to pack:
   an mr × nr register tile accumulates full-depth dot products from
   zero and stores each cell once — exactly the reference's per-cell
   register accumulator, which also has no zero-skip. [mco >= 0] adds
   the symmetric mirror store (tcrossprod writes (i,j) and (j,i)). *)

let dot_4x4 ad a0 lda bd b0 ldb cd co cs ~mco ~kk =
  let a1 = a0 + lda in
  let a2 = a1 + lda in
  let a3 = a2 + lda in
  let b1 = b0 + ldb in
  let b2 = b1 + ldb in
  let b3 = b2 + ldb in
  let c00 = ref 0.0
  and c01 = ref 0.0
  and c02 = ref 0.0
  and c03 = ref 0.0
  and c10 = ref 0.0
  and c11 = ref 0.0
  and c12 = ref 0.0
  and c13 = ref 0.0
  and c20 = ref 0.0
  and c21 = ref 0.0
  and c22 = ref 0.0
  and c23 = ref 0.0
  and c30 = ref 0.0
  and c31 = ref 0.0
  and c32 = ref 0.0
  and c33 = ref 0.0 in
  for k = 0 to kk - 1 do
    let x0 = Array.unsafe_get ad (a0 + k)
    and x1 = Array.unsafe_get ad (a1 + k)
    and x2 = Array.unsafe_get ad (a2 + k)
    and x3 = Array.unsafe_get ad (a3 + k)
    and y0 = Array.unsafe_get bd (b0 + k)
    and y1 = Array.unsafe_get bd (b1 + k)
    and y2 = Array.unsafe_get bd (b2 + k)
    and y3 = Array.unsafe_get bd (b3 + k) in
    c00 := !c00 +. (x0 *. y0) ;
    c01 := !c01 +. (x0 *. y1) ;
    c02 := !c02 +. (x0 *. y2) ;
    c03 := !c03 +. (x0 *. y3) ;
    c10 := !c10 +. (x1 *. y0) ;
    c11 := !c11 +. (x1 *. y1) ;
    c12 := !c12 +. (x1 *. y2) ;
    c13 := !c13 +. (x1 *. y3) ;
    c20 := !c20 +. (x2 *. y0) ;
    c21 := !c21 +. (x2 *. y1) ;
    c22 := !c22 +. (x2 *. y2) ;
    c23 := !c23 +. (x2 *. y3) ;
    c30 := !c30 +. (x3 *. y0) ;
    c31 := !c31 +. (x3 *. y1) ;
    c32 := !c32 +. (x3 *. y2) ;
    c33 := !c33 +. (x3 *. y3)
  done ;
  let r1 = co + cs in
  let r2 = r1 + cs in
  let r3 = r2 + cs in
  Array.unsafe_set cd co !c00 ;
  Array.unsafe_set cd (co + 1) !c01 ;
  Array.unsafe_set cd (co + 2) !c02 ;
  Array.unsafe_set cd (co + 3) !c03 ;
  Array.unsafe_set cd r1 !c10 ;
  Array.unsafe_set cd (r1 + 1) !c11 ;
  Array.unsafe_set cd (r1 + 2) !c12 ;
  Array.unsafe_set cd (r1 + 3) !c13 ;
  Array.unsafe_set cd r2 !c20 ;
  Array.unsafe_set cd (r2 + 1) !c21 ;
  Array.unsafe_set cd (r2 + 2) !c22 ;
  Array.unsafe_set cd (r2 + 3) !c23 ;
  Array.unsafe_set cd r3 !c30 ;
  Array.unsafe_set cd (r3 + 1) !c31 ;
  Array.unsafe_set cd (r3 + 2) !c32 ;
  Array.unsafe_set cd (r3 + 3) !c33 ;
  if mco >= 0 then begin
    let m1 = mco + cs in
    let m2 = m1 + cs in
    let m3 = m2 + cs in
    Array.unsafe_set cd mco !c00 ;
    Array.unsafe_set cd (mco + 1) !c10 ;
    Array.unsafe_set cd (mco + 2) !c20 ;
    Array.unsafe_set cd (mco + 3) !c30 ;
    Array.unsafe_set cd m1 !c01 ;
    Array.unsafe_set cd (m1 + 1) !c11 ;
    Array.unsafe_set cd (m1 + 2) !c21 ;
    Array.unsafe_set cd (m1 + 3) !c31 ;
    Array.unsafe_set cd m2 !c02 ;
    Array.unsafe_set cd (m2 + 1) !c12 ;
    Array.unsafe_set cd (m2 + 2) !c22 ;
    Array.unsafe_set cd (m2 + 3) !c32 ;
    Array.unsafe_set cd m3 !c03 ;
    Array.unsafe_set cd (m3 + 1) !c13 ;
    Array.unsafe_set cd (m3 + 2) !c23 ;
    Array.unsafe_set cd (m3 + 3) !c33
  end

let dot_6x2 ad a0 lda bd b0 ldb cd co cs ~mco ~kk =
  let a1 = a0 + lda in
  let a2 = a1 + lda in
  let a3 = a2 + lda in
  let a4 = a3 + lda in
  let a5 = a4 + lda in
  let b1 = b0 + ldb in
  let c00 = ref 0.0
  and c01 = ref 0.0
  and c10 = ref 0.0
  and c11 = ref 0.0
  and c20 = ref 0.0
  and c21 = ref 0.0
  and c30 = ref 0.0
  and c31 = ref 0.0
  and c40 = ref 0.0
  and c41 = ref 0.0
  and c50 = ref 0.0
  and c51 = ref 0.0 in
  for k = 0 to kk - 1 do
    let x0 = Array.unsafe_get ad (a0 + k)
    and x1 = Array.unsafe_get ad (a1 + k)
    and x2 = Array.unsafe_get ad (a2 + k)
    and x3 = Array.unsafe_get ad (a3 + k)
    and x4 = Array.unsafe_get ad (a4 + k)
    and x5 = Array.unsafe_get ad (a5 + k)
    and y0 = Array.unsafe_get bd (b0 + k)
    and y1 = Array.unsafe_get bd (b1 + k) in
    c00 := !c00 +. (x0 *. y0) ;
    c01 := !c01 +. (x0 *. y1) ;
    c10 := !c10 +. (x1 *. y0) ;
    c11 := !c11 +. (x1 *. y1) ;
    c20 := !c20 +. (x2 *. y0) ;
    c21 := !c21 +. (x2 *. y1) ;
    c30 := !c30 +. (x3 *. y0) ;
    c31 := !c31 +. (x3 *. y1) ;
    c40 := !c40 +. (x4 *. y0) ;
    c41 := !c41 +. (x4 *. y1) ;
    c50 := !c50 +. (x5 *. y0) ;
    c51 := !c51 +. (x5 *. y1)
  done ;
  let r1 = co + cs in
  let r2 = r1 + cs in
  let r3 = r2 + cs in
  let r4 = r3 + cs in
  let r5 = r4 + cs in
  Array.unsafe_set cd co !c00 ;
  Array.unsafe_set cd (co + 1) !c01 ;
  Array.unsafe_set cd r1 !c10 ;
  Array.unsafe_set cd (r1 + 1) !c11 ;
  Array.unsafe_set cd r2 !c20 ;
  Array.unsafe_set cd (r2 + 1) !c21 ;
  Array.unsafe_set cd r3 !c30 ;
  Array.unsafe_set cd (r3 + 1) !c31 ;
  Array.unsafe_set cd r4 !c40 ;
  Array.unsafe_set cd (r4 + 1) !c41 ;
  Array.unsafe_set cd r5 !c50 ;
  Array.unsafe_set cd (r5 + 1) !c51 ;
  if mco >= 0 then begin
    let m1 = mco + cs in
    Array.unsafe_set cd mco !c00 ;
    Array.unsafe_set cd (mco + 1) !c10 ;
    Array.unsafe_set cd (mco + 2) !c20 ;
    Array.unsafe_set cd (mco + 3) !c30 ;
    Array.unsafe_set cd (mco + 4) !c40 ;
    Array.unsafe_set cd (mco + 5) !c50 ;
    Array.unsafe_set cd m1 !c01 ;
    Array.unsafe_set cd (m1 + 1) !c11 ;
    Array.unsafe_set cd (m1 + 2) !c21 ;
    Array.unsafe_set cd (m1 + 3) !c31 ;
    Array.unsafe_set cd (m1 + 4) !c41 ;
    Array.unsafe_set cd (m1 + 5) !c51
  end

(* Edge tiles: per-cell dot products, identical to the reference loop.
   [tri] clips to j >= i; [mco >= 0] adds the mirror store. *)
let dot_gen ad lda bd ldb cd cs ~i0 ~j0 ~mrb ~nrb ~tri ~mco ~kk =
  for rr = 0 to mrb - 1 do
    let abase = (i0 + rr) * lda in
    let jlo = if tri then max 0 (i0 + rr - j0) else 0 in
    for jj = jlo to nrb - 1 do
      let bbase = (j0 + jj) * ldb in
      let acc = ref 0.0 in
      for k = 0 to kk - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get ad (abase + k) *. Array.unsafe_get bd (bbase + k))
      done ;
      let v = !acc in
      Array.unsafe_set cd (((i0 + rr) * cs) + j0 + jj) v ;
      if mco >= 0 then Array.unsafe_set cd (mco + (jj * cs) + rr) v
    done
  done

(* Macro driver for the dot-shaped kernels: block output columns by nc
   so the nr B-rows of a tile stay cache-warm across the row sweep,
   register-tile with mr × nr. [sym] turns on the upper-triangle
   clipping and mirror stores (tcrossprod). *)
let dot_blocked ~p ~sym ad lda bd ldb cd cs ~rlo ~rhi ~cols ~kk =
  let { Tune.nc; mr; nr; _ } = p in
  let jc = ref 0 in
  while !jc < cols do
    let jhi = min cols (!jc + nc) in
    let ir = ref rlo in
    while !ir < rhi do
      let mrb = min mr (rhi - !ir) in
      let i0 = !ir in
      let jr = ref !jc in
      while !jr < jhi do
        let nrb = min nr (jhi - !jr) in
        let j0 = !jr in
        if (not sym) || j0 + nrb - 1 >= i0 then begin
          let mco = if sym then (j0 * cs) + i0 else -1 in
          if (not sym) || j0 >= i0 + mrb - 1 then begin
            let co = (i0 * cs) + j0 in
            if mrb = 4 && nrb = 4 then
              dot_4x4 ad (i0 * lda) lda bd (j0 * ldb) ldb cd co cs ~mco ~kk
            else if mrb = 6 && nrb = 2 then
              dot_6x2 ad (i0 * lda) lda bd (j0 * ldb) ldb cd co cs ~mco ~kk
            else dot_gen ad lda bd ldb cd cs ~i0 ~j0 ~mrb ~nrb ~tri:false ~mco ~kk
          end
          else dot_gen ad lda bd ldb cd cs ~i0 ~j0 ~mrb ~nrb ~tri:true ~mco ~kk
        end ;
        jr := !jr + nr
      done ;
      ir := !ir + mr
    done ;
    jc := !jc + nc
  done

(* ---- thin gemm shapes ----

   A one-column or one-row product has no reuse for packing to buy: with
   n = 1 every B value is read once per row, with m = 1 every A value
   once in all. These loops run the reference's own per-cell sequence
   (C's beta-applied value, then the depth index ascending, each term
   guarded by the reference's [<> 0.0] skip on the A side) without
   packing or edge tiles. *)

(* n = 1, rows [lo, hi): C[i] += Σ_k A[i,k]·B[k]. Four-row register
   tiling shares each B load across rows, as in [gemv_into]; unlike
   gemv, the A-side zero-skip is kept, since skipping versus adding
   ±0.0 (or 0·Inf) differs bitwise. *)
let gemm_col ad ka bd cd lo hi =
  let i = ref lo in
  while hi - !i >= 4 do
    let b0 = !i * ka in
    let b1 = b0 + ka in
    let b2 = b1 + ka in
    let b3 = b2 + ka in
    let s0 = ref (Array.unsafe_get cd !i)
    and s1 = ref (Array.unsafe_get cd (!i + 1))
    and s2 = ref (Array.unsafe_get cd (!i + 2))
    and s3 = ref (Array.unsafe_get cd (!i + 3)) in
    for k = 0 to ka - 1 do
      let xv = Array.unsafe_get bd k in
      let a0 = Array.unsafe_get ad (b0 + k) in
      if a0 <> 0.0 then s0 := !s0 +. (a0 *. xv) ;
      let a1 = Array.unsafe_get ad (b1 + k) in
      if a1 <> 0.0 then s1 := !s1 +. (a1 *. xv) ;
      let a2 = Array.unsafe_get ad (b2 + k) in
      if a2 <> 0.0 then s2 := !s2 +. (a2 *. xv) ;
      let a3 = Array.unsafe_get ad (b3 + k) in
      if a3 <> 0.0 then s3 := !s3 +. (a3 *. xv)
    done ;
    Array.unsafe_set cd !i !s0 ;
    Array.unsafe_set cd (!i + 1) !s1 ;
    Array.unsafe_set cd (!i + 2) !s2 ;
    Array.unsafe_set cd (!i + 3) !s3 ;
    i := !i + 4
  done ;
  while !i < hi do
    let base = !i * ka in
    let acc = ref (Array.unsafe_get cd !i) in
    for k = 0 to ka - 1 do
      let av = Array.unsafe_get ad (base + k) in
      if av <> 0.0 then acc := !acc +. (av *. Array.unsafe_get bd k)
    done ;
    Array.unsafe_set cd !i !acc ;
    i := !i + 1
  done

(* m = 1: the reference's k-j loop for its single row — skip a zero
   x_k, else add x_k times row k of B into the one output row. *)
let gemm_row ad ka bd cd n =
  for k = 0 to ka - 1 do
    let xk = Array.unsafe_get ad k in
    if xk <> 0.0 then begin
      let bbase = k * n in
      for j = 0 to n - 1 do
        Array.unsafe_set cd j
          (Array.unsafe_get cd j +. (xk *. Array.unsafe_get bd (bbase + j)))
      done
    end
  done

(* ---- kernels ---- *)

(* C ← A·B + beta·C, explicit profile (the autotuner times candidate
   profiles through this entry). [c] must not alias [a] or [b]. The
   operand shape picks the loop: n = 1 and m = 1 run the thin loops
   above, everything else the blocked nest — all with the reference's
   bits. *)
let gemm_into_p ~p ?exec ?(beta = 0.0) a b ~c =
  let m = Dense.rows a and ka = Dense.cols a in
  let kb = Dense.rows b and n = Dense.cols b in
  if ka <> kb then dim_error "gemm_into" a b ;
  if Dense.rows c <> m || Dense.cols c <> n then
    invalid_arg "Blas.gemm_into: output dim mismatch" ;
  apply_beta ?exec beta c ;
  Flops.addf (2.0 *. float_of_int m *. float_of_int ka *. float_of_int n) ;
  let ad = Dense.data a and bd = Dense.data b and cd = Dense.data c in
  let body =
    if n = 1 then gemm_col ad ka bd cd
    else if m = 1 then fun _ _ -> gemm_row ad ka bd cd n (* one row, one chunk *)
    else begin
      let pack_a = pack_a_rows ad ka and pack_b = pack_b_panel bd n in
      fun lo hi ->
        blocked ~p ~tri:false cd n ~rlo:lo ~rhi:hi ~klo:0 ~khi:ka ~clo:0 ~chi:n
          ~pack_a ~pack_b
    end
  in
  Exec.parallel_for
    ~min_chunk:(min_rows ~grain:p.Tune.grain (2 * ka * n))
    (Exec.resolve exec) ~lo:0 ~hi:m body

(* ---- autotuning ----

   The sweep workload is one sequential gemm on fixed pseudo-random
   square matrices — big enough to exercise all three blocking levels,
   small enough that a full sweep stays sub-second per candidate. Flop
   counting is disabled inside timing loops. The timer defaults to
   Sys.time (CPU time — exact for the sequential sweep; wall clocks
   live behind lib/serve/clock.ml and lib/workload/timing.ml, E204, so
   callers with a real clock inject it). *)

let tune_n = 192
let tune_flops = 2.0 *. float_of_int tune_n *. float_of_int tune_n *. float_of_int tune_n

let tune_mat seed =
  let m = Dense.create tune_n tune_n in
  let d = Dense.data m in
  let state = ref (seed land 0x3FFFFFFF) in
  for i = 0 to (tune_n * tune_n) - 1 do
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF ;
    d.(i) <- float_of_int ((!state land 1023) - 512) /. 512.0
  done ;
  m

let tune_inputs =
  lazy
    (let a = tune_mat 1 and b = tune_mat 2 in
     (a, b, Dense.create tune_n tune_n))

let tune_run now p =
  Flops.with_disabled (fun () ->
      let a, b, c = Lazy.force tune_inputs in
      gemm_into_p ~p ~exec:Exec.seq a b ~c ;
      let t0 = now () in
      gemm_into_p ~p ~exec:Exec.seq a b ~c ;
      gemm_into_p ~p ~exec:Exec.seq a b ~c ;
      (now () -. t0) /. 2.0)

(* The process profile; in auto mode the first kernel call runs a quick
   sweep here and persists the winner. *)
let profile () =
  Tune.ensure ~quick:true ~flops:tune_flops ~run:(tune_run Sys.time) ()

(* Full sweep plus a dispatch-overhead measurement on a 2-domain pool,
   for `morpheus tune` and the Cost calibration. Sets (but does not
   persist) the winning profile; returns it with the timing table. *)
let autotune ?(quick = false) ?(now = Sys.time) () =
  let best, table = Tune.sweep ~quick ~flops:tune_flops ~run:(tune_run now) () in
  let dispatch_overhead =
    Flops.with_disabled (fun () ->
        let e = Exec.par ~domains:2 in
        let arr = Array.make 1024 0.0 in
        let body lo hi =
          for i = lo to hi - 1 do
            Array.unsafe_set arr i (Array.unsafe_get arr i +. 1.0)
          done
        in
        Exec.parallel_for ~min_chunk:1 e ~lo:0 ~hi:1024 body ;
        let reps = 100 in
        let t0 = now () in
        for _ = 1 to reps do
          Exec.parallel_for ~min_chunk:1 e ~lo:0 ~hi:1024 body
        done ;
        let dt = now () -. t0 in
        Exec.shutdown e ;
        max 0.0 (dt /. float_of_int reps))
  in
  let best = { best with Tune.dispatch_overhead } in
  Tune.set best ;
  (best, table)

let gemm_into ?exec ?beta a b ~c = gemm_into_p ~p:(profile ()) ?exec ?beta a b ~c

(* C = A * B. The pure kernel is [gemm_into ~beta:0.] into a fresh C,
   so both are bitwise identical by construction. *)
let gemm ?exec a b =
  if Dense.cols a <> Dense.rows b then dim_error "gemm" a b ;
  let c = Dense.create (Dense.rows a) (Dense.cols b) in
  gemm_into ?exec ~beta:0.0 a b ~c ;
  c

(* C = Aᵀ * B, without materializing Aᵀ: a reduction over A's rows. Each
   chunk runs the blocked driver over its own depth range [lo, hi) —
   ascending, so per-cell order within a chunk matches the reference —
   and the canonical reduce grid combines partials as before. *)
let tgemm ?exec a b =
  let ka = Dense.rows a and m = Dense.cols a in
  let kb = Dense.rows b and n = Dense.cols b in
  if ka <> kb then dim_error "tgemm" a b ;
  Flops.addf (2.0 *. float_of_int m *. float_of_int ka *. float_of_int n) ;
  if ka = 0 then Dense.create m n
  else begin
    let p = profile () in
    let ad = Dense.data a and bd = Dense.data b in
    let pack_a = pack_a_trans ad m and pack_b = pack_b_panel bd n in
    let body lo hi =
      let c = Dense.create m n in
      blocked ~p ~tri:false (Dense.data c) n ~rlo:0 ~rhi:m ~klo:lo ~khi:hi
        ~clo:0 ~chi:n ~pack_a ~pack_b ;
      c
    in
    Exec.reduce (Exec.resolve exec) ~lo:0 ~hi:ka ~body ~combine:add_into
  end

(* C = A * Bᵀ, without materializing Bᵀ. *)
let gemm_nt ?exec a b =
  let m = Dense.rows a and ka = Dense.cols a in
  let n = Dense.rows b and kb = Dense.cols b in
  if ka <> kb then dim_error "gemm_nt" a b ;
  Flops.addf (2.0 *. float_of_int m *. float_of_int ka *. float_of_int n) ;
  let p = profile () in
  let c = Dense.create m n in
  let ad = Dense.data a and bd = Dense.data b and cd = Dense.data c in
  let body lo hi =
    dot_blocked ~p ~sym:false ad ka bd kb cd n ~rlo:lo ~rhi:hi ~cols:n ~kk:ka
  in
  Exec.parallel_for
    ~min_chunk:(min_rows ~grain:p.Tune.grain (2 * ka * n))
    (Exec.resolve exec) ~lo:0 ~hi:m body ;
  c

(* crossprod(A) = Aᵀ A, exploiting symmetry: only the upper triangle is
   computed, then mirrored. This is the ~(1/2) n d² saving the paper's
   Algorithm 2 relies on when it calls crossprod(S) instead of SᵀS. *)
let crossprod ?exec a =
  let n = Dense.rows a and d = Dense.cols a in
  Flops.addf (float_of_int n *. float_of_int d *. float_of_int (d + 1)) ;
  if n = 0 then Dense.create d d
  else begin
    let p = profile () in
    let ad = Dense.data a in
    let pack_a = pack_a_trans ad d and pack_b = pack_b_panel ad d in
    let body lo hi =
      let c = Dense.create d d in
      blocked ~p ~tri:true (Dense.data c) d ~rlo:0 ~rhi:d ~klo:lo ~khi:hi
        ~clo:0 ~chi:d ~pack_a ~pack_b ;
      c
    in
    let c = Exec.reduce (Exec.resolve exec) ~lo:0 ~hi:n ~body ~combine:add_into in
    mirror_lower c d ;
    c
  end

(* Aᵀ diag(w) A — the weighted cross-product at the heart of the paper's
   efficient rewrite (Algorithm 2): crossprod(diag(colSums K)^(1/2) R)
   is computed here directly as Rᵀ diag(counts) R without forming the
   scaled copy of R. The weight product happens while packing the
   A-side panel (see {!pack_a_trans_w}), preserving the reference's
   zero-weight row-skip bit-for-bit. *)
let weighted_crossprod ?exec a w =
  let n = Dense.rows a and d = Dense.cols a in
  if Array.length w <> n then
    invalid_arg "Blas.weighted_crossprod: weight length mismatch" ;
  Flops.addf (float_of_int n *. float_of_int d *. float_of_int (d + 2)) ;
  if n = 0 then Dense.create d d
  else begin
    let p = profile () in
    let ad = Dense.data a in
    let pack_a = pack_a_trans_w ad d w and pack_b = pack_b_panel ad d in
    let body lo hi =
      let c = Dense.create d d in
      blocked ~p ~tri:true (Dense.data c) d ~rlo:0 ~rhi:d ~klo:lo ~khi:hi
        ~clo:0 ~chi:d ~pack_a ~pack_b ;
      c
    in
    let c = Exec.reduce (Exec.resolve exec) ~lo:0 ~hi:n ~body ~combine:add_into in
    mirror_lower c d ;
    c
  end

(* tcrossprod(A) = A Aᵀ (the Gram matrix when rows are examples). Rows
   [i] of the output (and their mirror column) are disjoint across
   tasks, so this partitions output rows like gemm. *)
let tcrossprod ?exec a =
  let n = Dense.rows a and d = Dense.cols a in
  Flops.addf (float_of_int n *. float_of_int (n + 1) *. float_of_int d) ;
  let p = profile () in
  let c = Dense.create n n in
  let ad = Dense.data a and cd = Dense.data c in
  let body lo hi =
    dot_blocked ~p ~sym:true ad d ad d cd n ~rlo:lo ~rhi:hi ~cols:n ~kk:d
  in
  Exec.parallel_for
    ~min_chunk:(min_rows ~grain:p.Tune.grain (n * d))
    (Exec.resolve exec) ~lo:0 ~hi:n body ;
  c

(* y ← A·x + beta·y for plain float-array vectors. Four-row register
   tiling shares each x load across rows; per row the j-ascending
   accumulation and the final beta formula are the reference's. The
   dot-product body is shared with [gemv] (which is [gemv_into
   ~beta:0.] into a fresh y), so both are bitwise identical. [y] must
   not alias [x]. *)
let gemv_into ?exec ?(beta = 0.0) a x ~y =
  let m = Dense.rows a and k = Dense.cols a in
  if Array.length x <> k then invalid_arg "Blas.gemv_into: dim mismatch" ;
  if Array.length y <> m then
    invalid_arg "Blas.gemv_into: output dim mismatch" ;
  Flops.add (2 * m * k) ;
  let p = profile () in
  let ad = Dense.data a in
  let store i acc =
    y.(i) <-
      (if beta = 0.0 then acc
       else if beta = 1.0 then y.(i) +. acc
       else (beta *. y.(i)) +. acc)
  in
  let body lo hi =
    let i = ref lo in
    while hi - !i >= 4 do
      let b0 = !i * k in
      let b1 = b0 + k in
      let b2 = b1 + k in
      let b3 = b2 + k in
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      for j = 0 to k - 1 do
        let xv = Array.unsafe_get x j in
        s0 := !s0 +. (Array.unsafe_get ad (b0 + j) *. xv) ;
        s1 := !s1 +. (Array.unsafe_get ad (b1 + j) *. xv) ;
        s2 := !s2 +. (Array.unsafe_get ad (b2 + j) *. xv) ;
        s3 := !s3 +. (Array.unsafe_get ad (b3 + j) *. xv)
      done ;
      store !i !s0 ;
      store (!i + 1) !s1 ;
      store (!i + 2) !s2 ;
      store (!i + 3) !s3 ;
      i := !i + 4
    done ;
    while !i < hi do
      let base = !i * k in
      let acc = ref 0.0 in
      for j = 0 to k - 1 do
        acc := !acc +. (Array.unsafe_get ad (base + j) *. Array.unsafe_get x j)
      done ;
      store !i !acc ;
      i := !i + 1
    done
  in
  Exec.parallel_for
    ~min_chunk:(min_rows ~grain:p.Tune.grain (2 * k))
    (Exec.resolve exec) ~lo:0 ~hi:m body

(* y = A x for a plain float-array vector x. *)
let gemv ?exec a x =
  let y = Array.make (Dense.rows a) 0.0 in
  gemv_into ?exec ~beta:0.0 a x ~y ;
  y

let dot x y =
  if Array.length x <> Array.length y then invalid_arg "Blas.dot" ;
  Flops.add (2 * Array.length x) ;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done ;
  !acc
