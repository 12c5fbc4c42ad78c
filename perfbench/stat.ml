(* Order statistics over measured samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a ;
  a

(* Linear interpolation between closest ranks (the R-7 / numpy default),
   on an already sorted array. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let sum a = Array.fold_left ( +. ) 0.0 a

(* The highest percentile of the ladder that leaves at least ten samples
   beyond it, so a tail figure never rests on fewer than ten
   observations. Returns (q, value); falls back to the median. *)
let tail a =
  let n = float_of_int (Array.length a) in
  let q =
    match List.find_opt (fun q -> n *. (1.0 -. q) >= 10.0) [ 0.999; 0.99; 0.95; 0.9; 0.75 ] with
    | Some q -> q
    | None -> 0.5
  in
  (q, quantile a q)

let geomean l =
  match l with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

(* Bitwise equality of float arrays: NaN payloads and signed zeros
   count, which structural (=) on floats would blur. *)
let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a ;
      !ok)

let dense_bits_equal x y =
  La.Dense.dims x = La.Dense.dims y && bits_equal (La.Dense.data x) (La.Dense.data y)

(* Peak resident set (VmHWM) of a process, in MB; [None] when /proc
   does not expose it. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
             | [] -> None)
           | _ -> None)

(* Host-speed calibration. A shared 2-vCPU cloud VM was measured to
   drift in speed by up to ±30 % over seconds (a plain arithmetic loop
   shows it as much as the kernels do), which swamps any change worth
   gating. [probe] times a fixed loop over a 3.2 MB array that touches
   none of the repository's code; [calibrate] rescales a measured
   interval to the speed at which the probe takes [nominal] seconds,
   using the probes taken right before and after it. *)
let nominal = 0.0025
let probe_buf = Array.init 400_000 (fun i -> float_of_int (i land 1023))

let probe () =
  let t0 = Workload.Timing.now () in
  let acc = ref 0.0 in
  Array.iter (fun x -> acc := (!acc *. 0.999) +. x) probe_buf ;
  ignore (Sys.opaque_identity !acc) ;
  Workload.Timing.now () -. t0

let calibrate dt ~before ~after = dt *. nominal /. ((before +. after) /. 2.0)

(* Set-ups per run; [setup_s] is their median. *)
let setup_reps = 5
