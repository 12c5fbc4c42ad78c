(* Shared infrastructure for the paper-reproduction benches: timing both
   execution paths, printing paper-style tables, and the global scale
   knob (--quick shrinks every workload; ratios are preserved). *)

open Workload

type config = {
  quick : bool; (* smaller grids and sizes *)
  runs : int; (* timed repetitions (median) *)
  runtimes : bool; (* print absolute runtimes alongside speed-ups *)
  force : bool;
      (* overwrite committed BENCH_*.json even when the host would
         produce unrepresentative numbers (e.g. one core online) *)
}

let default = { quick = false; runs = 3; runtimes = false; force = false }

let mode cfg = if cfg.quick then "quick" else "full"

(* ---- committed reports ---- *)

(* Refusal reason for benches that measure parallelism: a single-core
   host measures none, and flat numbers would read as a regression. *)
let single_core () =
  let cores = Domain.recommended_domain_count () in
  if cores <= 1 then
    Some (Printf.sprintf "host exposes only %d core online" cores)
  else None

(* Refusal reason for a quick run over a full-mode report: quick mode
   runs a smaller, different workload. A report without a recorded
   mode predates the field and was a full run. *)
let quick_over_full cfg path =
  let recorded_quick () =
    let s = In_channel.with_open_text path In_channel.input_all in
    let needle = "\"mode\": \"quick\"" in
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length s && (String.sub s i n = needle || scan (i + 1))
    in
    scan 0
  in
  if cfg.quick && not (recorded_quick ()) then
    Some "this quick run would replace full-mode numbers"
  else None

(* The provenance fields that open a committed report's JSON object
   (indented, comma-terminated line): which experiment, quick or full
   mode, and how many cores the host exposed. *)
let provenance cfg ~experiment =
  Printf.sprintf "  \"experiment\": %S, \"mode\": %S, \"cores_online\": %d,\n"
    experiment (mode cfg)
    (Domain.recommended_domain_count ())

(* Write a committed BENCH_*.json in the current directory, unless it
   exists and [refuse] (evaluated only then) gives a reason not to
   replace it; --force overrides. *)
let write_report cfg ~path ~refuse contents =
  let refusal =
    if cfg.force || not (Sys.file_exists path) then None else refuse ()
  in
  match refusal with
  | Some why ->
    Printf.printf
      "\nWARNING: %s; NOT overwriting the committed %s (re-run with --force \
       to override)\n"
      why path
  | None ->
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents) ;
    Printf.printf "\nwrote %s\n" path

(* Median-of-runs timing for the two paths of one operator instance. *)
let time_fm cfg ~f ~m =
  let tf = Timing.measure ~warmup:1 ~runs:cfg.runs f in
  let tm = Timing.measure ~warmup:1 ~runs:cfg.runs m in
  (tf, tm)

let speedup_cell sp =
  (* the paper's Figure 3 buckets *)
  if sp < 1.0 then Printf.sprintf "%5.2f." sp
  else if sp < 2.0 then Printf.sprintf "%5.2f-" sp
  else if sp < 3.0 then Printf.sprintf "%5.2f+" sp
  else Printf.sprintf "%5.2f*" sp

let hrule width = String.make width '-'

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let legend () =
  print_endline
    "cells are F-over-M speed-ups; buckets as in Fig 3: '.' <1, '-' 1-2, '+' 2-3, '*' >3"

(* Print a TR×FR-style grid of speed-ups. *)
let grid ~row_label ~col_label ~rows ~cols cell =
  Printf.printf "%8s \\ %s\n" row_label col_label ;
  Printf.printf "%8s" "" ;
  List.iter (fun c -> Printf.printf " %8s" c) cols ;
  print_newline () ;
  List.iteri
    (fun i r ->
      Printf.printf "%8s" r ;
      List.iteri (fun j _ -> Printf.printf " %8s" (cell i j)) cols ;
      print_newline ())
    rows

let pp_time = Timing.pp_seconds

(* Fixed-width rendering for table cells. *)
let ts s =
  if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

(* ---- allocation columns (the memo/in-place bench) ---- *)

(* Word counts rendered like times: per-iteration minor/major heap
   words, scaled to k/M for readability. *)
let words w =
  if w < 1e3 then Printf.sprintf "%.0fw" w
  else if w < 1e6 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.2fMw" (w /. 1e6)

(* Time + allocation of [f], respecting the config's run count. *)
let measure_alloc cfg f = Timing.measure_alloc ~warmup:1 ~runs:cfg.runs f

let alloc_header () =
  Printf.printf "%-28s %10s %10s %10s %10s\n" "variant" "time" "minor"
    "major" "promoted"

let alloc_row name (a : Timing.alloc) =
  Printf.printf "%-28s %10s %10s %10s %10s\n" name (ts a.Timing.seconds)
    (words a.Timing.minor_words)
    (words a.Timing.major_words)
    (words a.Timing.promoted_words)
