(* The repository benchmark: one command, four workloads, every output
   checked. BENCHMARK.json at the repository root lists the workloads
   and metrics, and perfbench/README.md what each metric should move.

     perfbench --workload W --seed N --seconds S --trace 0|1
               [--smoke] [--bin PATH] [--out DIR]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
   metrics are the end-to-end set, with --trace 1 the per-layer set.
   The lines before it are a human-readable report (provenance, the
   raw per-workload figures, the shape census). A full
   record of the run is written under DIR/full/ (or DIR/smoke/ in smoke
   mode, so a smoke run never replaces a full-mode record). *)

let workloads = [ "train-dense"; "train-sparse"; "serve-ids"; "serve-mixed" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (train-dense|train-sparse|serve-ids|serve-mixed) --seed N \
     --seconds S --trace 0|1 [--smoke] [--bin PATH] [--out DIR]" ;
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  bin : string;
  out : string;
}

let parse_args () =
  let a =
    ref { workload = ""; seed = -1; seconds = -1.0; traced = false; smoke = false;
          bin = "_build/default/bin/morpheus_cli.exe"; out = "_perfbench" }
  in
  let rec go = function
    | "--workload" :: w :: rest -> a := { !a with workload = w } ; go rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> a := { !a with seed = n } ; go rest
      | _ -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some x when x > 0.0 -> a := { !a with seconds = x } ; go rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> a := { !a with traced = t = "1" } ; go rest
    | "--smoke" :: rest -> a := { !a with smoke = true } ; go rest
    | "--bin" :: b :: rest -> a := { !a with bin = b } ; go rest
    | "--out" :: o :: rest -> a := { !a with out = o } ; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv)) ;
  if not (List.mem !a.workload workloads) || !a.seed < 0 || !a.seconds <= 0.0 then usage () ;
  !a

(* The checkout the benchmark runs in need not be a git repository, so
   the provenance carries a digest of the sources next to the git
   revision (when there is one). *)
let git_rev () =
  let read p =
    try Some (String.trim (In_channel.with_open_text p In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
    let ref_ = String.sub head 5 (String.length head - 5) in
    Option.value ~default:"unknown" (read (Filename.concat ".git" ref_))
  | Some rev -> rev
  | None -> "none"

let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun n ->
           let p = Filename.concat dir n in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" || n = "dune"
           then [ p ]
           else [])
  in
  let all =
    List.concat_map (fun d -> if Sys.file_exists d then files d else []) [ "lib"; "bin"; "perfbench" ]
  in
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) all)))

(* The metrics BENCHMARK.json declares, as (name, unit) lists: the one
   place that fixes which metrics a run prints, and in what order. *)
let declared () =
  let module Json = Morpheus_serve.Json in
  let fail msg =
    prerr_endline ("perfbench: BENCHMARK.json: " ^ msg) ;
    exit 2
  in
  let text =
    try In_channel.with_open_text "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> fail e
  in
  let j = match Json.of_string text with Ok j -> j | Error e -> fail e in
  let metrics key =
    match Option.bind (Json.member key j) Json.to_list with
    | None -> fail ("no " ^ key ^ " list")
    | Some l ->
      List.map
        (fun m ->
          let field k = Option.bind (Json.member k m) Json.to_str in
          match (field "name", field "unit") with
          | Some n, Some u -> (n, u)
          | _ -> fail ("a " ^ key ^ " entry lacks a name or unit"))
        l
  in
  (metrics "end_to_end", metrics "per_layer")

(* The declared metrics in declared order. A metric the workload reports
   but BENCHMARK.json does not declare, or reports in another unit, makes
   the run invalid; a declared one it does not report is [missing]. *)
let select r declared reported ~missing =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.Report.name declared) then
        Report.invalidate r ("metric " ^ m.Report.name ^ " is not declared in BENCHMARK.json"))
    reported ;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Report.name = name) reported with
      | Some m ->
        if m.Report.unit_ <> unit_ then
          Report.invalidate r
            (Printf.sprintf "metric %s in %s, declared in %s" name m.Report.unit_ unit_) ;
        m
      | None -> missing name unit_)
    declared

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d) ;
    Sys.mkdir d 0o755
  end

let jstr s = Morpheus_serve.Json.to_string (Morpheus_serve.Json.Str s)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (jstr m.Report.name)
           (if Float.is_finite m.Report.value then Printf.sprintf "%.17g" m.Report.value else "null")
           (jstr m.Report.unit_))
       ms)

let () =
  let a = parse_args () in
  let e2e_declared, layer_declared = declared () in
  let r = Report.create () in
  let mode = if a.smoke then "smoke" else "full" in
  let provenance =
    [ ("workload", a.workload); ("seed", string_of_int a.seed); ("mode", mode);
      ("seconds", Printf.sprintf "%g" a.seconds); ("trace", if a.traced then "1" else "0");
      ("git_rev", git_rev ()); ("source_digest", source_digest ());
      ("cores_online", string_of_int (Domain.recommended_domain_count ()));
      ("exec_domains", string_of_int (La.Exec.domains (La.Exec.default ())));
      ("tune_profile", La.Tune.describe (La.Tune.current ()));
      ("ocaml", Sys.ocaml_version) ]
  in
  let dir = Filename.concat a.out mode in
  mkdir_p dir ;
  let scratch = Filename.concat dir (Printf.sprintf "%s-seed%d.tmp" a.workload a.seed) in
  let train shape = Train.run ~smoke:a.smoke ~seed:a.seed ~seconds:a.seconds ~traced:a.traced ~shape r in
  (match a.workload with
  | "train-dense" -> train `Dense
  | "train-sparse" -> train `Sparse
  | w ->
    Serve.run ~smoke:a.smoke ~seed:a.seed ~seconds:a.seconds ~traced:a.traced ~bin:a.bin
      ~scratch ~mixed:(w = "serve-mixed") r) ;
  if a.traced then begin
    Report.line r "self time by span (name: spans, ms):" ;
    List.iter
      (fun (name, n, t) -> Report.line r "  %s: %d, %.3f" name n (t *. 1e3))
      (Trace.self_times ())
  end ;
  let metrics =
    if a.traced then
      (* a layer the workload does not exercise reads 0 *)
      select r layer_declared (List.rev r.Report.layer) ~missing:(fun name unit_ ->
          { Report.name; value = 0.0; unit_ })
    else begin
      Report.e2e r "success_ratio" "ratio"
        (float_of_int (r.Report.attempted - r.Report.failed)
        /. float_of_int (max 1 r.Report.attempted)) ;
      select r e2e_declared (List.rev r.Report.e2e) ~missing:(fun name unit_ ->
          { Report.name; value = nan; unit_ })
    end
  in
  let bad = List.filter (fun m -> not (Float.is_finite m.Report.value)) metrics in
  List.iter (fun m -> Report.invalidate r ("metric " ^ m.Report.name ^ " was not measured")) bad ;
  let correct = r.Report.failed = 0 && r.Report.invalid = [] in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) provenance ;
  List.iter (fun l -> Printf.printf "# %s\n" l) (List.rev r.Report.lines) ;
  List.iter (fun why -> Printf.printf "# INVALID: %s\n" why) (List.rev r.Report.invalid) ;
  List.iter
    (fun m -> Printf.printf "# %-40s %16.6f %s\n" m.Report.name m.Report.value m.Report.unit_)
    metrics ;
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
      r.Report.attempted (r.Report.failed + List.length r.Report.invalid) (json_metrics metrics)
  in
  let base =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-trace%d" a.workload a.seed (if a.traced then 1 else 0))
  in
  Out_channel.with_open_text (base ^ ".json") (fun oc ->
      Printf.fprintf oc
        "{\"provenance\": {%s},\n \"invalid\": [%s],\n \"report\": [%s],\n \"result\": %s}\n"
        (String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ jstr v) provenance))
        (String.concat ", " (List.map jstr r.Report.invalid))
        (String.concat ",\n  " (List.map jstr (List.rev r.Report.lines)))
        result) ;
  List.iter (fun (suffix, write) -> write (base ^ "-" ^ suffix)) r.Report.files ;
  print_endline result
