(* In-memory span recorder. Spans are taken from the benchmark's own code
   around calls into the repo's libraries, kept in memory while the run
   measures, and written out once at the end. Recording is off unless
   the run was started with --trace 1. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0 = root *)
  req : int;  (** request (or iteration) the span belongs to; 0 = none *)
  shape : (int * int * int) option;
      (** (m, k, n) of a product A(m×k)·B(k×n), for the shape census *)
}

let on = ref false
let spans = ref []
let next = ref 0
let lock = Mutex.create ()

let fresh_id () =
  Mutex.lock lock ;
  incr next ;
  let id = !next in
  Mutex.unlock lock ;
  id

let add ?id ?(parent = 0) ?(req = 0) ?shape name start stop =
  if !on then begin
    let id = match id with Some i -> i | None -> fresh_id () in
    Mutex.lock lock ;
    spans := { id; name; start; stop; parent; req; shape } :: !spans ;
    Mutex.unlock lock
  end

let all () = List.rev !spans

let dur s = s.stop -. s.start

(* Self time per span name, as (name, spans, seconds) by descending
   time: a span's duration minus what its direct children cover. *)
let self_times () =
  let children = Hashtbl.create 64 in
  let covered id = Option.value ~default:0.0 (Hashtbl.find_opt children id) in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.replace children s.parent (dur s +. covered s.parent))
    !spans ;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. covered s.id in
      let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, t +. self))
    !spans ;
  Hashtbl.fold (fun name (n, t) l -> (name, n, t) :: l) acc []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let write_jsonl path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"req\":%d%s}\n"
            s.id s.name s.start s.stop s.parent s.req
            (match s.shape with
            | Some (m, k, n) -> Printf.sprintf ",\"m\":%d,\"k\":%d,\"n\":%d" m k n
            | None -> ""))
        (all ()))

(* Kernel shape census: calls and seconds per (op, m, k, n). *)
let census () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match s.shape with
      | Some (m, k, n) ->
        let key = (s.name, m, k, n) in
        let c, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (c + 1, t +. dur s)
      | None -> ())
    !spans ;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)

let write_census path rows =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n" ;
      List.iteri
        (fun i ((op, m, k, n), (calls, secs)) ->
          Printf.fprintf oc
            "  {\"op\":%S,\"m\":%d,\"k\":%d,\"n\":%d,\"calls\":%d,\"ms\":%.6f}%s\n" op m
            k n calls (secs *. 1e3)
            (if i = List.length rows - 1 then "" else ","))
        rows ;
      output_string oc "]\n")
