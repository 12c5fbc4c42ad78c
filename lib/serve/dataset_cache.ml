(* LRU cache as a recency-ordered association list under a mutex. The
   capacity is single digits (loaded datasets are large), so O(n)
   list surgery is noise next to what a hit saves. [get] holds the lock
   across [load] on a miss: concurrent readers of a cold key then wait
   instead of loading the same value twice. [find] + [add] are for
   values that must be built outside the lock. *)

type 'a t = {
  m : Analysis.Sync.t;
  capacity : int;
  mutable entries : (string * 'a) list;  (* most-recently-used first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Dataset_cache.create: capacity < 1" ;
  { m = Analysis.Sync.create ~name:"serve.dataset_cache" ();
    capacity;
    entries = [];
    hits = 0;
    misses = 0;
    evictions = 0
  }

let locked t f =
  Analysis.Sync.lock t.m ;
  Fun.protect ~finally:(fun () -> Analysis.Sync.unlock t.m) f

(* Both with the lock held. *)
let lookup t key =
  match List.assoc_opt key t.entries with
  | Some v ->
    t.hits <- t.hits + 1 ;
    t.entries <- (key, v) :: List.remove_assoc key t.entries ;
    Some v
  | None ->
    t.misses <- t.misses + 1 ;
    None

let insert t key v =
  let entries = (key, v) :: List.remove_assoc key t.entries in
  let n = List.length entries in
  if n > t.capacity then begin
    t.evictions <- t.evictions + (n - t.capacity) ;
    t.entries <- List.filteri (fun i _ -> i < t.capacity) entries
  end
  else t.entries <- entries

let get t key ~load =
  locked t (fun () ->
      match lookup t key with
      | Some v -> v
      | None ->
        (* a failed load caches nothing: the exception propagates and
           the next lookup retries *)
        let v = load key in
        insert t key v ;
        v)

let find t key = locked t (fun () -> lookup t key)
let add t key v = locked t (fun () -> insert t key v)
let mem t key = locked t (fun () -> List.mem_assoc key t.entries)
let keys t = locked t (fun () -> List.map fst t.entries)
let values t = locked t (fun () -> List.map snd t.entries)
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let length t = locked t (fun () -> List.length t.entries)
let capacity t = t.capacity
let clear t = locked t (fun () -> t.entries <- [])
