(* What one run produces: operation accounting, end-to-end metrics (the
   untraced run), per-layer metrics (the traced run), and free-form
   report lines for the human-readable part of the output. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable invalid : string list;  (** reasons the run is not valid *)
  mutable e2e : metric list;
  mutable layer : metric list;
  mutable lines : string list;
  mutable files : (string * (string -> unit)) list;
      (** extra artifacts: file suffix and writer *)
}

let create () =
  { attempted = 0; failed = 0; invalid = []; e2e = []; layer = []; lines = []; files = [] }

let e2e r name unit_ value = r.e2e <- { name; value; unit_ } :: r.e2e
let layer r name unit_ value = r.layer <- { name; value; unit_ } :: r.layer
let line r fmt = Printf.ksprintf (fun s -> r.lines <- s :: r.lines) fmt

let op r ok =
  r.attempted <- r.attempted + 1 ;
  if not ok then r.failed <- r.failed + 1

(* Every check failure is one failed operation, and says why on stderr. *)
let check r what ok =
  op r ok ;
  if not ok then Printf.eprintf "check failed: %s\n%!" what

let invalidate r why = r.invalid <- why :: r.invalid
