(** A small thread-safe LRU cache of loaded values keyed by string —
    the server's cache of normalized datasets ({!Morpheus.Io.load} is
    many orders of magnitude slower than a factorized scoring pass, so
    repeated requests against the same dataset must not reload it), and
    inside each cached dataset the cache of its prepared scorers.
    Generic so tests can cache counters instead of datasets. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] ≥ 1. *)

val get : 'a t -> string -> load:(string -> 'a) -> 'a
(** Hit: O(capacity), promotes the key to most-recently-used. Miss:
    runs [load key] with the cache locked (its exceptions propagate and
    nothing is cached), inserts, evicts the least-recently-used entry
    when over capacity. *)

val find : 'a t -> string -> 'a option
(** A lookup counted like {!get}'s (hit promotes), without loading. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (replacing any value under the key) as most-recently-used,
    evicting like {!get}. With {!find}, for values built without the
    cache locked — e.g. when building runs a parallel kernel. *)

val mem : 'a t -> string -> bool
(** Without promoting. *)

val keys : 'a t -> string list
(** Most-recently-used first. *)

val values : 'a t -> 'a list
(** Most-recently-used first. *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
val length : 'a t -> int
val capacity : 'a t -> int

val clear : 'a t -> unit
