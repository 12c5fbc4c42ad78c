(** Micro-batching: concurrent scoring requests against the same model
    (and dataset) coalesce into one fused execution — for factorized
    scoring, one [select_rows] + one prepared-scorer product and gather
    ({!Artifact.score_rows}) instead of N. With the [Rᵢ]-side work
    prepared once per model and dataset, merging saves only per-batch
    fixed costs, which is why the linger is capped at what a batch
    costs to run.

    Generic over key, payload, and result so the deadline/shedding
    semantics are testable with an injected (slow, failing, counting)
    executor. A batch only ever contains requests with equal keys, in
    submission order, so results are deterministic given an order of
    arrival — and bitwise-identical to scoring each request alone,
    because every scoring path accumulates output rows independently. *)

type error =
  | Overloaded  (** shed at submission: the queue was at its bound *)
  | Deadline_exceeded  (** still queued when its deadline passed *)
  | Expired
      (** shed at batch formation: the remaining budget is smaller
          than the current batch-execution ewma, so the request cannot
          finish in time — refused rather than answered late *)
  | Rejected of string  (** the executor failed this batch *)

val error_code : error -> string
(** Protocol error code: ["overloaded"], ["deadline_exceeded"],
    ["expired"], ["rejected"]. *)

type ('k, 'a, 'b) t

val create :
  ?max_batch:int ->
  ?max_wait:float ->
  ?queue_bound:int ->
  metrics:Metrics.t ->
  size:('a -> int) ->
  exec:('k -> 'a array -> ('b, string) result array) ->
  unit ->
  ('k, 'a, 'b) t
(** Starts the batching thread. A batch closes when [max_batch]
    same-key requests are pending (default 64) or the oldest of them
    has lingered [min max_wait e] seconds, where [e] is the recent
    execution time of batches with that key (an ewma; before the key's
    first batch, [max_wait] alone): waiting longer than a batch costs
    to run loses the head more latency than merging can save, and a
    key whose batches are cheap does not shorten the linger of one
    whose batches are expensive. [max_wait] defaults to 2ms; 0
    means "whatever is queued right now". [queue_bound] (default 1024) is the shedding
    threshold on pending requests. [size] reports a request's row count
    for the batch metrics. [exec] receives equal-key payloads in
    submission order and returns one result per payload — per-request
    [Error]s become {!Rejected} for that request only; a length
    mismatch or a raised exception rejects the whole batch. It runs on
    the batching thread only, so a single-caller kernel substrate
    ({!La.Pool}) is safe. *)

val submit : ('k, 'a, 'b) t -> ?deadline:float -> 'k -> 'a -> ('b, error) result
(** Blocks the calling thread until its batch executes. [deadline] is
    an absolute [Unix.gettimeofday] instant checked at batch formation:
    a request whose deadline passed while queued is dropped without
    being scored. A deadline cannot abort a batch already executing. *)

val pending : ('k, 'a, 'b) t -> int

val stop : ('k, 'a, 'b) t -> unit
(** Drain: already-queued requests still execute, new submissions are
    rejected; returns after the batching thread exits. Idempotent. *)
