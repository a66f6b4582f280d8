(** Timeline spans: per-domain, append-only buffers of timestamped
    begin/end intervals over the driver stack — the one event store of
    the observability layer.

    Where {!Metrics} answers "how much, in total", Span answers "when,
    and on which domain": every instrumented region ([Analyze] phases,
    per-pair driver work, Delta passes, Banerjee hierarchy evaluations,
    engine worker loops) becomes one interval on the shared monotonic
    clock ({!Clock.now_ns}). With [~explain:true] it also answers "why,
    step by step" ({!explain}; rendered by {!Trace}).

    The discipline matches the rest of the observability layer: the
    driver threads a [t option] and checks it once per region — with
    [None] end to end, no clock is read and nothing is allocated
    ({!with_} on [None] is just a call of the thunk).

    Concurrency contract: a buffer belongs to exactly one domain (the
    engine hands worker [w] the buffer for domain [w]); only the
    {!profiler} registry is mutex-protected. After the parallel region
    has joined, {!spans} merges the buffers deterministically in
    domain-id order. *)

type args = ..
(** The payload of an {!Explain} instant. {!Trace} adds the explain
    events to it, so Span stores them without depending on their type. *)

type kind =
  | Analyze  (** one whole [Analyze.run] *)
  | Enumerate  (** reference-pair enumeration *)
  | Test_phase  (** the (possibly parallel) pair-testing loop *)
  | Orient  (** the sequential direction-vector orientation pass *)
  | Pair  (** one reference pair through the §3 driver *)
  | Partition  (** subscript classification + partitioning *)
  | Test of Test_kind.t  (** one dependence test application *)
  | Delta  (** one coupled group through the Delta test (§5) *)
  | Delta_pass  (** one Delta constraint-propagation pass *)
  | Banerjee  (** one Banerjee-GCD direction-vector hierarchy (§4.4) *)
  | Merge  (** per-pair direction-vector merge *)
  | Parse  (** frontend parse + lowering *)
  | Worker  (** one engine worker's whole loop *)
  | Task  (** one grain-sized work leaf executed by a worker *)
  | Queue_wait  (** a worker acquiring work (pop, steal, backoff) *)
  | Shard  (** one routine analyzed as a unit by a batched run *)
  | Steal  (** instant: a range taken from another worker's deque *)
  | Request
      (** one whole daemon request (serve): the root every other span of
          a request-scoped capture nests under *)
  | Explain of args
      (** instant: one explain step, recorded only by an explain-on
          profiler (see {!explain}) *)

val kind_name : kind -> string
(** Stable slug, e.g. ["test:strong_siv"], ["queue-wait"] — the span
    name in both exporters ({!Timeline}). *)

type span = {
  kind : kind;
  domain : int;  (** the buffer's domain id (engine worker id) *)
  parent : int;  (** index into the merged {!spans} array, [-1] = root *)
  t0_ns : int64;
  t1_ns : int64;
  minor_words : float;  (** Gc minor-word delta; [0.] unless [gc] *)
  major_words : float;
}

val dur_ns : span -> int64

type t
(** One domain's buffer. Not thread-safe — single-writer by design. *)

val enter : t -> kind -> int
(** Open a span: records the begin timestamp, parents it under the
    innermost open span, returns the slot to pass to {!exit_}. *)

val exit_ : t -> int -> unit
(** Close the span opened as [slot]: records the end timestamp (and Gc
    deltas) and pops it. Spans still open when the buffer is dumped are
    dropped by {!spans}. *)

val record : t -> kind -> t0_ns:int64 -> t1_ns:int64 -> unit
(** Append an already-measured leaf span (the driver times the exact
    test kernels itself and reports them after the fact). Parented
    under the innermost open span. *)

val explaining : t option -> bool
(** Whether {!explain} records into this buffer. Emission sites test it
    before building a payload, so a run without explain allocates
    nothing for it. *)

val explain : t option -> args -> unit
(** Record one explain step as an {!Explain} instant under the innermost
    open span; a no-op unless {!explaining}. *)

val with_ : t option -> kind -> (unit -> 'a) -> 'a
(** [with_ (Some b) k f] runs [f] inside an [enter]/[exit_] bracket
    (exception-safe); [with_ None k f] is [f ()] — no clock read, no
    allocation. *)

type profiler
(** The shared registry of per-domain buffers for one profiled run. *)

val profiler : ?gc:bool -> ?explain:bool -> unit -> profiler
(** [gc] (default off) turns on Gc word-delta sampling in every buffer;
    [explain] (default off) turns on {!explain} recording. *)

val buffer : profiler -> domain:int -> t
(** The buffer for [domain], created on first request. Safe to call from
    any domain; returns the same buffer for the same id. *)

val spans : profiler -> span array
(** Merge all buffers into one array, buffers in domain-id order, each
    buffer's spans in its append order — deterministic for a given set
    of buffer contents. [parent] fields are re-indexed into the merged
    array; unclosed spans are dropped and their children re-parented to
    the nearest closed ancestor. *)
