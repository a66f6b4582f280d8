(** The explain vocabulary of the dependence-test driver and its two
    renderings.

    The driver ([Analyze] / [Pair_test] / [Delta] in the core library)
    records one typed {!event} per step as a {!Span.Explain} instant
    ({!Step}) in the emitting worker's span buffer; nothing is
    recorded unless the {!Span.profiler} was created with
    [~explain:true]. The nesting comes from the enclosing spans: one
    level per enclosing {!Span.Pair} or {!Span.Delta} span.

    {v
    pair A S1 -> S2                         (Pair_start, from Analyze)
      partition: ...                        (Partitioned, from Pair_test)
      strong SIV <I+1, I>: dependent — ...  (Test)
      coupled group at positions [1 2]      (Group_start)
        delta pass 1                        (Pass, from Delta)
        ZIV test <N, N>: inconclusive — ... (Test)
        constraint on I: ...                (Constraint)
      verdict: dependent — ...              (Verdict, from Analyze)
    v} *)

type verdict = Independent | Dependent | Inconclusive
(** Per-test outcome: [Inconclusive] is a test that neither proved
    independence nor produced final dependence information on its own
    (e.g. a GCD test that "may" depend). *)

type event =
  | Pair_start of {
      array : string;
      src_stmt : int;
      snk_stmt : int;
      site : int;
    }
      (** one reference pair enters the driver; [site] is its index in
          [Analyze.sites] order, which orders the rendering *)
  | Partitioned of {
      dims : int;
      nonlinear : int;
      separable : int;
      coupled_groups : int;
    }  (** subscript positions partitioned (driver step 2-3, paper §3) *)
  | Group_start of { positions : int list }
      (** a minimal coupled group enters the Delta test *)
  | Pass of int  (** Delta constraint-propagation pass *)
  | Test of {
      kind : Test_kind.t;
      subscript : string;
      verdict : verdict;
      reason : string;
    }  (** one dependence test applied to one subscript pair *)
  | Constraint of { index : string; constr : string; note : string }
      (** Delta constraint intersection on one index *)
  | Verdict of { independent : bool; reason : string }
      (** final per-pair verdict *)
  | Note of string  (** free-form step (propagation, refinements) *)

type Span.args += Step of event
(** How an event travels as a {!Span.Explain} payload:
    [Span.explain spans (Step ev)]. *)

type step = {
  depth : int;  (** enclosing {!Span.Pair} and {!Span.Delta} spans *)
  event : event;
  ts_ns : int64;  (** absolute {!Clock.now_ns} sample at emission *)
  dur_ns : int64;
      (** for [Pair_start] and [Group_start], the time until the pair or
          Delta span that follows it closes; [0] otherwise *)
}

val steps : ?routine:int -> Span.span array -> step list
(** The explain steps of a merged {!Span.spans} array, in pair order.
    A pair's subtree is its [Pair_start] and the steps its worker
    recorded after it; subtrees are ordered by routine, then by [site],
    whichever domain ran them. A pair's routine is its nearest
    {!Span.Analyze} or {!Span.Shard} ancestor, or, on a worker domain of
    a parallel [Analyze.run], the {!Span.Analyze} span whose interval
    contains it. [routine = k] keeps only the pairs of the [k]-th
    Analyze or Shard span of the array (from 0; one per [Analyze.run]
    on the calling domain, in run order). *)

val pp_event : Format.formatter -> event -> unit

val pp_tree : ?routine:int -> Format.formatter -> Span.span array -> unit
(** The human-readable explain rendering of {!steps}: one line per step,
    indented two spaces per nesting level. *)

val event_to_json :
  seq:int -> depth:int -> ?ts_ns:int64 -> ?dur_ns:int64 -> event -> Json.t

val to_jsonl : Span.span array -> string
(** One JSON object per line per step of {!steps}, in that order
    ([deptest-trace/2]). Every line has ["seq"] (unique, from 0),
    ["depth"], ["type"], ["ts_ns"] (nanoseconds since the earliest step,
    monotonic clock shared with {!Span}), and ["dur_ns"]; the remaining
    fields mirror the event payload (see README). *)
