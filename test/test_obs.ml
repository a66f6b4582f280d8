(* The observability layer (Dt_obs): test-kind ids, JSON round-trips,
   the metrics registry, and the explain tree recorded by the driver. *)

open Dt_ir
open Helpers

let check = Alcotest.check

(* --- Test_kind --------------------------------------------------------- *)

let test_kind_ids () =
  List.iteri
    (fun i k -> check Alcotest.int (Dt_obs.Test_kind.slug k) i
        (Dt_obs.Test_kind.id k))
    Dt_obs.Test_kind.all;
  check Alcotest.int "count" (List.length Dt_obs.Test_kind.all)
    Dt_obs.Test_kind.count

let test_kind_slugs () =
  List.iter
    (fun k ->
      match Dt_obs.Test_kind.of_slug (Dt_obs.Test_kind.slug k) with
      | Some k' ->
          check Alcotest.int "slug round-trip" (Dt_obs.Test_kind.id k)
            (Dt_obs.Test_kind.id k')
      | None -> Alcotest.fail "of_slug failed")
    Dt_obs.Test_kind.all;
  check Alcotest.bool "unknown slug" true
    (Dt_obs.Test_kind.of_slug "nonsense" = None)

(* counters re-exports the same kind type; kind_id must stay aligned *)
let test_counters_kind_id () =
  List.iteri
    (fun i k -> check Alcotest.int (Deptest.Counters.kind_name k) i
        (Deptest.Counters.kind_id k))
    Deptest.Counters.all_kinds

(* --- Json -------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Dt_obs.Json.(
      Obj
        [
          ("null", Null);
          ("t", Bool true);
          ("n", Int (-42));
          ("x", Float 2.5);
          ("s", String "a \"quoted\"\nline\twith \\ and unicode \xc3\xa9");
          ("l", List [ Int 1; Int 2; Obj [ ("k", String "v") ] ]);
          ("empty", Obj []);
        ])
  in
  let s = Dt_obs.Json.to_string v in
  match Dt_obs.Json.of_string s with
  | Ok v' ->
      check Alcotest.bool "round-trip equal" true (Dt_obs.Json.equal v v')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_parse_escapes () =
  match Dt_obs.Json.of_string {|{"a": "xéA", "b": [1, 2.5, -3]}|} with
  | Ok v ->
      check Alcotest.bool "unicode escape" true
        (Dt_obs.Json.member "a" v = Some (Dt_obs.Json.String "x\xc3\xa9A"));
      check Alcotest.bool "mixed numbers" true
        (Dt_obs.Json.member "b" v
        = Some
            Dt_obs.Json.(List [ Int 1; Float 2.5; Int (-3) ]))
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_rejects_garbage () =
  let bad s =
    match Dt_obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "trailing" true (bad "{} x");
  check Alcotest.bool "unterminated" true (bad {|{"a": "b|});
  check Alcotest.bool "bare word" true (bad "flase")

(* --- Metrics ----------------------------------------------------------- *)

let test_metrics_record () =
  let m = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Strong_siv ~indep:true ~ns:5_000L;
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Strong_siv ~indep:false ~ns:3_000L;
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Gcd_miv ~indep:false ~ns:100L;
  check Alcotest.int "applied" 2
    (Dt_obs.Metrics.applied m Dt_obs.Test_kind.Strong_siv);
  check Alcotest.int "indep" 1
    (Dt_obs.Metrics.proved_indep m Dt_obs.Test_kind.Strong_siv);
  check Alcotest.bool "kind_ns" true
    (Dt_obs.Metrics.kind_ns m Dt_obs.Test_kind.Strong_siv = 8_000L);
  check Alcotest.int "other applied" 1
    (Dt_obs.Metrics.applied m Dt_obs.Test_kind.Gcd_miv)

let test_metrics_latency_hist () =
  let m = Dt_obs.Metrics.create () in
  (* one per bucket: bounds are 1us 10us 100us 1ms 10ms, then overflow *)
  List.iter
    (fun ns -> Dt_obs.Metrics.observe_pair m ~ns)
    [ 500L; 5_000L; 50_000L; 500_000L; 5_000_000L; 50_000_000L ];
  check Alcotest.int "pairs" 6 (Dt_obs.Metrics.pairs m);
  check
    Alcotest.(array int)
    "one per bucket"
    [| 1; 1; 1; 1; 1; 1 |]
    (Dt_obs.Metrics.latency_hist m)

let test_metrics_merge () =
  let a = Dt_obs.Metrics.create () and b = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.record a Dt_obs.Test_kind.Ziv_test ~indep:true ~ns:10L;
  Dt_obs.Metrics.record b Dt_obs.Test_kind.Ziv_test ~indep:false ~ns:20L;
  Dt_obs.Metrics.add_phase_ns b Dt_obs.Metrics.Test 1_000L;
  Dt_obs.Metrics.observe_pair b ~ns:42L;
  Dt_obs.Metrics.merge_into a b;
  check Alcotest.int "applied" 2
    (Dt_obs.Metrics.applied a Dt_obs.Test_kind.Ziv_test);
  check Alcotest.bool "ns summed" true
    (Dt_obs.Metrics.kind_ns a Dt_obs.Test_kind.Ziv_test = 30L);
  check Alcotest.bool "phase merged" true
    (Dt_obs.Metrics.phase_ns a Dt_obs.Metrics.Test = 1_000L);
  check Alcotest.int "pairs merged" 1 (Dt_obs.Metrics.pairs a)

let test_metrics_banerjee_counters () =
  let a = Dt_obs.Metrics.create () and b = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.banerjee_compile a;
  Dt_obs.Metrics.banerjee_node a ~incremental:true;
  Dt_obs.Metrics.banerjee_node a ~incremental:true;
  Dt_obs.Metrics.banerjee_node b ~incremental:false;
  Dt_obs.Metrics.banerjee_cap b;
  Dt_obs.Metrics.merge_into a b;
  check Alcotest.int "compilations" 1 (Dt_obs.Metrics.banerjee_compilations a);
  check Alcotest.int "incremental nodes" 2
    (Dt_obs.Metrics.banerjee_incremental_nodes a);
  check Alcotest.int "scratch nodes merged" 1
    (Dt_obs.Metrics.banerjee_scratch_nodes a);
  check Alcotest.int "caps merged" 1 (Dt_obs.Metrics.banerjee_caps a);
  (* surfaced in the profile --json snapshot *)
  match Dt_obs.Json.member "banerjee" (Dt_obs.Metrics.to_json a) with
  | None -> Alcotest.fail "banerjee block missing from metrics JSON"
  | Some blk ->
      check Alcotest.bool "kernel_compilations" true
        (Dt_obs.Json.member "kernel_compilations" blk
        = Some (Dt_obs.Json.Int 1));
      check Alcotest.bool "incremental_nodes" true
        (Dt_obs.Json.member "incremental_nodes" blk = Some (Dt_obs.Json.Int 2));
      check Alcotest.bool "scratch_nodes" true
        (Dt_obs.Json.member "scratch_nodes" blk = Some (Dt_obs.Json.Int 1));
      check Alcotest.bool "combo_cap_fallbacks" true
        (Dt_obs.Json.member "combo_cap_fallbacks" blk
        = Some (Dt_obs.Json.Int 1))

let test_metrics_json_roundtrip () =
  let m = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Strong_siv ~indep:true ~ns:4_000L;
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Delta_test ~indep:false ~ns:9_000L;
  Dt_obs.Metrics.add_phase_ns m Dt_obs.Metrics.Partition 1_500L;
  Dt_obs.Metrics.observe_pair m ~ns:13_000L;
  let j = Dt_obs.Metrics.to_json m in
  match Dt_obs.Json.of_string (Dt_obs.Json.to_string j) with
  | Error e -> Alcotest.fail ("snapshot did not parse back: " ^ e)
  | Ok j' ->
      check Alcotest.bool "round-trip equal" true (Dt_obs.Json.equal j j');
      check Alcotest.bool "schema" true
        (Dt_obs.Json.member "schema" j'
        = Some (Dt_obs.Json.String "deptest-metrics/2"));
      let tests =
        match Dt_obs.Json.member "tests" j' with
        | Some l -> Option.value ~default:[] (Dt_obs.Json.to_list l)
        | None -> []
      in
      check Alcotest.int "one entry per kind" Dt_obs.Test_kind.count
        (List.length tests);
      let strong =
        List.find
          (fun t ->
            Dt_obs.Json.member "kind" t
            = Some (Dt_obs.Json.String "strong_siv"))
          tests
      in
      check Alcotest.bool "applied count" true
        (Dt_obs.Json.member "applied" strong = Some (Dt_obs.Json.Int 1))

(* --- Trace ------------------------------------------------------------- *)

(* an explain-on profiler and its domain-0 buffer *)
let explainer () =
  let p = Dt_obs.Span.profiler ~explain:true () in
  (p, Some (Dt_obs.Span.buffer p ~domain:0))

let note b s = Dt_obs.Span.explain b (Dt_obs.Trace.Step (Note s))

let depths p =
  List.map
    (fun s -> s.Dt_obs.Trace.depth)
    (Dt_obs.Trace.steps (Dt_obs.Span.spans p))

let events p =
  List.map
    (fun s -> s.Dt_obs.Trace.event)
    (Dt_obs.Trace.steps (Dt_obs.Span.spans p))

(* explain depth is the number of enclosing Pair / Delta spans *)
let test_trace_scope_depth () =
  let p, b = explainer () in
  note b "root";
  Dt_obs.Span.with_ b Dt_obs.Span.Pair (fun () ->
      note b "child";
      Dt_obs.Span.with_ b Dt_obs.Span.Banerjee (fun () ->
          Dt_obs.Span.with_ b Dt_obs.Span.Delta (fun () ->
              note b "grandchild")));
  note b "root2";
  check Alcotest.(list int) "depths" [ 0; 1; 2; 0 ] (depths p);
  check Alcotest.string "tree rendering"
    "root\n  child\n    grandchild\nroot2\n"
    (Format.asprintf "%a"
       (fun ppf -> Dt_obs.Trace.pp_tree ppf)
       (Dt_obs.Span.spans p))

let test_trace_scope_exception_safe () =
  let p, b = explainer () in
  (try
     Dt_obs.Span.with_ b Dt_obs.Span.Pair (fun () ->
         note b "in";
         failwith "boom")
   with Failure _ -> ());
  note b "after";
  check Alcotest.(list int) "depth restored" [ 1; 0 ] (depths p)

(* a strong-SIV pair must produce exactly one Strong_siv test event with
   the explain-why reason *)
let strong_siv_events ~src_c =
  let p, spans = explainer () in
  let loops = loops1 ~hi:100 () in
  let src = Aref.linear "A" [ av ~c:src_c i0 ] in
  let snk = Aref.linear "A" [ av i0 ] in
  let r =
    Deptest.Pair_test.test ?spans ~src:(src, loops) ~snk:(snk, loops) ()
  in
  (r, events p)

let test_trace_strong_siv_independent () =
  let r, events = strong_siv_events ~src_c:200 in
  check Alcotest.bool "independent" true
    (r.Deptest.Pair_test.result = `Independent);
  check Alcotest.bool "proved by strong SIV" true
    (r.Deptest.Pair_test.meta.Deptest.Pair_test.proved_by
    = Some Dt_obs.Test_kind.Strong_siv);
  let tests =
    List.filter_map
      (function
        | Dt_obs.Trace.Test { kind = Dt_obs.Test_kind.Strong_siv; _ } as e ->
            Some e
        | _ -> None)
      events
  in
  match tests with
  | [ Dt_obs.Trace.Test { verdict; reason; _ } ] ->
      check Alcotest.bool "verdict independent" true
        (verdict = Dt_obs.Trace.Independent);
      check Alcotest.string "reason" "distance 200 > U-L = 99" reason
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected exactly 1 Strong_siv event, got %d"
           (List.length l))

let test_trace_strong_siv_dependent () =
  let r, events = strong_siv_events ~src_c:4 in
  check Alcotest.bool "dependent" true
    (r.Deptest.Pair_test.result <> `Independent);
  let tests =
    List.filter
      (function
        | Dt_obs.Trace.Test { kind = Dt_obs.Test_kind.Strong_siv; _ } -> true
        | _ -> false)
      events
  in
  check Alcotest.int "exactly one Strong_siv event" 1 (List.length tests)

let test_trace_delta_group_nested () =
  (* A(I+1, I+2) vs A(I, I): coupled group, Delta proves independence via
     contradictory distance constraints *)
  let p, spans = explainer () in
  let loops = loops1 ~hi:100 () in
  let src = Aref.linear "A" [ av ~c:1 i0; av ~c:2 i0 ] in
  let snk = Aref.linear "A" [ av i0; av i0 ] in
  let r =
    Deptest.Pair_test.test ?spans ~src:(src, loops) ~snk:(snk, loops) ()
  in
  check Alcotest.bool "independent" true
    (r.Deptest.Pair_test.result = `Independent);
  check Alcotest.bool "proved by Delta" true
    (r.Deptest.Pair_test.meta.Deptest.Pair_test.proved_by
    = Some Dt_obs.Test_kind.Delta_test);
  let events =
    List.map
      (fun s -> (s.Dt_obs.Trace.depth, s.Dt_obs.Trace.event))
      (Dt_obs.Trace.steps (Dt_obs.Span.spans p))
  in
  check Alcotest.bool "has a coupled Group_start" true
    (List.exists
       (function _, Dt_obs.Trace.Group_start _ -> true | _ -> false)
       events);
  (* delta-internal events sit strictly deeper than the group marker *)
  let group_depth =
    List.find_map
      (function d, Dt_obs.Trace.Group_start _ -> Some d | _ -> None)
      events
  in
  let pass_depth =
    List.find_map
      (function d, Dt_obs.Trace.Pass _ -> Some d | _ -> None)
      events
  in
  match (group_depth, pass_depth) with
  | Some g, Some p -> check Alcotest.bool "pass nested under group" true (p > g)
  | _ -> Alcotest.fail "missing Group_start or Pass event"

let test_trace_jsonl_parses () =
  let p, spans = explainer () in
  let loops = loops1 ~hi:100 () in
  let src = Aref.linear "A" [ av ~c:1 i0; av ~c:2 i0 ] in
  let snk = Aref.linear "A" [ av i0; av i0 ] in
  ignore (Deptest.Pair_test.test ?spans ~src:(src, loops) ~snk:(snk, loops) ());
  let lines =
    String.split_on_char '\n' (Dt_obs.Trace.to_jsonl (Dt_obs.Span.spans p))
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.bool "nonempty" true (lines <> []);
  List.iteri
    (fun i line ->
      match Dt_obs.Json.of_string line with
      | Error e -> Alcotest.fail ("line did not parse: " ^ e)
      | Ok v ->
          check Alcotest.bool "seq" true
            (Dt_obs.Json.member "seq" v = Some (Dt_obs.Json.Int i));
          check Alcotest.bool "has type" true
            (Dt_obs.Json.member "type" v <> None);
          check Alcotest.bool "has depth" true
            (Dt_obs.Json.member "depth" v <> None))
    lines

(* the analyze layer wraps each pair in Pair_start .. Verdict *)
let test_trace_analyze_verdicts () =
  let prog =
    match
      Dt_frontend.Lower.parse_unit
        {|
      PROGRAM POBS
      DO 10 I = 1, 100
        A(I+1) = A(I) + B(I)
   10 CONTINUE
      END
|}
    with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one routine"
  in
  let profiler = Dt_obs.Span.profiler ~explain:true () in
  let metrics = Dt_obs.Metrics.create () in
  (* cache off: the assertions below want the full test narrative, not
     a memo-cache note *)
  let r =
    Deptest.Analyze.run
      (Deptest.Analyze.Config.make ~metrics ~profiler ~cache:false ())
      prog
  in
  let events = events profiler in
  let count f = List.length (List.filter f events) in
  let pairs = List.length r.Deptest.Analyze.pairs in
  check Alcotest.bool "tested some pairs" true (pairs > 0);
  check Alcotest.int "one Pair_start per pair" pairs
    (count (function Dt_obs.Trace.Pair_start _ -> true | _ -> false));
  check Alcotest.int "one Verdict per pair" pairs
    (count (function Dt_obs.Trace.Verdict _ -> true | _ -> false));
  check Alcotest.int "pair latency observed" pairs (Dt_obs.Metrics.pairs metrics);
  (* counters and metrics agree on applied counts *)
  List.iter
    (fun k ->
      check Alcotest.int
        ("applied agrees: " ^ Deptest.Counters.kind_name k)
        (Deptest.Counters.applied r.Deptest.Analyze.counters k)
        (Dt_obs.Metrics.applied metrics k))
    Deptest.Counters.all_kinds

(* explain is a per-pair narrative merged in pair order: the rendering
   does not depend on how many domains tested the pairs *)
let test_explain_jobs_invariant () =
  let explain jobs prog =
    let profiler = Dt_obs.Span.profiler ~explain:true () in
    ignore
      (Deptest.Analyze.run
         (Deptest.Analyze.Config.make ~jobs ~profiler ~cache:false ())
         prog);
    Format.asprintf "%a"
      (fun ppf -> Dt_obs.Trace.pp_tree ppf)
      (Dt_obs.Span.spans profiler)
  in
  List.iter
    (fun (e : Dt_workloads.Corpus.entry) ->
      List.iter
        (fun prog ->
          let one = explain 1 prog in
          List.iter
            (fun jobs ->
              check Alcotest.string
                (Printf.sprintf "%s/%s jobs=%d" e.suite e.name jobs)
                one (explain jobs prog))
            [ 2; 4 ])
        (Dt_workloads.Corpus.programs e))
    Dt_workloads.Corpus.all

let suite =
  [
    Alcotest.test_case "test-kind ids are positional" `Quick test_kind_ids;
    Alcotest.test_case "test-kind slug round-trip" `Quick test_kind_slugs;
    Alcotest.test_case "counters kind_id matches" `Quick test_counters_kind_id;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escape parsing" `Quick test_json_parse_escapes;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "metrics record/applied" `Quick test_metrics_record;
    Alcotest.test_case "metrics latency histogram" `Quick
      test_metrics_latency_hist;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "metrics banerjee counters" `Quick
      test_metrics_banerjee_counters;
    Alcotest.test_case "metrics json round-trip" `Quick
      test_metrics_json_roundtrip;
    Alcotest.test_case "trace scope depths and tree" `Quick
      test_trace_scope_depth;
    Alcotest.test_case "trace scope exception-safe" `Quick
      test_trace_scope_exception_safe;
    Alcotest.test_case "strong SIV independent: one event, reason" `Quick
      test_trace_strong_siv_independent;
    Alcotest.test_case "strong SIV dependent: one event" `Quick
      test_trace_strong_siv_dependent;
    Alcotest.test_case "delta group events nest" `Quick
      test_trace_delta_group_nested;
    Alcotest.test_case "jsonl export parses line by line" `Quick
      test_trace_jsonl_parses;
    Alcotest.test_case "analyze emits pair spans; metrics agree" `Quick
      test_trace_analyze_verdicts;
    Alcotest.test_case "explain identical at jobs 1, 2, 4" `Quick
      test_explain_jobs_invariant;
  ]
