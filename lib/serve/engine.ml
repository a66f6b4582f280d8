module Json = Dt_obs.Json
module Store = Dt_engine.Store
module Record = Dt_report.Record
module Reqtrace = Dt_obs.Reqtrace

type t = {
  jobs : int;
  config : Deptest.Analyze.Config.t;  (* no pair memo: see engine.mli *)
  store : Store.t;  (* the response tier, on disk with a cache dir *)
  metrics : Dt_obs.Metrics.t;
  sampler : Reqtrace.Sampler.t;
  ring : Reqtrace.Ring.t;
  started_ns : int64;  (* monotonic, for uptime *)
  max_inflight : int;  (* admission budget; 0 = unbounded *)
  queue_deadline_ms : int;  (* max queue wait before shedding; 0 = none *)
  restarts : int;  (* supervised restarts before this incarnation *)
  mutable requests : int;
  mutable analyses : int;  (* analyze requests answered by running tests *)
  mutable response_hits : int;  (* answered whole from the response tier *)
  mutable errors : int;
  mutable protocol_errors : int;  (* bad frames / JSON / unsupported version *)
  mutable connections : int;  (* connections ever accepted *)
  mutable in_flight : int;  (* requests currently being handled *)
  mutable shed : int;  (* analyze requests answered `overloaded` *)
  mutable deadline_exceeded : int;  (* shed because the request budget was spent *)
  mutable injected_faults : int;  (* chaos faults the server performed *)
  mutable queue_depth : int;  (* gauge: requests waiting, set by the server *)
  mutable ewma_analyze_ns : int64;  (* smoothed analyze wall, for retry_after *)
}

(* What the server's select loop knows about a request when it hands it
   over: how many other requests are waiting behind it, and how long it
   sat in the queue before service started. *)
type admission = { depth : int; waited_ns : int64 }

let no_admission = { depth = 0; waited_ns = 0L }

(* The store key of a rendered response: the only kind of entry the
   daemon caches. *)
let response_key source = "r:" ^ Digest.to_hex (Digest.string source)

let create ?(jobs = 0) ?cache_dir ?cache_capacity ?(sample_period = 1)
    ?(slow_threshold_ns = 0L) ?(ledger_recent = 64) ?(ledger_top = 16)
    ?(max_inflight = 0) ?(queue_deadline_ms = 0) ?(restarts = 0) () =
  let jobs = Dt_support.Pool.clamp_auto jobs in
  let metrics = Dt_obs.Metrics.create () in
  (* pre-register every endpoint and tier series so a scrape's series
     set never depends on what traffic arrived first *)
  List.iter
    (fun endpoint -> Dt_obs.Metrics.serve_endpoint metrics ~endpoint)
    Protocol.endpoints;
  List.iter
    (fun tier ->
      Dt_obs.Metrics.serve_tier metrics ~tier:(Reqtrace.tier_name tier))
    Reqtrace.tiers;
  (* the store fingerprint covers the serve configuration's semantics
     (strategy, input pairs, budget, deadline — not jobs) plus the cache
     schema version, so a config or schema change invalidates every
     persisted segment instead of replaying stale verdicts. It is taken
     from the default configuration: the pair memo the daemon leaves off
     never changes a verdict, and keeping it keeps old directories valid *)
  let fingerprint =
    Record.fingerprint ~label:"serve"
      ~config:(Record.config_of (Deptest.Analyze.Config.make ~jobs ()))
      ~source:(Record.source_of Store.schema_version)
  in
  let store =
    Store.open_ ?dir:cache_dir ~fingerprint ?capacity:cache_capacity ()
  in
  let config = Deptest.Analyze.Config.make ~jobs ~cache:false ~metrics () in
  {
    jobs;
    config;
    store;
    metrics;
    sampler = Reqtrace.Sampler.create ~period:sample_period
        ~threshold_ns:slow_threshold_ns ();
    ring = Reqtrace.Ring.create ~recent:ledger_recent ~top:ledger_top ();
    started_ns = Dt_obs.Metrics.now_ns ();
    max_inflight = max 0 max_inflight;
    queue_deadline_ms = max 0 queue_deadline_ms;
    restarts = max 0 restarts;
    requests = 0;
    analyses = 0;
    response_hits = 0;
    errors = 0;
    protocol_errors = 0;
    connections = 0;
    in_flight = 0;
    shed = 0;
    deadline_exceeded = 0;
    injected_faults = 0;
    queue_depth = 0;
    ewma_analyze_ns = 0L;
  }

let jobs t = t.jobs
let store t = t.store
let restarts t = t.restarts
let shed_total t = t.shed
let deadline_exceeded_total t = t.deadline_exceeded
let note_connection t = t.connections <- t.connections + 1
let note_injected_fault t = t.injected_faults <- t.injected_faults + 1
let set_queue_depth t depth = t.queue_depth <- max 0 depth

let note_protocol_error t =
  t.protocol_errors <- t.protocol_errors + 1;
  t.errors <- t.errors + 1

let parse source =
  match
    if Dt_frontend.Cfront.looks_like_c source then
      [ Dt_frontend.Cfront.parse_and_lower source ]
    else Dt_frontend.Lower.parse_unit source
  with
  | [] -> Error "empty compilation unit"
  | progs -> Ok progs
  | exception Dt_frontend.Cfront.Error (msg, line) ->
      Error (Printf.sprintf "line %d: syntax error: %s" line msg)
  | exception Dt_frontend.Lexer.Error (msg, line) ->
      Error (Printf.sprintf "line %d: lexical error: %s" line msg)
  | exception Dt_frontend.Parser.Error (msg, line) ->
      Error (Printf.sprintf "line %d: syntax error: %s" line msg)
  | exception Dt_frontend.Lower.Error (msg, line) ->
      Error (Printf.sprintf "line %d: %s" line msg)

let decode_response json =
  match (Json.member "output" json, Json.member "degraded" json) with
  | Some (Json.String output), Some (Json.Int degraded) ->
      Some (output, degraded)
  | _ -> None

let analyze_cold config source =
  match parse source with
  | Error _ as e -> e
  | Ok progs ->
      let results = Deptest.Analyze.run_all config progs in
      Ok (Render.unit_ progs results)

(* the response-tier lookup, split out so the analyze path can decide
   how much tracing machinery to set up before running anything. An
   entry that fails to decode is counted, dropped and reported as a
   miss, so the recomputed answer takes its place. *)
type response_lookup = Hit of string * int | Miss

let response_lookup t source =
  let key = response_key source in
  match Store.find t.store key with
  | Some json -> (
      match decode_response json with
      | Some (output, degraded) ->
          t.response_hits <- t.response_hits + 1;
          Hit (output, degraded)
      | None ->
          Store.note_invalid t.store;
          Store.remove t.store key;
          Miss)
  | None -> Miss

(* analyze and cache the answer in the response tier. [config] differs
   from [t.config] at most by an attached span profiler or a deadline,
   so caching behavior is identical with tracing on or off. A degraded
   response reflects this run's faults or budget, not the program: it is
   never cached. *)
let analyze_miss t config source =
  let result = analyze_cold config source in
  (match result with
  | Ok (output, 0) ->
      Store.add t.store (response_key source)
        (Json.Obj [ ("output", Json.String output); ("degraded", Json.Int 0) ])
  | _ -> ());
  result

let analyze_source t source =
  match response_lookup t source with
  | Hit (output, degraded) -> Ok (output, degraded)
  | Miss -> analyze_miss t t.config source

let warm t ?suite () =
  let entries =
    match suite with
    | None -> Dt_workloads.Corpus.all
    | Some s -> Dt_workloads.Corpus.by_suite s
  in
  List.fold_left
    (fun n (e : Dt_workloads.Corpus.entry) ->
      match analyze_source t e.Dt_workloads.Corpus.source with
      | Ok _ -> n + 1
      | Error _ -> n)
    0 entries

let flush t = Store.flush t.store

let sync_disk_metrics t =
  let s = t.store in
  Dt_obs.Metrics.set_disk_cache t.metrics ~hits:(Store.hits s)
    ~misses:(Store.misses s) ~invalid:(Store.invalid s)

let serve_prometheus t =
  let b = Buffer.create 256 in
  let metric typ name help v =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    Buffer.add_string b (Printf.sprintf "%s %d\n" name v)
  in
  let counter = metric "counter" and gauge = metric "gauge" in
  counter "deptest_serve_requests_total" "Requests handled by the daemon."
    t.requests;
  counter "deptest_serve_analyses_total"
    "Analyze requests that ran the test cascade." t.analyses;
  counter "deptest_serve_response_hits_total"
    "Analyze requests answered whole from the response cache."
    t.response_hits;
  counter "deptest_serve_errors_total" "Requests answered with an error."
    t.errors;
  counter "deptest_serve_protocol_errors_total"
    "Connections dropped on a framing, JSON, or version error." t.protocol_errors;
  counter "deptest_serve_connections_total"
    "Client connections ever accepted." t.connections;
  gauge "deptest_serve_in_flight" "Requests currently being handled."
    t.in_flight;
  gauge "deptest_serve_uptime_ns" "Nanoseconds since the daemon started."
    (Int64.to_int (Int64.sub (Dt_obs.Metrics.now_ns ()) t.started_ns));
  counter "deptest_serve_traced_requests_total"
    "Requests recorded in the slow-request ring ledger."
    (Reqtrace.Ring.total t.ring);
  counter "deptest_serve_shed_total"
    "Analyze requests shed with a structured overloaded response."
    t.shed;
  counter "deptest_serve_deadline_exceeded_total"
    "Analyze requests shed because their own deadline budget was spent \
     queueing." t.deadline_exceeded;
  counter "deptest_serve_restarts_total"
    "Supervised daemon restarts before this incarnation." t.restarts;
  counter "deptest_serve_injected_faults_total"
    "Chaos-harness faults the server performed (accept drops, mid-frame \
     closes, response delays)." t.injected_faults;
  gauge "deptest_serve_queue_depth"
    "Requests waiting in the server's select queue." t.queue_depth;
  Buffer.contents b

let saturation_json t =
  Json.Obj
    [
      ("in_flight", Json.Int t.in_flight);
      ("queue_depth", Json.Int t.queue_depth);
      ("max_inflight", Json.Int t.max_inflight);
      ("queue_deadline_ms", Json.Int t.queue_deadline_ms);
      ("shed", Json.Int t.shed);
      ("deadline_exceeded", Json.Int t.deadline_exceeded);
      ("injected_faults", Json.Int t.injected_faults);
      ("restarts", Json.Int t.restarts);
    ]

let serve_json t =
  Json.Obj
    [
      ("requests", Json.Int t.requests);
      ("analyses", Json.Int t.analyses);
      ("response_hits", Json.Int t.response_hits);
      ("errors", Json.Int t.errors);
      ("protocol_errors", Json.Int t.protocol_errors);
      ("connections", Json.Int t.connections);
      ("in_flight", Json.Int t.in_flight);
      ("traced", Json.Int (Reqtrace.Ring.total t.ring));
      ("saturation", saturation_json t);
    ]

(* ------------------------------------------------------------------ *)
(* the analyze path, wrapped in request-scoped tracing. The profiler is
   attached only when the sampler arms, and worker 0 runs on the calling
   domain, so the whole analysis nests under the Request span on the
   domain-0 buffer. *)

(* the smoothed analyze wall time feeds the retry_after_ms estimate: a
   shed client should come back roughly when the queue ahead of it has
   drained *)
let note_analyze_wall t wall_ns =
  t.ewma_analyze_ns <-
    (if t.ewma_analyze_ns = 0L then wall_ns
     else
       Int64.div
         (Int64.add (Int64.mul 3L t.ewma_analyze_ns) wall_ns)
         4L)

let retry_after_ms t ~depth =
  let per_request_ms =
    max 1L (Int64.div t.ewma_analyze_ns 1_000_000L)
  in
  let ms = Int64.mul (Int64.of_int (max 1 depth)) per_request_ms in
  Int64.to_int (min 5_000L ms)

let handle_analyze t ~source ~id ~trace_id ~deadline_ms =
  let trace_id =
    match trace_id with
    | Some i when Reqtrace.is_id i -> i
    | _ -> Reqtrace.gen_id ()
  in
  let armed = Reqtrace.Sampler.arm t.sampler in
  let ts_ms = int_of_float (Unix.gettimeofday () *. 1000.) in
  let t0 = Dt_obs.Metrics.now_ns () in
  let result, tier, wall_ns, spans =
    match response_lookup t source with
    | Hit (output, degraded) ->
        (* the warm path: no profiler, no buffers — an armed capture is
           one synthesized Request span, so always-on sampling costs
           nothing where latency matters most *)
        let wall_ns = Int64.sub (Dt_obs.Metrics.now_ns ()) t0 in
        let spans =
          if armed && Reqtrace.Sampler.retain t.sampler ~wall_ns then
            [|
              {
                Dt_obs.Span.kind = Dt_obs.Span.Request;
                domain = 0;
                parent = -1;
                t0_ns = t0;
                t1_ns = Int64.add t0 wall_ns;
                minor_words = 0.;
                major_words = 0.;
              };
            |]
          else [||]
        in
        (Ok (output, degraded), Reqtrace.Response, wall_ns, spans)
    | Miss ->
        let profiler =
          if armed then Some (Dt_obs.Span.profiler ()) else None
        in
        let config =
          match profiler with
          | None -> t.config
          | Some _ -> Deptest.Analyze.Config.with_profiler profiler t.config
        in
        (* the remaining request budget becomes this run's analysis
           deadline: pairs that cannot finish inside it degrade
           conservatively (never cached) instead of blowing the
           client's latency budget *)
        let config =
          match deadline_ms with
          | None -> config
          | Some ms ->
              Deptest.Analyze.Config.with_deadline_ms (Some ms) config
        in
        let opened =
          Option.map
            (fun p ->
              let b = Dt_obs.Span.buffer p ~domain:0 in
              (b, Dt_obs.Span.enter b Dt_obs.Span.Request))
            profiler
        in
        let result = analyze_miss t config source in
        let wall_ns = Int64.sub (Dt_obs.Metrics.now_ns ()) t0 in
        note_analyze_wall t wall_ns;
        Option.iter (fun (b, slot) -> Dt_obs.Span.exit_ b slot) opened;
        let tier =
          if Result.is_ok result then Reqtrace.Cold else Reqtrace.None_
        in
        let spans =
          match profiler with
          | Some p when Reqtrace.Sampler.retain t.sampler ~wall_ns ->
              Dt_obs.Span.spans p
          | _ -> [||]
        in
        (result, tier, wall_ns, spans)
  in
  let degraded = match result with Ok (_, d) -> d | Error _ -> 0 in
  Reqtrace.Ring.add t.ring
    {
      trace_id;
      endpoint = "analyze";
      source_digest = Digest.to_hex (Digest.string source);
      tier;
      degraded;
      error = Result.is_error result;
      wall_ns;
      ts_ms;
      spans;
    };
  Dt_obs.Metrics.serve_answered t.metrics ~tier:(Reqtrace.tier_name tier);
  match result with
  | Ok (output, degraded) ->
      if tier <> Reqtrace.Response then t.analyses <- t.analyses + 1;
      Protocol.ok
        (("output", Json.String output)
         :: ("degraded", Json.Int degraded)
         :: ("trace_id", Json.String trace_id)
         ::
         (match id with
         | None -> []
         | Some i -> [ ("id", Json.String i) ]))
  | Error msg ->
      t.errors <- t.errors + 1;
      Protocol.error msg

let entries_response t entries =
  Protocol.ok
    [
      ("total", Json.Int (Reqtrace.Ring.total t.ring));
      ("entries", Json.List (List.map Reqtrace.entry_to_json entries));
    ]

(* Admission control, applied to analyze only — the introspection ops
   (health, metrics, shutdown...) are cheap and must keep answering
   precisely when the daemon is saturated. Sheds are structured
   responses on a healthy connection, never dropped connections, and
   never counted as errors: overload is load management, not failure. *)
let admit t admission ~deadline_ms =
  let waited_ms = Int64.to_int (Int64.div admission.waited_ns 1_000_000L) in
  let remaining_ms = Option.map (fun d -> d - waited_ms) deadline_ms in
  match remaining_ms with
  | Some r when r <= 0 ->
      t.shed <- t.shed + 1;
      t.deadline_exceeded <- t.deadline_exceeded + 1;
      Error (Protocol.deadline_exceeded ~waited_ms)
  | _ ->
      if
        (t.max_inflight > 0 && admission.depth > t.max_inflight)
        || (t.queue_deadline_ms > 0 && waited_ms > t.queue_deadline_ms)
      then begin
        t.shed <- t.shed + 1;
        Error
          (Protocol.overloaded
             ~retry_after_ms:(retry_after_ms t ~depth:admission.depth))
      end
      else Ok remaining_ms

let handle_op t admission req =
  match req with
  | Protocol.Analyze { source; id; trace_id; deadline_ms } -> (
      match admit t admission ~deadline_ms with
      | Error shed_response -> shed_response
      | Ok deadline_ms -> handle_analyze t ~source ~id ~trace_id ~deadline_ms)
  | Protocol.Metrics { prometheus } ->
      sync_disk_metrics t;
      if prometheus then
        Protocol.ok
          [
            ( "prometheus",
              Json.String
                (Dt_obs.Metrics.to_prometheus
                   ~build:[ ("store_schema", Store.schema_version) ]
                   t.metrics
                 ^ serve_prometheus t) );
          ]
      else
        Protocol.ok
          [
            ("metrics", Dt_obs.Metrics.to_json t.metrics);
            ("serve", serve_json t);
          ]
  | Protocol.Health ->
      Protocol.ok
        [
          ("status", Json.String "ok");
          ("jobs", Json.Int t.jobs);
          ( "uptime_ns",
            Json.Int
              (Int64.to_int
                 (Int64.sub (Dt_obs.Metrics.now_ns ()) t.started_ns)) );
          ("requests", Json.Int t.requests);
          ("in_flight", Json.Int t.in_flight);
          ("connections", Json.Int t.connections);
          ("errors", Json.Int t.errors);
          ("protocol_errors", Json.Int t.protocol_errors);
          ("pid", Json.Int (Unix.getpid ()));
          ("saturation", saturation_json t);
          ( "trace",
            Json.Obj
              [
                ("sample_period", Json.Int (Reqtrace.Sampler.period t.sampler));
                ( "slow_threshold_ns",
                  Json.Int
                    (Int64.to_int (Reqtrace.Sampler.threshold_ns t.sampler)) );
                ("ledger_total", Json.Int (Reqtrace.Ring.total t.ring));
              ] );
          ( "disk",
            match Store.dir t.store with
            | None -> Json.Bool false
            | Some dir ->
                Json.Obj
                  [
                    ("dir", Json.String dir);
                    ("resident", Json.Int (Store.length t.store));
                    ("segments", Json.Int (Store.segments t.store));
                  ] );
        ]
  | Protocol.Slow { n } -> entries_response t (Reqtrace.Ring.recent ?n t.ring)
  | Protocol.Top { n } -> entries_response t (Reqtrace.Ring.top ?n t.ring)
  | Protocol.Trace_last { trace_id } -> (
      let entry =
        match trace_id with
        | Some id -> Reqtrace.Ring.find t.ring id
        | None -> Reqtrace.Ring.last_capture t.ring
      in
      match entry with
      | None -> Protocol.error "no captured request trace in the ledger"
      | Some e when Array.length e.spans = 0 ->
          Protocol.error
            (Printf.sprintf
               "request %s is in the ledger but its span capture was not \
                retained (sampling period or threshold)"
               e.trace_id)
      | Some e ->
          Protocol.ok
            [
              ("trace_id", Json.String e.trace_id);
              ("entry", Reqtrace.entry_to_json e);
              ( "chrome_trace",
                Dt_obs.Timeline.to_chrome ~process:("deptest req " ^ e.trace_id)
                  e.spans );
            ])
  | Protocol.Flush -> Protocol.ok [ ("persisted", Json.Int (flush t)) ]
  | Protocol.Shutdown -> Protocol.ok []

let handle ?(admission = no_admission) t req =
  t.requests <- t.requests + 1;
  t.in_flight <- t.in_flight + 1;
  let t0 = Dt_obs.Metrics.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      t.in_flight <- t.in_flight - 1;
      Dt_obs.Metrics.serve_request t.metrics
        ~endpoint:(Protocol.endpoint_of req)
        ~ns:(Int64.sub (Dt_obs.Metrics.now_ns ()) t0))
    (fun () ->
      try handle_op t admission req
      with e ->
        t.errors <- t.errors + 1;
        Protocol.error (Printexc.to_string e))
