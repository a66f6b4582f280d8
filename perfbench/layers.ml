(* The traced run: a cost for each layer a request crosses.

   Three sources, named in README.md:
   - S: a span from this file around a public call into one layer, while
     the workload's inputs are replayed in-process in the same order and
     at the same jobs setting;
   - M: the difference of the program's own metrics snapshot (the
     daemon's [metrics] op, or [analyze --prom]) across a live pass;
   - P: the deptest process's CPU and involuntary context switches.

   The live passes send a fixed number of the workload's requests, so
   every count is a function of the seed. The counts that must repeat
   exactly (pairs, tests applied, memo hits and misses at jobs=1) are
   collected twice and compared. *)

module Analyze = Deptest.Analyze
module Json = Dt_obs.Json
module Metrics = Dt_obs.Metrics
module Protocol = Dt_serve.Protocol
module Store = Dt_engine.Store
module Pool = Dt_support.Pool

(* ---- spans kept in memory ---- *)

let now_ns = Metrics.now_ns

let span f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (now_ns ()) t0))

(* minor words allocated by [f] on this domain, with its time *)
let alloc_span f =
  let w0 = Gc.minor_words () in
  let r, ns = span f in
  (r, ns, Gc.minor_words () -. w0)

let median_of n f = Stats.median (Array.init n (fun _ -> f ()))

(* ---- the program's metrics snapshot ---- *)

(* Prometheus text exposition -> series -> value *)
let parse_prom text =
  let t = Hashtbl.create 128 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> Hashtbl.replace t (String.sub line 0 i) v
            | None -> ())
        | None -> ())
    (String.split_on_char '\n' text);
  t

let series t k = Option.value (Hashtbl.find_opt t k) ~default:0.

(* summed over every label value of one family *)
let family t name =
  Hashtbl.fold
    (fun k v acc -> if String.starts_with ~prefix:(name ^ "{") k then acc +. v else acc)
    t 0.

let sub a b =
  let d = Hashtbl.copy b in
  Hashtbl.iter (fun k v -> Hashtbl.replace d k (series b k -. v)) a;
  d

let add_into acc t = Hashtbl.iter (fun k v -> Hashtbl.replace acc k (series acc k +. v)) t

let kinds = List.map Dt_obs.Test_kind.slug Dt_obs.Test_kind.all

(* the counts that must repeat exactly, from a jobs=1 snapshot *)
let deterministic ~pairs t =
  ("analyze.pairs", float_of_int pairs, "count")
  :: ("pairs.tested", series t "deptest_pairs_tested_total", "count")
  :: ("pair_cache.hits", series t "deptest_cache_hits_total", "count")
  :: ("pair_cache.misses", series t "deptest_cache_misses_total", "count")
  :: List.map
       (fun k ->
         ( Printf.sprintf "test.%s.applied" k,
           series t (Printf.sprintf "deptest_tests_applied_total{kind=\"%s\"}" k),
           "count" ))
       kinds

let from_j1 t =
  let hits = series t "deptest_cache_hits_total"
  and misses = series t "deptest_cache_misses_total" in
  [
    ("pair_cache.hit_rate", (if hits +. misses > 0. then hits /. (hits +. misses) else 0.), "ratio");
    ("pair_cache.disk_hits", series t "deptest_disk_cache_hits_total", "count");
    ("pair_cache.disk_misses", series t "deptest_disk_cache_misses_total", "count");
  ]

(* per-request times and whole-pass counts from a live snapshot diff *)
let from_live ~n d =
  let per_req_ms ns = ns /. 1e6 /. float_of_int n in
  List.map
    (fun k ->
      ( Printf.sprintf "test.%s.ms" k,
        per_req_ms (series d (Printf.sprintf "deptest_test_ns_total{kind=\"%s\"}" k)),
        "ms" ))
    kinds
  @ List.map
      (fun p ->
        ( Printf.sprintf "phase.%s_ms" p,
          per_req_ms (series d (Printf.sprintf "deptest_phase_ns_total{phase=\"%s\"}" p)),
          "ms" ))
      [ "partition"; "test"; "merge" ]
  @ [
      ( "banerjee.incremental_nodes",
        series d "deptest_banerjee_nodes_total{path=\"incremental\"}",
        "count" );
      ("banerjee.scratch_nodes", series d "deptest_banerjee_nodes_total{path=\"scratch\"}", "count");
      ("pool.tasks", family d "deptest_engine_tasks_total", "count");
      ("pool.steals", family d "deptest_engine_steals_total", "count");
      ("pool.busy_ms", per_req_ms (family d "deptest_engine_busy_ns_total"), "ms");
      ("pool.queue_wait_ms", per_req_ms (family d "deptest_engine_queue_wait_ns_total"), "ms");
    ]
  @ List.map
      (fun tier ->
        ( "serve_engine.tier." ^ tier,
          series d (Printf.sprintf "deptest_serve_answered_total{tier=\"%s\"}" tier),
          "count" ))
      [ "response"; "memo"; "cold" ]
  @ [
      ( "serve_engine.analyze_ms",
        per_req_ms (series d "deptest_serve_request_duration_ns_sum{endpoint=\"analyze\"}"),
        "ms" );
    ]

(* ---- S: in-process replay ---- *)

type replay = {
  parse_ms : float;
  parse_kw : float;
  sites_ms : float;
  run_ms : float;
  run_j1_ms : float;
  run_j1_kw : float;
  render_ms : float;
  pairs : int;
  outputs : string array;  (** the rendered answer per input *)
}

(* One pass over [inputs], per-input means. Each input is analyzed at
   [jobs] and at jobs=1, each setting with its own memo cache, new for
   every input when [memo_per_input] and for the pass otherwise. *)
let replay_pass ~jobs ~memo_per_input inputs =
  let n = Array.length inputs in
  let cfg_w = ref (Analyze.Config.make ~jobs ()) and cfg_1 = ref (Analyze.Config.make ~jobs:1 ()) in
  let parse = ref 0. and parse_w = ref 0. and sites = ref 0. and run = ref 0. in
  let run1 = ref 0. and run1_w = ref 0. and render = ref 0. and pairs = ref 0 in
  let outputs =
    Array.map
      (fun src ->
        if memo_per_input then (
          cfg_w := Analyze.Config.make ~jobs ();
          cfg_1 := Analyze.Config.make ~jobs:1 ());
        let progs, ns, w = alloc_span (fun () -> Dt_frontend.Lower.parse_unit src) in
        parse := !parse +. ns;
        parse_w := !parse_w +. w;
        let s, ns = span (fun () -> List.map Analyze.sites progs) in
        sites := !sites +. ns;
        pairs := !pairs + List.fold_left (fun a s -> a + Array.length s) 0 s;
        let results, ns = span (fun () -> Analyze.run_all !cfg_w progs) in
        run := !run +. ns;
        let _, ns, w = alloc_span (fun () -> Analyze.run_all !cfg_1 progs) in
        run1 := !run1 +. ns;
        run1_w := !run1_w +. w;
        let (out, _), ns = span (fun () -> Dt_serve.Render.unit_ progs results) in
        render := !render +. ns;
        out)
      inputs
  in
  let ms x = x /. 1e6 /. float_of_int n and kw x = x /. 1e3 /. float_of_int n in
  {
    parse_ms = ms !parse;
    parse_kw = kw !parse_w;
    sites_ms = ms !sites;
    run_ms = ms !run;
    run_j1_ms = ms !run1;
    run_j1_kw = kw !run1_w;
    render_ms = ms !render;
    pairs = !pairs;
    outputs;
  }

(* passes until [seconds] have gone (at least two); times are the
   median over passes, counts those of the first pass *)
let replay ~seconds ~jobs ~memo_per_input inputs =
  let t0 = Live.now_s () in
  let rec go acc =
    let r = replay_pass ~jobs ~memo_per_input inputs in
    if List.length acc >= 1 && Live.now_s () -. t0 >= seconds then List.rev (r :: acc)
    else go (r :: acc)
  in
  let passes = Array.of_list (go []) in
  let med f = Stats.median (Array.map f passes) in
  let first = passes.(0) in
  Array.iter
    (fun p -> if p.pairs <> first.pairs then failwith "analyze.pairs differs between passes")
    passes;
  ( first,
    [
      ("frontend.parse_ms", med (fun p -> p.parse_ms), "ms");
      ("frontend.minor_kw", med (fun p -> p.parse_kw), "kw");
      ("analyze.sites_ms", med (fun p -> p.sites_ms), "ms");
      ("analyze.run_ms", med (fun p -> p.run_ms), "ms");
      ("analyze.run_j1_ms", med (fun p -> p.run_j1_ms), "ms");
      ("analyze.minor_kw", med (fun p -> p.run_j1_kw), "kw");
      ("render.ms", med (fun p -> p.render_ms), "ms");
    ] )

(* spawn and join of the pool's domains around an empty body *)
let pool_spawn_join_us ~jobs =
  let pool = Pool.create ~jobs () in
  median_of 50 (fun () ->
      snd (span (fun () -> ignore (Pool.run pool ~n:jobs ~state:(fun _ -> ()) ~body:(fun () _ -> ()))))
      /. 1e3)

(* the same fingerprint the daemon keys its store with *)
let store_fingerprint ~jobs =
  Dt_report.Record.fingerprint ~label:"serve"
    ~config:(Dt_report.Record.config_of (Analyze.Config.make ~jobs ()))
    ~source:(Dt_report.Record.source_of Store.schema_version)

let response_key source = "r:" ^ Digest.to_hex (Digest.string source)

let response output = Protocol.ok [ ("output", Json.String output); ("degraded", Json.Int 0) ]

(* add + flush into a fresh directory, then open [dir] (the workload's
   own cache directory when it has one) and look every input up *)
let store_layer ~jobs ~dir inputs outputs =
  let fingerprint = store_fingerprint ~jobs in
  let probe = "store-probe" in
  let s = Store.open_ ~dir:probe ~fingerprint () in
  let (), add_ns =
    span (fun () ->
        Array.iteri (fun i src -> Store.add s (response_key src) (response outputs.(i))) inputs)
  in
  let _, flush_ns = span (fun () -> Store.flush s) in
  let dir = Option.value dir ~default:probe in
  let open_ms = median_of 5 (fun () -> snd (span (fun () -> Store.open_ ~dir ~fingerprint ())) /. 1e6) in
  let s = Store.open_ ~dir ~fingerprint () in
  let (), find_ns =
    span (fun () ->
        Array.iter
          (fun src ->
            if Store.find s (response_key src) = None then
              failwith ("store lookup missed in " ^ dir))
          inputs)
  in
  let n = float_of_int (Array.length inputs) in
  [
    ("store.open_ms", open_ms, "ms");
    ("store.find_us", find_ns /. 1e3 /. n, "us");
    ("store.add_us", add_ns /. 1e3 /. n, "us");
    ("store.flush_ms", flush_ns /. 1e6, "ms");
  ]

(* JSON protocol encode + decode of a request and its response, and
   both frames over a socketpair *)
let wire_layer inputs outputs =
  let n = Array.length inputs in
  let payloads =
    Array.mapi
      (fun i src ->
        let req =
          Protocol.Analyze
            { source = src; id = None; trace_id = Some (Dt_obs.Reqtrace.gen_id ()); deadline_ms = None }
        in
        (req, response outputs.(i)))
      inputs
  in
  let codec () =
    snd
      (span (fun () ->
           Array.iter
             (fun (req, resp) ->
               let s = Json.to_string (Protocol.request_to_json req) in
               (match Json.of_string s with
               | Ok j -> ignore (Protocol.request_of_json j)
               | Error e -> failwith e);
               ignore (Json.of_string (Json.to_string resp)))
             payloads))
    /. 1e3 /. float_of_int n
  in
  let texts =
    Array.map
      (fun (req, resp) -> (Json.to_string (Protocol.request_to_json req), Json.to_string resp))
      payloads
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frames () =
    snd
      (span (fun () ->
           Array.iter
             (fun (req, resp) ->
               Dt_support.Frame.write a req;
               ignore (Dt_support.Frame.read b);
               Dt_support.Frame.write b resp;
               ignore (Dt_support.Frame.read a))
             texts))
    /. 1e3 /. float_of_int n
  in
  let frame_us =
    Fun.protect
      ~finally:(fun () ->
        Unix.close a;
        Unix.close b)
      (fun () -> median_of 5 frames)
  in
  [ ("protocol.codec_us", median_of 5 codec, "us"); ("frame.roundtrip_us", frame_us, "us") ]

let client_connect_us socket =
  median_of 200 (fun () ->
      snd (span (fun () -> Dt_serve.Client.close (Dt_serve.Client.connect ~socket))) /. 1e3)

(* ---- the live passes ---- *)

type live = {
  p50_plain : float;  (** plain requests, ms *)
  p50_traced : float;  (** traced requests, ms *)
  snapshot : (string, float) Hashtbl.t;  (** M diff over the pass *)
  snapshot_reqs : int;  (** the requests the M diff spans *)
  cpu_ms : float;  (** deptest CPU per plain request *)
  nivcsw : float;  (** involuntary context switches per request *)
  connect_us : float;
  attempted : int;
  failed : int;
}

(* One daemon answers the inputs in order. Every second request is
   traced: a [metrics] scrape, the M source, follows its analyze round
   trip and is timed with it. The other requests are plain; the daemon
   CPU across each of them is [proc.cpu_ms]. The M diff spans the pass. *)
let serve_live env ~cache_dir ~inputs ~expected =
  let n = Array.length inputs in
  let d = Live.start_daemon env ~cache_dir in
  let result =
    try
      let before = parse_prom (Live.metrics_text d.Live.socket) in
      let plain = ref [] and traced = ref [] and failed = ref 0 and cpu = ref 0. in
      Array.iteri
        (fun i source ->
          let c0 = Sysproc.cpu_ms d.Live.pid in
          let ms, answer = Live.request d.Live.socket source in
          (match answer with Live.Answer out when out = expected i -> () | _ -> incr failed);
          if i mod 2 = 0 then (
            cpu := !cpu +. Sysproc.cpu_ms d.Live.pid -. c0;
            plain := ms :: !plain)
          else
            let (), ns = span (fun () -> ignore (Live.metrics_text d.Live.socket)) in
            traced := (ms +. (ns /. 1e6)) :: !traced)
        inputs;
      let diff = sub before (parse_prom (Live.metrics_text d.Live.socket)) in
      Ok (!plain, !traced, !failed, !cpu, diff, client_connect_us d.Live.socket)
    with e -> Error e
  in
  let _, usage = Live.stop_daemon d in
  match result with
  | Error e -> raise e
  | Ok (plain, traced, failed, cpu, diff, connect_us) ->
      {
        p50_plain = Stats.median (Array.of_list plain);
        p50_traced = Stats.median (Array.of_list traced);
        snapshot = diff;
        snapshot_reqs = n;
        cpu_ms = cpu /. float_of_int (List.length plain);
        nivcsw = float_of_int usage.Sysproc.nivcsw /. float_of_int n;
        connect_us;
        attempted = n;
        failed;
      }

(* invocations alternate between plain and traced ([--prom], the M
   source) *)
let oneshot_live env ~n ~expected =
  let plain = ref [] and traced = ref [] and failed = ref 0 in
  let total = Hashtbl.create 128 and cpu_us = ref 0 and nivcsw = ref 0 in
  for i = 0 to (2 * n) - 1 do
    let prom = i mod 2 = 1 in
    let args = if prom then [ "--prom"; "run.prom" ] else [] in
    let r = Live.analyze env ~args ~out:"run.out" "corpus.f" in
    if r.code <> 0 || Sysproc.read_file "run.out" <> expected then incr failed;
    if prom then (
      traced := r.wall_s :: !traced;
      add_into total (parse_prom (Sysproc.read_file "run.prom")))
    else (
      plain := r.wall_s :: !plain;
      cpu_us := !cpu_us + r.usage.cpu_us;
      nivcsw := !nivcsw + r.usage.nivcsw)
  done;
  (* the one-shot path has no daemon: the connect probe uses one *)
  let d = Live.start_daemon env ~cache_dir:"connect-cache" in
  let connect_us = Fun.protect ~finally:(fun () -> ignore (Live.stop_daemon d)) (fun () -> client_connect_us d.Live.socket) in
  {
    p50_plain = Stats.median (Array.of_list !plain) *. 1000.;
    p50_traced = Stats.median (Array.of_list !traced) *. 1000.;
    snapshot = total;
    snapshot_reqs = n;
    cpu_ms = float_of_int !cpu_us /. 1000. /. float_of_int n;
    nivcsw = float_of_int !nivcsw /. float_of_int n;
    connect_us;
    attempted = 2 * n;
    failed = !failed;
  }

(* jobs=1 snapshot through the serve engine, in-process *)
let engine_j1 ~cache_dir inputs =
  let e = Dt_serve.Engine.create ~jobs:1 ~cache_dir () in
  Array.iter
    (fun source ->
      ignore
        (Dt_serve.Engine.handle e
           (Protocol.Analyze { source; id = None; trace_id = None; deadline_ms = None })))
    inputs;
  match Json.member "prometheus" (Dt_serve.Engine.handle e (Protocol.Metrics { prometheus = true })) with
  | Some (Json.String s) -> parse_prom s
  | _ -> failwith "engine metrics without a snapshot"

let check_repeat a b =
  List.iter2
    (fun (name, x, _) (_, y, _) ->
      if x <> y then failwith (Printf.sprintf "%s differs between two collections: %g vs %g" name x y))
    a b

(* the live pass size of each workload *)
let sizes = function "oneshot-corpus" -> 30 | "serve-cold" -> 100 | _ -> 400

(* what the traced run needs from a workload *)
type plan = {
  jobs : int;  (** the jobs setting the workload's program runs at *)
  memo_per_input : bool;  (** a fresh memo per input (a one-shot process), else per pass *)
  inputs : string array;  (** the live pass's requests, in order *)
  expected : string array;  (** their references *)
  live : unit -> live;
  j1 : unit -> (string, float) Hashtbl.t;  (** a jobs=1 snapshot *)
  store_dir : unit -> string option;  (** the workload's cache directory, after [live] *)
}

let plan env ~workload ~seed =
  let k = sizes workload in
  match workload with
  | "oneshot-corpus" ->
      Sysproc.write_file "corpus.f" (Inputs.corpus_unit seed);
      let expected = Live.references env [| "corpus.f" |] in
      {
        jobs = 0;
        memo_per_input = true;
        inputs = [| Inputs.corpus_unit seed |];
        expected;
        live = (fun () -> oneshot_live env ~n:k ~expected:expected.(0));
        j1 =
          (fun () ->
            let r = Live.analyze env ~args:[ "-j"; "1"; "--prom"; "j1.prom" ] ~out:"j1.out" "corpus.f" in
            if r.code <> 0 then failwith "analyze -j 1 --prom failed";
            parse_prom (Sysproc.read_file "j1.prom"));
        store_dir = (fun () -> None);
      }
  | "serve-cold" ->
      let inputs = Inputs.cold_programs seed k in
      let files = Array.init k (Printf.sprintf "cold%d.f") in
      Array.iteri (fun i s -> Sysproc.write_file files.(i) s) inputs;
      let expected = Live.references env files in
      let cache_dir = Live.fresh env "cache" in
      {
        jobs = Pool.clamp_auto 0;
        memo_per_input = false;
        inputs;
        expected;
        live = (fun () -> serve_live env ~cache_dir ~inputs ~expected:(Array.get expected));
        j1 = (fun () -> engine_j1 ~cache_dir:(Live.fresh env "j1cache") inputs);
        store_dir = (fun () -> Some cache_dir);
      }
  | _ ->
      let refs = Live.corpus_references env in
      Live.prime env ~cache_dir:"warm-cache" ~expected:refs;
      let draw = Inputs.warm_draws seed in
      let idx = Array.init k (fun _ -> draw ()) in
      let inputs = Array.map (Array.get Inputs.corpus) idx in
      let expected = Array.map (Array.get refs) idx in
      {
        jobs = Pool.clamp_auto 0;
        memo_per_input = true;
        inputs;
        expected;
        live =
          (fun () ->
            serve_live env ~cache_dir:"warm-cache" ~inputs ~expected:(Array.get expected));
        j1 = (fun () -> engine_j1 ~cache_dir:"warm-cache" inputs);
        store_dir = (fun () -> Some "warm-cache");
      }

let run env ~workload ~seed ~seconds =
  let p = plan env ~workload ~seed in
  let l = p.live () in
  let first, replayed = replay ~seconds ~jobs:p.jobs ~memo_per_input:p.memo_per_input p.inputs in
  if first.outputs <> p.expected then failwith "in-process replay differs from reference";
  let snap = p.j1 () in
  let det = deterministic ~pairs:first.pairs snap in
  check_repeat det (deterministic ~pairs:first.pairs (p.j1 ()));
  let metrics =
    replayed @ det @ from_j1 snap @ from_live ~n:l.snapshot_reqs l.snapshot
    @ [ ("pool.spawn_join_us", pool_spawn_join_us ~jobs:(Pool.clamp_auto 0), "us") ]
    @ store_layer ~jobs:p.jobs ~dir:(p.store_dir ()) p.inputs first.outputs
    @ wire_layer p.inputs first.outputs
    @ [
        ("client.connect_us", l.connect_us, "us");
        ("proc.cpu_ms", l.cpu_ms, "ms");
        ("proc.ctx_switches_invol", l.nivcsw, "count");
        ("trace.overhead", l.p50_traced /. l.p50_plain, "ratio");
      ]
  in
  (l.attempted, l.failed, metrics)
