type phase = Parse | Partition | Test | Merge

let phases = [ Parse; Partition; Test; Merge ]
let phase_id = function Parse -> 0 | Partition -> 1 | Test -> 2 | Merge -> 3

let phase_name = function
  | Parse -> "parse"
  | Partition -> "partition"
  | Test -> "test"
  | Merge -> "merge"

let n_phases = 4

let bucket_bounds_ns =
  [| 1_000L; 10_000L; 100_000L; 1_000_000L; 10_000_000L |]

let n_buckets = Array.length bucket_bounds_ns + 1

(* whole-request daemon latency: warm round trips sit in the tens of
   microseconds, cold analyses in the tens of milliseconds, so the
   request buckets run two decades above the per-pair ones. The top
   decade exists for saturation: with admission control a queued-then-
   admitted request can legitimately take seconds, and a histogram
   capped at 1s could not tell bounded queueing from a hang *)
let serve_bucket_bounds_ns =
  [| 100_000L; 1_000_000L; 10_000_000L; 100_000_000L; 1_000_000_000L;
     10_000_000_000L |]

let n_serve_buckets = Array.length serve_bucket_bounds_ns + 1

(* per-endpoint serve accounting: one row per protocol op *)
type serve_row = {
  mutable r_count : int;
  mutable r_sum_ns : int64;
  r_hist : int array;  (* per serve_bucket_bounds_ns + overflow *)
}

(* per-domain engine accounting: work executed by one worker domain *)
type engine_row = {
  mutable tasks : int;  (* grain-sized leaves executed *)
  mutable steals : int;  (* ranges this worker took from another deque *)
  mutable busy_ns : int64;  (* time inside leaf bodies *)
  mutable wait_ns : int64;  (* time acquiring work (pop, steal, backoff) *)
}

type t = {
  applied : int array;  (* per Test_kind.id *)
  indep : int array;
  kind_ns : int64 array;
  phase_ns : int64 array;  (* per phase_id *)
  hist : int array;  (* per-pair latency buckets *)
  mutable pairs : int;
  mutable pair_ns : int64;
  mutable cache_hits : int;  (* pair verdicts served by the memo cache *)
  mutable cache_misses : int;
  mutable cache_size : int;  (* resident memo entries, snapshot after a run *)
  (* the serve daemon's response store, snapshot semantics *)
  mutable disk_hits : int;
  mutable disk_misses : int;
  mutable disk_invalid : int;  (* corrupt segments / undecodable entries *)
  mutable bj_compile : int;  (* Banerjee linear-form kernel compilations *)
  mutable bj_inc_nodes : int;  (* hierarchy nodes via the incremental path *)
  mutable bj_scratch_nodes : int;  (* nodes re-evaluated from scratch *)
  mutable bj_caps : int;  (* vertex cross products hitting the combo cap *)
  (* pairs degraded to the conservative full direction-vector verdict,
     bucketed by the guard's reason *)
  mutable g_overflow : int;
  mutable g_exception : int;
  mutable g_budget : int;
  eng : (int, engine_row) Hashtbl.t;  (* per-domain engine rows *)
  mutable eng_registries : int;  (* worker registries merged into this one *)
  mutable eng_shards : int;  (* routine-grain shards dispatched to the pool *)
  serve : (string, serve_row) Hashtbl.t;  (* per-endpoint request rows *)
  answered : (string, int ref) Hashtbl.t;  (* analyze answers per cache tier *)
}

let create () =
  {
    applied = Array.make Test_kind.count 0;
    indep = Array.make Test_kind.count 0;
    kind_ns = Array.make Test_kind.count 0L;
    phase_ns = Array.make n_phases 0L;
    hist = Array.make n_buckets 0;
    pairs = 0;
    pair_ns = 0L;
    cache_hits = 0;
    cache_misses = 0;
    cache_size = 0;
    disk_hits = 0;
    disk_misses = 0;
    disk_invalid = 0;
    bj_compile = 0;
    bj_inc_nodes = 0;
    bj_scratch_nodes = 0;
    bj_caps = 0;
    g_overflow = 0;
    g_exception = 0;
    g_budget = 0;
    eng = Hashtbl.create 8;
    eng_registries = 0;
    eng_shards = 0;
    serve = Hashtbl.create 8;
    answered = Hashtbl.create 8;
  }

let now_ns = Clock.now_ns

let record t k ~indep ~ns =
  let i = Test_kind.id k in
  t.applied.(i) <- t.applied.(i) + 1;
  if indep then t.indep.(i) <- t.indep.(i) + 1;
  t.kind_ns.(i) <- Int64.add t.kind_ns.(i) ns

let add_phase_ns t p ns =
  let i = phase_id p in
  t.phase_ns.(i) <- Int64.add t.phase_ns.(i) ns

let timed m p f =
  match m with
  | None -> f ()
  | Some t ->
      let t0 = now_ns () in
      Fun.protect ~finally:(fun () -> add_phase_ns t p (Int64.sub (now_ns ()) t0)) f

let bucket_of ns =
  let rec go i =
    if i >= Array.length bucket_bounds_ns then i
    else if Int64.compare ns bucket_bounds_ns.(i) <= 0 then i
    else go (i + 1)
  in
  go 0

let observe_pair t ~ns =
  t.pairs <- t.pairs + 1;
  t.pair_ns <- Int64.add t.pair_ns ns;
  let b = bucket_of ns in
  t.hist.(b) <- t.hist.(b) + 1

let cache_hit t = t.cache_hits <- t.cache_hits + 1
let cache_miss t = t.cache_misses <- t.cache_misses + 1
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses

let set_cache_size t size = t.cache_size <- size
let cache_size t = t.cache_size

let set_disk_cache t ~hits ~misses ~invalid =
  t.disk_hits <- hits;
  t.disk_misses <- misses;
  t.disk_invalid <- invalid

let disk_hits t = t.disk_hits
let disk_misses t = t.disk_misses
let disk_invalid t = t.disk_invalid

let banerjee_compile t = t.bj_compile <- t.bj_compile + 1

let banerjee_node t ~incremental =
  if incremental then t.bj_inc_nodes <- t.bj_inc_nodes + 1
  else t.bj_scratch_nodes <- t.bj_scratch_nodes + 1

let banerjee_cap t = t.bj_caps <- t.bj_caps + 1

let degraded t reason =
  match reason with
  | `Overflow -> t.g_overflow <- t.g_overflow + 1
  | `Exception -> t.g_exception <- t.g_exception + 1
  | `Budget -> t.g_budget <- t.g_budget + 1

let degraded_pairs t = t.g_overflow + t.g_exception + t.g_budget

let degraded_by t reason =
  match reason with
  | `Overflow -> t.g_overflow
  | `Exception -> t.g_exception
  | `Budget -> t.g_budget

let engine_row t domain =
  match Hashtbl.find_opt t.eng domain with
  | Some r -> r
  | None ->
      let r = { tasks = 0; steals = 0; busy_ns = 0L; wait_ns = 0L } in
      Hashtbl.replace t.eng domain r;
      r

let engine_task t ~domain ~ns =
  let r = engine_row t domain in
  r.tasks <- r.tasks + 1;
  r.busy_ns <- Int64.add r.busy_ns ns

let engine_wait t ~domain ~ns =
  let r = engine_row t domain in
  r.wait_ns <- Int64.add r.wait_ns ns

let engine_steal t ~domain =
  let r = engine_row t domain in
  r.steals <- r.steals + 1

let engine_registry t = t.eng_registries <- t.eng_registries + 1
let engine_registries t = t.eng_registries
let engine_shards t ~n = t.eng_shards <- t.eng_shards + n
let shards t = t.eng_shards

let engine_rows t =
  Hashtbl.fold
    (fun d r acc -> (d, r.tasks, r.steals, r.busy_ns, r.wait_ns) :: acc)
    t.eng []
  |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b)
let serve_row t endpoint =
  match Hashtbl.find_opt t.serve endpoint with
  | Some r -> r
  | None ->
      let r = { r_count = 0; r_sum_ns = 0L; r_hist = Array.make n_serve_buckets 0 }
      in
      Hashtbl.replace t.serve endpoint r;
      r

let serve_bucket_of ns =
  let rec go i =
    if i >= Array.length serve_bucket_bounds_ns then i
    else if Int64.compare ns serve_bucket_bounds_ns.(i) <= 0 then i
    else go (i + 1)
  in
  go 0

let serve_endpoint t ~endpoint = ignore (serve_row t endpoint)

let serve_request t ~endpoint ~ns =
  let r = serve_row t endpoint in
  r.r_count <- r.r_count + 1;
  r.r_sum_ns <- Int64.add r.r_sum_ns ns;
  let b = serve_bucket_of ns in
  r.r_hist.(b) <- r.r_hist.(b) + 1

let tier_cell t tier =
  match Hashtbl.find_opt t.answered tier with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.replace t.answered tier c;
      c

let serve_tier t ~tier = ignore (tier_cell t tier)
let serve_answered t ~tier = incr (tier_cell t tier)

let serve_rows t =
  Hashtbl.fold
    (fun ep r acc -> (ep, r.r_count, r.r_sum_ns, Array.copy r.r_hist) :: acc)
    t.serve []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let serve_tiers t =
  Hashtbl.fold (fun tier c acc -> (tier, !c) :: acc) t.answered []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let banerjee_compilations t = t.bj_compile
let banerjee_incremental_nodes t = t.bj_inc_nodes
let banerjee_scratch_nodes t = t.bj_scratch_nodes
let banerjee_caps t = t.bj_caps

let applied t k = t.applied.(Test_kind.id k)
let proved_indep t k = t.indep.(Test_kind.id k)
let kind_ns t k = t.kind_ns.(Test_kind.id k)
let phase_ns t p = t.phase_ns.(phase_id p)
let pairs t = t.pairs
let pair_ns_total t = t.pair_ns
let latency_hist t = Array.copy t.hist

let merge_into acc extra =
  Array.iteri (fun i v -> acc.applied.(i) <- acc.applied.(i) + v) extra.applied;
  Array.iteri (fun i v -> acc.indep.(i) <- acc.indep.(i) + v) extra.indep;
  Array.iteri
    (fun i v -> acc.kind_ns.(i) <- Int64.add acc.kind_ns.(i) v)
    extra.kind_ns;
  Array.iteri
    (fun i v -> acc.phase_ns.(i) <- Int64.add acc.phase_ns.(i) v)
    extra.phase_ns;
  Array.iteri (fun i v -> acc.hist.(i) <- acc.hist.(i) + v) extra.hist;
  acc.pairs <- acc.pairs + extra.pairs;
  acc.pair_ns <- Int64.add acc.pair_ns extra.pair_ns;
  acc.cache_hits <- acc.cache_hits + extra.cache_hits;
  acc.cache_misses <- acc.cache_misses + extra.cache_misses;
  (* size is a snapshot of a shared table, not a per-registry
     increment: summing registries that observed the same cache would
     double-count, so the merge keeps the larger snapshot *)
  acc.cache_size <- max acc.cache_size extra.cache_size;
  (* the response-store counters are likewise snapshots of one store *)
  acc.disk_hits <- max acc.disk_hits extra.disk_hits;
  acc.disk_misses <- max acc.disk_misses extra.disk_misses;
  acc.disk_invalid <- max acc.disk_invalid extra.disk_invalid;
  acc.bj_compile <- acc.bj_compile + extra.bj_compile;
  acc.bj_inc_nodes <- acc.bj_inc_nodes + extra.bj_inc_nodes;
  acc.bj_scratch_nodes <- acc.bj_scratch_nodes + extra.bj_scratch_nodes;
  acc.bj_caps <- acc.bj_caps + extra.bj_caps;
  acc.g_overflow <- acc.g_overflow + extra.g_overflow;
  acc.g_exception <- acc.g_exception + extra.g_exception;
  acc.g_budget <- acc.g_budget + extra.g_budget;
  Hashtbl.iter
    (fun d (er : engine_row) ->
      let r = engine_row acc d in
      r.tasks <- r.tasks + er.tasks;
      r.steals <- r.steals + er.steals;
      r.busy_ns <- Int64.add r.busy_ns er.busy_ns;
      r.wait_ns <- Int64.add r.wait_ns er.wait_ns)
    extra.eng;
  acc.eng_registries <- acc.eng_registries + extra.eng_registries;
  acc.eng_shards <- acc.eng_shards + extra.eng_shards;
  Hashtbl.iter
    (fun ep (er : serve_row) ->
      let r = serve_row acc ep in
      r.r_count <- r.r_count + er.r_count;
      r.r_sum_ns <- Int64.add r.r_sum_ns er.r_sum_ns;
      Array.iteri (fun i v -> r.r_hist.(i) <- r.r_hist.(i) + v) er.r_hist)
    extra.serve;
  Hashtbl.iter
    (fun tier c ->
      let cell = tier_cell acc tier in
      cell := !cell + !c)
    extra.answered

let merge a b =
  let t = create () in
  merge_into t a;
  merge_into t b;
  t

(* ------------------------------------------------------------------ *)
(* export                                                              *)

let bucket_label i =
  if i < Array.length bucket_bounds_ns then
    let b = bucket_bounds_ns.(i) in
    if Int64.compare b 1_000_000L < 0 then
      Printf.sprintf "<=%Ldus" (Int64.div b 1_000L)
    else Printf.sprintf "<=%Ldms" (Int64.div b 1_000_000L)
  else ">10ms"

let serve_bucket_label i =
  if i < Array.length serve_bucket_bounds_ns then
    let b = serve_bucket_bounds_ns.(i) in
    if Int64.compare b 1_000_000L < 0 then
      Printf.sprintf "<=%Ldus" (Int64.div b 1_000L)
    else if Int64.compare b 1_000_000_000L < 0 then
      Printf.sprintf "<=%Ldms" (Int64.div b 1_000_000L)
    else Printf.sprintf "<=%Lds" (Int64.div b 1_000_000_000L)
  else ">10s"

(* the serve block appears only once the daemon reported, so batch-run
   snapshots (analyze --metrics-out, records, the drift ledger) are
   byte-identical to pre-serve ones *)
let serve_json t =
  if Hashtbl.length t.serve = 0 && Hashtbl.length t.answered = 0 then []
  else
    [
      ( "serve",
        Json.Obj
          [
            ( "endpoints",
              Json.List
                (List.map
                   (fun (ep, count, sum_ns, hist) ->
                     Json.Obj
                       [
                         ("endpoint", Json.String ep);
                         ("requests", Json.Int count);
                         ("total_ns", Json.Int (Int64.to_int sum_ns));
                         ( "latency_hist",
                           Json.List
                             (Array.to_list
                                (Array.mapi
                                   (fun i c ->
                                     Json.Obj
                                       [
                                         ( "le_ns",
                                           if
                                             i
                                             < Array.length
                                                 serve_bucket_bounds_ns
                                           then
                                             Json.Int
                                               (Int64.to_int
                                                  serve_bucket_bounds_ns.(i))
                                           else Json.Null );
                                         ( "label",
                                           Json.String (serve_bucket_label i)
                                         );
                                         ("count", Json.Int c);
                                       ])
                                   hist)) );
                       ])
                   (serve_rows t)) );
            ( "answered",
              Json.Obj
                (List.map (fun (tier, n) -> (tier, Json.Int n)) (serve_tiers t))
            );
          ] );
    ]

let to_json t =
  let tests =
    List.map
      (fun k ->
        let i = Test_kind.id k in
        Json.Obj
          [
            ("kind", Json.String (Test_kind.slug k));
            ("name", Json.String (Test_kind.name k));
            ("applied", Json.Int t.applied.(i));
            ("independent", Json.Int t.indep.(i));
            ("total_ns", Json.Int (Int64.to_int t.kind_ns.(i)));
          ])
      Test_kind.all
  in
  let phases_json =
    List.map
      (fun p -> (phase_name p ^ "_ns", Json.Int (Int64.to_int (phase_ns t p))))
      phases
  in
  let hist =
    List.init n_buckets (fun i ->
        Json.Obj
          [
            ( "le_ns",
              if i < Array.length bucket_bounds_ns then
                Json.Int (Int64.to_int bucket_bounds_ns.(i))
              else Json.Null );
            ("label", Json.String (bucket_label i));
            ("count", Json.Int t.hist.(i));
          ])
  in
  Json.Obj
    ([
      (* /2: the cache block gained size *)
      ("schema", Json.String "deptest-metrics/2");
      ("tests", Json.List tests);
      ("phases", Json.Obj phases_json);
      ( "pairs",
        Json.Obj
          [
            ("tested", Json.Int t.pairs);
            ("total_ns", Json.Int (Int64.to_int t.pair_ns));
            ("latency_hist", Json.List hist);
          ] );
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int t.cache_hits);
            ("misses", Json.Int t.cache_misses);
            ( "hit_rate",
              let n = t.cache_hits + t.cache_misses in
              Json.Float
                (if n = 0 then 0.
                 else float_of_int t.cache_hits /. float_of_int n) );
            ("size", Json.Int t.cache_size);
            ("disk_hits", Json.Int t.disk_hits);
            ("disk_misses", Json.Int t.disk_misses);
            ("disk_invalid", Json.Int t.disk_invalid);
          ] );
      ( "banerjee",
        Json.Obj
          [
            ("kernel_compilations", Json.Int t.bj_compile);
            ("incremental_nodes", Json.Int t.bj_inc_nodes);
            ("scratch_nodes", Json.Int t.bj_scratch_nodes);
            ("combo_cap_fallbacks", Json.Int t.bj_caps);
          ] );
      ( "guard",
        Json.Obj
          [
            ("degraded", Json.Int (degraded_pairs t));
            ( "by_reason",
              Json.Obj
                [
                  ("overflow", Json.Int t.g_overflow);
                  ("exception", Json.Int t.g_exception);
                  ("budget", Json.Int t.g_budget);
                ] );
          ] );
      ( "engine",
        let rows = engine_rows t in
        let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
        let sum64 f = List.fold_left (fun a r -> Int64.add a (f r)) 0L rows in
        Json.Obj
          [
            ("registries", Json.Int t.eng_registries);
            ("shards", Json.Int t.eng_shards);
            ( "domains",
              Json.List
                (List.map
                   (fun (d, tasks, steals, busy, wait) ->
                     Json.Obj
                       [
                         ("domain", Json.Int d);
                         ("tasks", Json.Int tasks);
                         ("steals", Json.Int steals);
                         ("busy_ns", Json.Int (Int64.to_int busy));
                         ("queue_wait_ns", Json.Int (Int64.to_int wait));
                       ])
                   rows) );
            ("tasks", Json.Int (sum (fun (_, n, _, _, _) -> n)));
            ("steals", Json.Int (sum (fun (_, _, s, _, _) -> s)));
            ( "busy_ns",
              Json.Int (Int64.to_int (sum64 (fun (_, _, _, b, _) -> b))) );
            ( "queue_wait_ns",
              Json.Int (Int64.to_int (sum64 (fun (_, _, _, _, w) -> w))) );
          ] );
    ]
    @ serve_json t)

let us ns = Int64.to_float ns /. 1_000.0

let pp ppf t =
  Format.fprintf ppf "%-18s %9s %9s %12s %10s@." "test" "applied" "indep"
    "total(us)" "avg(ns)";
  List.iter
    (fun k ->
      let i = Test_kind.id k in
      let a = t.applied.(i) in
      if a > 0 then
        Format.fprintf ppf "%-18s %9d %9d %12.1f %10.0f@." (Test_kind.name k)
          a t.indep.(i)
          (us t.kind_ns.(i))
          (Int64.to_float t.kind_ns.(i) /. float_of_int a))
    Test_kind.all;
  Format.fprintf ppf "@.%-18s %12s@." "phase" "wall(us)";
  List.iter
    (fun p -> Format.fprintf ppf "%-18s %12.1f@." (phase_name p) (us (phase_ns t p)))
    phases;
  Format.fprintf ppf "@.pairs tested %d, total %.1f us@." t.pairs (us t.pair_ns);
  (if t.cache_hits + t.cache_misses > 0 then
     let n = t.cache_hits + t.cache_misses in
     Format.fprintf ppf
       "memo cache: %d hits / %d lookups (%.1f%%), %d entr%s resident@."
       t.cache_hits n
       (100. *. float_of_int t.cache_hits /. float_of_int n)
       t.cache_size
       (if t.cache_size = 1 then "y" else "ies"));
  if t.disk_hits + t.disk_misses + t.disk_invalid > 0 then
    Format.fprintf ppf
      "response store: %d hits / %d lookups, %d invalid object(s)@." t.disk_hits
      (t.disk_hits + t.disk_misses)
      t.disk_invalid;
  if t.bj_compile + t.bj_inc_nodes + t.bj_scratch_nodes + t.bj_caps > 0 then
    Format.fprintf ppf
      "banerjee kernel: %d compiled, %d incremental / %d scratch nodes, %d \
       cap fallback(s)@."
      t.bj_compile t.bj_inc_nodes t.bj_scratch_nodes t.bj_caps;
  if degraded_pairs t > 0 then
    Format.fprintf ppf
      "guard: %d pair(s) degraded conservatively (%d overflow, %d \
       exception, %d budget)@."
      (degraded_pairs t) t.g_overflow t.g_exception t.g_budget;
  (let rows = engine_rows t in
   if rows <> [] then begin
     Format.fprintf ppf "engine: %d worker registr%s merged%t@."
       t.eng_registries
       (if t.eng_registries = 1 then "y" else "ies")
       (fun ppf ->
         if t.eng_shards > 0 then
           Format.fprintf ppf ", %d routine shard(s)" t.eng_shards);
     List.iter
       (fun (d, tasks, steals, busy, wait) ->
         Format.fprintf ppf
           "  domain %d: %d task(s), %d steal(s), busy %.1f us, queue wait \
            %.1f us@."
           d tasks steals (us busy) (us wait))
       rows
   end);
  (let rows = serve_rows t in
   if rows <> [] then begin
     List.iter
       (fun (ep, count, sum_ns, _) ->
         Format.fprintf ppf
           "serve %-10s %d request(s), total %.1f us, avg %.0f ns@." ep count
           (us sum_ns)
           (if count = 0 then 0.
            else Int64.to_float sum_ns /. float_of_int count))
       rows;
     match serve_tiers t with
     | [] -> ()
     | tiers ->
         Format.fprintf ppf "serve answered:";
         List.iter (fun (tier, n) -> Format.fprintf ppf " %s:%d" tier n) tiers;
         Format.fprintf ppf "@."
   end);
  Format.fprintf ppf "pair latency:";
  Array.iteri
    (fun i c -> if c > 0 then Format.fprintf ppf " %s:%d" (bucket_label i) c)
    t.hist;
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Prometheus text-format exposition (the surface a serve daemon's
   /metrics endpoint mounts). Metric names are stable; every per-kind
   series is emitted even at zero so scrapes never lose a series. *)

let prom_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_prometheus ?(build = []) t =
  let buf = Buffer.create 4096 in
  let family name typ help =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  let sample ?labels name v =
    Buffer.add_string buf name;
    (match labels with
    | Some ls ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "%s=\"%s\"" k (prom_escape v)))
          ls;
        Buffer.add_char buf '}'
    | None -> ());
    Buffer.add_char buf ' ';
    Buffer.add_string buf v;
    Buffer.add_char buf '\n'
  in
  let int_sample ?labels name v = sample ?labels name (string_of_int v) in
  let ns_sample ?labels name v = sample ?labels name (Int64.to_string v) in
  let per_kind name f =
    List.iter
      (fun k -> f ~labels:[ ("kind", Test_kind.slug k) ] name (Test_kind.id k))
      Test_kind.all
  in
  (* identity first: scrapes correlate drift with deploys by joining on
     these labels (label values must stay space-free for text-format
     consumers that split on whitespace) *)
  family "deptest_build_info" "gauge"
    "Build and schema identity of this process (value is always 1).";
  sample
    ~labels:
      ([
         ("git", Build_id.git);
         ("metrics_schema", "deptest-metrics/2");
         ("trace_schema", "deptest-trace/2");
       ]
      @ build)
    "deptest_build_info" "1";
  family "deptest_tests_applied_total" "counter"
    "Dependence-test applications by test kind.";
  per_kind "deptest_tests_applied_total" (fun ~labels name i ->
      int_sample ~labels name t.applied.(i));
  family "deptest_tests_independent_total" "counter"
    "Independence proofs by test kind.";
  per_kind "deptest_tests_independent_total" (fun ~labels name i ->
      int_sample ~labels name t.indep.(i));
  family "deptest_test_ns_total" "counter"
    "Wall-clock nanoseconds inside each test kind.";
  per_kind "deptest_test_ns_total" (fun ~labels name i ->
      ns_sample ~labels name t.kind_ns.(i));
  family "deptest_phase_ns_total" "counter"
    "Wall-clock nanoseconds per analysis phase.";
  List.iter
    (fun p ->
      ns_sample
        ~labels:[ ("phase", phase_name p) ]
        "deptest_phase_ns_total" (phase_ns t p))
    phases;
  family "deptest_pairs_tested_total" "counter"
    "Reference pairs that completed the driver.";
  int_sample "deptest_pairs_tested_total" t.pairs;
  family "deptest_pair_latency_ns" "histogram"
    "Per-reference-pair driver latency in nanoseconds.";
  (let cum = ref 0 in
   Array.iteri
     (fun i c ->
       cum := !cum + c;
       let le =
         if i < Array.length bucket_bounds_ns then
           Int64.to_string bucket_bounds_ns.(i)
         else "+Inf"
       in
       int_sample ~labels:[ ("le", le) ] "deptest_pair_latency_ns_bucket" !cum)
     t.hist);
  ns_sample "deptest_pair_latency_ns_sum" t.pair_ns;
  int_sample "deptest_pair_latency_ns_count" t.pairs;
  family "deptest_cache_hits_total" "counter"
    "Pair verdicts served by the structural memo cache.";
  int_sample "deptest_cache_hits_total" t.cache_hits;
  family "deptest_cache_misses_total" "counter" "Memo-cache lookup misses.";
  int_sample "deptest_cache_misses_total" t.cache_misses;
  family "deptest_cache_entries" "gauge"
    "Resident memo-cache entries after the run.";
  int_sample "deptest_cache_entries" t.cache_size;
  family "deptest_disk_cache_hits_total" "counter"
    "Responses served by the daemon's response store.";
  int_sample "deptest_disk_cache_hits_total" t.disk_hits;
  family "deptest_disk_cache_misses_total" "counter"
    "Response-store lookup misses.";
  int_sample "deptest_disk_cache_misses_total" t.disk_misses;
  family "deptest_disk_cache_invalid_total" "counter"
    "Invalid response-store objects skipped (corrupt segments, tmp \
     leftovers, undecodable responses).";
  int_sample "deptest_disk_cache_invalid_total" t.disk_invalid;
  family "deptest_banerjee_kernel_compilations_total" "counter"
    "Subscript pairs compiled into the linear-form kernel.";
  int_sample "deptest_banerjee_kernel_compilations_total" t.bj_compile;
  family "deptest_banerjee_nodes_total" "counter"
    "Banerjee hierarchy-node evaluations by path.";
  int_sample
    ~labels:[ ("path", "incremental") ]
    "deptest_banerjee_nodes_total" t.bj_inc_nodes;
  int_sample
    ~labels:[ ("path", "scratch") ]
    "deptest_banerjee_nodes_total" t.bj_scratch_nodes;
  family "deptest_banerjee_combo_cap_fallbacks_total" "counter"
    "Vertex cross products past the combination cap.";
  int_sample "deptest_banerjee_combo_cap_fallbacks_total" t.bj_caps;
  family "deptest_degraded_pairs_total" "counter"
    "Pairs degraded to the conservative verdict, by guard reason.";
  int_sample
    ~labels:[ ("reason", "overflow") ]
    "deptest_degraded_pairs_total" t.g_overflow;
  int_sample
    ~labels:[ ("reason", "exception") ]
    "deptest_degraded_pairs_total" t.g_exception;
  int_sample
    ~labels:[ ("reason", "budget") ]
    "deptest_degraded_pairs_total" t.g_budget;
  family "deptest_engine_registries_total" "counter"
    "Worker metrics registries merged into this snapshot.";
  int_sample "deptest_engine_registries_total" t.eng_registries;
  family "deptest_engine_shards_total" "counter"
    "Routine-grain shards dispatched to the work-stealing pool.";
  int_sample "deptest_engine_shards_total" t.eng_shards;
  family "deptest_engine_tasks_total" "counter"
    "Engine work leaves executed, by worker domain.";
  let rows = engine_rows t in
  List.iter
    (fun (d, tasks, _, _, _) ->
      int_sample
        ~labels:[ ("domain", string_of_int d) ]
        "deptest_engine_tasks_total" tasks)
    rows;
  family "deptest_engine_steals_total" "counter"
    "Ranges stolen from another worker's deque, by thief domain.";
  List.iter
    (fun (d, _, steals, _, _) ->
      int_sample
        ~labels:[ ("domain", string_of_int d) ]
        "deptest_engine_steals_total" steals)
    rows;
  family "deptest_engine_busy_ns_total" "counter"
    "Nanoseconds inside leaf bodies, by worker domain.";
  List.iter
    (fun (d, _, _, busy, _) ->
      ns_sample
        ~labels:[ ("domain", string_of_int d) ]
        "deptest_engine_busy_ns_total" busy)
    rows;
  family "deptest_engine_queue_wait_ns_total" "counter"
    "Nanoseconds acquiring work (pop, steal, backoff), by worker domain.";
  List.iter
    (fun (d, _, _, _, wait) ->
      ns_sample
        ~labels:[ ("domain", string_of_int d) ]
        "deptest_engine_queue_wait_ns_total" wait)
    rows;
  (* serve families appear only once the daemon reported (the engine
     pre-registers every endpoint and tier at startup, so a scrape's
     series set never depends on traffic) *)
  (let srows = serve_rows t in
   if srows <> [] then begin
     family "deptest_serve_request_duration_ns" "histogram"
       "Whole-request daemon latency in nanoseconds, by protocol endpoint.";
     List.iter
       (fun (ep, count, sum_ns, hist) ->
         let cum = ref 0 in
         Array.iteri
           (fun i c ->
             cum := !cum + c;
             let le =
               if i < Array.length serve_bucket_bounds_ns then
                 Int64.to_string serve_bucket_bounds_ns.(i)
               else "+Inf"
             in
             int_sample
               ~labels:[ ("endpoint", ep); ("le", le) ]
               "deptest_serve_request_duration_ns_bucket" !cum)
           hist;
         ns_sample
           ~labels:[ ("endpoint", ep) ]
           "deptest_serve_request_duration_ns_sum" sum_ns;
         int_sample
           ~labels:[ ("endpoint", ep) ]
           "deptest_serve_request_duration_ns_count" count)
       srows
   end);
  (match serve_tiers t with
  | [] -> ()
  | tiers ->
      family "deptest_serve_answered_total" "counter"
        "Analyze requests answered, by cache tier (response / cold) or \
         none for non-analyze and failed requests.";
      List.iter
        (fun (tier, n) ->
          int_sample ~labels:[ ("tier", tier) ] "deptest_serve_answered_total"
            n)
        tiers);
  Buffer.contents buf
