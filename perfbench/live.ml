(* The real deptest binary, driven from outside: one-shot invocations and
   a serve daemon answering over its socket, one request at a time. *)

module Json = Dt_obs.Json
module Client = Dt_serve.Client
module Protocol = Dt_serve.Protocol

type env = {
  deptest : string;  (** absolute path of the deptest executable *)
  maxrss : string;  (** absolute path of maxrss.exe *)
  mutable seq : int;  (** names fresh files in the run directory *)
}

let fresh env prefix =
  env.seq <- env.seq + 1;
  Printf.sprintf "%s%d" prefix env.seq

let now_s () = Int64.to_float (Dt_obs.Metrics.now_ns ()) /. 1e9

let devnull () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0

let with_fd fd f = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* ---- one-shot ---- *)

type invocation = { code : int; usage : Sysproc.usage; wall_s : float }

(* [deptest analyze args file > out]; wall from exec to reap *)
let analyze env ?(args = []) ~out file =
  with_fd (Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
  @@ fun fd ->
  with_fd (devnull ()) @@ fun null ->
  let t0 = now_s () in
  let pid =
    Sysproc.spawn ~stdout:fd ~stderr:null env.deptest ("analyze" :: (args @ [ file ]))
  in
  let code, usage = Sysproc.wait pid in
  { code; usage; wall_s = now_s () -. t0 }

(* [deptest analyze file > out] through maxrss.exe: its exit code and
   its peak resident set, kB *)
let analyze_maxrss env ~out file =
  with_fd (Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
  @@ fun fd ->
  with_fd (devnull ()) @@ fun null ->
  let pid =
    Sysproc.spawn ~stdout:fd ~stderr:null env.maxrss
      [ "rss.txt"; env.deptest; "analyze"; file ]
  in
  let code, _ = Sysproc.wait pid in
  (code, if code = 0 then int_of_string (String.trim (Sysproc.read_file "rss.txt")) else 0)

(* The correctness reference, the simplest route through the program:
   [deptest analyze -j 1 --no-cache] on each file, as many at once as
   there are cores. *)
let references env files =
  let out = Array.make (Array.length files) "" in
  let running = Hashtbl.create 4 and next = ref 0 in
  with_fd (devnull ()) @@ fun null ->
  while !next < Array.length files || Hashtbl.length running > 0 do
    if !next < Array.length files && Hashtbl.length running < Dt_support.Pool.recommended_jobs ()
    then (
      let o = fresh env "ref" in
      let pid =
        with_fd (Unix.openfile o [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
        @@ fun fd ->
        Sysproc.spawn ~stdout:fd ~stderr:null env.deptest
          [ "analyze"; "-j"; "1"; "--no-cache"; files.(!next) ]
      in
      Hashtbl.replace running pid (!next, o);
      incr next)
    else
      match Sysproc.wait4_any (-1) false with
      | Some (pid, code, _) when Hashtbl.mem running pid ->
          let i, o = Hashtbl.find running pid in
          Hashtbl.remove running pid;
          if code <> 0 then
            failwith (Printf.sprintf "reference analyze of %s exited %d" files.(i) code);
          out.(i) <- Sysproc.read_file o;
          Sys.remove o
      | _ -> ()
  done;
  out

(* ---- the daemon ---- *)

type daemon = { pid : int; socket : string; setup_s : float }

let alive pid = Sysproc.wait4 pid true = None

let health socket =
  match Client.call ~timeout_ms:1000 ~socket Protocol.Health with
  | Ok j -> Json.member "status" j = Some (Json.String "ok")
  | Error _ -> false

(* exec to the first [ok] health answer *)
let start_daemon env ~cache_dir =
  let socket = fresh env "d" ^ ".sock" in
  let t0, pid =
    with_fd (Unix.openfile (socket ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
    @@ fun log ->
    let t0 = now_s () in
    (t0, Sysproc.spawn ~stderr:log env.deptest [ "serve"; "--socket"; socket; "--cache-dir"; cache_dir ])
  in
  let rec poll () =
    if health socket then ()
    else if not (alive pid) then failwith "deptest serve exited before answering health"
    else if now_s () -. t0 > 60. then failwith "deptest serve did not answer health"
    else (
      Unix.sleepf 0.0002;
      poll ())
  in
  poll ();
  { pid; socket; setup_s = now_s () -. t0 }

(* [shutdown], then SIGTERM; always reaped *)
let stop_daemon d =
  ignore (Client.call ~timeout_ms:5000 ~socket:d.socket Protocol.Shutdown);
  match Sysproc.wait_for d.pid ~timeout_s:10. with
  | Some r -> r
  | None -> Sysproc.stop d.pid

type answer = Answer of string | Failed of string

(* one analyze round trip on the path [deptest client analyze] takes: a
   fresh connection, one framed request, one framed response *)
let request socket source =
  let req =
    Protocol.Analyze
      { source; id = None; trace_id = Some (Dt_obs.Reqtrace.gen_id ()); deadline_ms = None }
  in
  let t0 = now_s () in
  let r = Client.call ~socket req in
  let ms = (now_s () -. t0) *. 1000. in
  let answer =
    match r with
    | Error f -> Failed (Client.failure_message ~socket f)
    | Ok j -> (
        match (Json.member "ok" j, Json.member "output" j, Json.member "degraded" j) with
        | Some (Json.Bool true), Some (Json.String out), Some (Json.Int 0) -> Answer out
        | Some (Json.Bool true), _, Some (Json.Int n) ->
            Failed (Printf.sprintf "%d pair(s) degraded" n)
        | _ -> (
            match Json.member "error" j with
            | Some (Json.String e) -> Failed e
            | _ -> Failed "malformed response"))
  in
  (ms, answer)

let metrics_text socket =
  match Client.call ~socket (Protocol.Metrics { prometheus = true }) with
  | Ok j -> (
      match Json.member "prometheus" j with
      | Some (Json.String s) -> s
      | _ -> failwith "metrics op answered without a snapshot")
  | Error f -> failwith (Client.failure_message ~socket f)

(* ---- rounds ---- *)

(* One round is a fixed amount of work, the same in every round of a run:
   its set-up samples (a daemon start, or one-statement invocations), then
   [warmup] untimed requests, then [n] timed ones. *)
type round = {
  setup : float array;  (** set-up samples, s *)
  lat : float array;  (** latencies of the timed requests, ms *)
  secs : float;  (** wall of the timed requests *)
  cpu_ms : float;  (** deptest CPU spent on the timed requests *)
  rss_mb : float;  (** peak resident set of the deptest process(es) *)
  steal : float;  (** share of the machine's CPU time the host stole over the round *)
  calib : float;  (** the speed kernel's time around the round, s ([Calib]) *)
  attempted : int;  (** warm-up and timed requests *)
  failed : int;
  errors : string list;  (** the first few failure reasons *)
}

(* (steal, all) clock ticks of the machine's CPUs since [h] *)
let steal_since (st0, all0) =
  let st, all = Sysproc.host_ticks () in
  float_of_int (st - st0) /. float_of_int (max 1 (all - all0))

(* Closed loop with one client: [step i] performs request [i] and
   returns its latency and its failure, if any. Requests [0, warmup) are
   untimed, [warmup, warmup + n) timed. [cpu ()] reads the deptest CPU
   so far, ms. *)
let closed_loop ~warmup ~n ~cpu step =
  let failed = ref 0 and errors = ref [] in
  let note = function
    | None -> ()
    | Some e ->
        incr failed;
        if List.length !errors < 5 then errors := e :: !errors
  in
  for i = 0 to warmup - 1 do
    note (snd (step i))
  done;
  let t0 = now_s () and c0 = cpu () in
  let lat =
    Array.init n (fun i ->
        let ms, err = step (warmup + i) in
        note err;
        ms)
  in
  let secs = now_s () -. t0 in
  (lat, secs, cpu () -. c0, !failed, List.rev !errors)

(* [round ()] returns one round but its steal and its speed, which are
   taken here *)
let measured round =
  let k0 = Calib.measure () in
  let h = Sysproc.host_ticks () in
  let r = round () in
  let steal = steal_since h in
  { r with steal; calib = (k0 +. Calib.measure ()) /. 2. }

(* Rounds until [seconds] have gone, at least [min_rounds]. A failed
   request ends the run after its round.

   The rounds, and the deptest processes they start, run on one CPU.
   Across two, the host's contention on either CPU slows every request:
   a round trip wakes a halted vCPU, and how long the host takes to run
   it again is not counted as steal (it halved serve-warm's throughput),
   and a parallel analysis waits at every minor collection for the
   domain whose vCPU the host has taken (serve-cold's p50 read 1.8 times
   its quiet value at 18% steal). deptest's default jobs follows the
   CPUs it may use, so it analyzes at jobs=1 here. *)
let min_rounds = 3

let rounds ~seconds round =
  let cpu = Sysproc.pin_last_cpu () in
  if cpu >= 0 then Printf.eprintf "perfbench: the rounds run on CPU %d\n%!" cpu;
  let t0 = now_s () in
  let rec go k acc =
    let r = measured round in
    Printf.eprintf
      "perfbench: round %d: host steal %.1f%%, kernel %.3f ms, set-up %.4g s, p50 %.4g ms, p90 %.4g ms, %d requests in %.4g s, cpu %.4g ms, rss %.4g MiB\n%!"
      k (100. *. r.steal) (1000. *. r.calib) (Stats.median r.setup) (Stats.median r.lat)
      (Stats.percentile 90. r.lat) (Array.length r.lat) r.secs r.cpu_ms r.rss_mb;
    let acc = r :: acc in
    if r.failed > 0 || (k >= min_rounds && now_s () -. t0 >= seconds) then List.rev acc
    else go (k + 1) acc
  in
  go 1 []

(* The host of this VM also steals a varying share of its CPUs, from none
   to a third over a second, and every request slows while it does. The
   figures are taken over the [kept] share of the rounds on which it
   stole the least. *)
let kept = 0.5

type window = {
  all : round list;  (** every round, in order *)
  quiet : round list;  (** the least-stolen rounds, the figures' source *)
  calib : float;  (** the speed kernel's median time over every round, s *)
  attempted : int;  (** over every round *)
  failed : int;
  errors : string list;
}

let window all =
  let by_steal = List.stable_sort (fun (a : round) b -> compare a.steal b.steal) all in
  let m = max 1 (int_of_float (Float.ceil (kept *. float_of_int (List.length all)))) in
  {
    all;
    quiet = List.filteri (fun i _ -> i < m) by_steal;
    calib = Stats.median (Array.of_list (List.map (fun (r : round) -> r.calib) all));
    attempted = List.fold_left (fun a (r : round) -> a + r.attempted) 0 all;
    failed = List.fold_left (fun a (r : round) -> a + r.failed) 0 all;
    errors = List.concat_map (fun (r : round) -> r.errors) all;
  }

type figures = {
  setup_s : float;
  p50_ms : float;
  tail_ms : float;
  rps : float;
  cpu_ms_per_req : float;
  rss_mb : float;
  requests : int;  (** timed requests the figures are taken over *)
}

(* The figures over the quiet rounds: as measured, or with [scaled]
   every time multiplied by [Calib.reference /. w.calib]. The kernel's
   time is taken over the whole run: from one round to the next it reads
   up to 15% apart, and only part of that is the machine. *)
let figures ~scaled ~tail_p w =
  let f = if scaled then Calib.reference /. w.calib else 1. in
  let cat g = Array.concat (List.map g w.quiet) in
  let sum g = List.fold_left (fun a r -> a +. g r) 0. w.quiet in
  let lat = cat (fun r -> r.lat) in
  let n = Array.length lat in
  {
    setup_s = f *. Stats.median (cat (fun r -> r.setup));
    p50_ms = f *. Stats.median lat;
    tail_ms = f *. Stats.percentile tail_p lat;
    rps = float_of_int n /. (f *. sum (fun r -> r.secs));
    cpu_ms_per_req = f *. sum (fun r -> r.cpu_ms) /. float_of_int n;
    rss_mb = Stats.median (Array.of_list (List.map (fun (r : round) -> r.rss_mb) w.quiet));
    requests = n;
  }

(* ---- the workloads ---- *)

(* oneshot-corpus: repeated [deptest analyze] with default flags. A
   round: two invocations on the one-statement unit (set-up), one untimed
   on the corpus through maxrss.exe (the peak resident set), then
   [oneshot_n] timed. *)
let oneshot_n = 20

let oneshot env ~seed ~seconds =
  Sysproc.write_file "one.f" Inputs.one_statement;
  Sysproc.write_file "corpus.f" (Inputs.corpus_unit seed);
  let expected = (references env [| "corpus.f" |]).(0) in
  window @@ rounds ~seconds @@ fun () ->
  let setup =
    Array.init 2 (fun _ ->
        let r = analyze env ~out:"one.out" "one.f" in
        if r.code <> 0 then failwith "deptest analyze failed on the one-statement unit";
        r.wall_s)
  in
  let code, rss_kb = analyze_maxrss env ~out:"run.out" "corpus.f" in
  let untimed =
    if code <> 0 then [ Printf.sprintf "exit %d" code ]
    else if Sysproc.read_file "run.out" <> expected then [ "output differs from reference" ]
    else []
  in
  let cpu_us = ref 0 in
  let lat, secs, cpu_ms, failed, errors =
    closed_loop ~warmup:0 ~n:oneshot_n
      ~cpu:(fun () -> float_of_int !cpu_us /. 1000.)
      (fun _ ->
        let r = analyze env ~out:"run.out" "corpus.f" in
        cpu_us := !cpu_us + r.usage.cpu_us;
        let err =
          if r.code <> 0 then Some (Printf.sprintf "exit %d" r.code)
          else if Sysproc.read_file "run.out" <> expected then Some "output differs from reference"
          else None
        in
        (r.wall_s *. 1000., err))
  in
  {
    setup;
    lat;
    secs;
    cpu_ms;
    rss_mb = float_of_int rss_kb /. 1024.;
    steal = 0.;
    calib = Calib.reference;
    attempted = 1 + oneshot_n;
    failed = failed + List.length untimed;
    errors = untimed @ errors;
  }

(* A round against a daemon: start it over [cache_dir] (the set-up
   sample), send [warmup + n] requests, read its high-water mark after
   that fixed amount of work, stop it. [source i] is the text of request
   [i]; [check i answer] the gate applied to its answer. *)
let daemon_round env ~cache_dir ~warmup ~n ~source ~check =
  let d = start_daemon env ~cache_dir in
  Fun.protect ~finally:(fun () -> ignore (stop_daemon d)) @@ fun () ->
  let lat, secs, cpu_ms, failed, errors =
    closed_loop ~warmup ~n
      ~cpu:(fun () -> Sysproc.cpu_ms d.pid)
      (fun i ->
        match request d.socket (source i) with
        | ms, Failed e -> (ms, Some e)
        | ms, Answer out -> (ms, check i out))
  in
  {
    setup = [| d.setup_s |];
    lat;
    secs;
    cpu_ms;
    rss_mb = Sysproc.peak_rss_mb d.pid;
    steal = 0.;
    calib = Calib.reference;
    attempted = warmup + n;
    failed;
    errors;
  }

(* serve-cold: a round is a fresh daemon over a fresh cache directory
   answering the same [cold_warmup + cold_n] distinct generated nests,
   every one a miss. The untimed first ones (whole strata of statement
   counts) grow the fresh daemon's heap. *)
let cold_warmup = Inputs.max_stmts

let cold_n = 20 * Inputs.max_stmts

let oracle_checks = 3

let serve_cold env ~seed ~seconds =
  let n = cold_warmup + cold_n in
  let sources = Inputs.cold_programs seed n in
  Unix.mkdir "cold" 0o755;
  let files = Array.init n (Printf.sprintf "cold/%d.f") in
  Array.iteri (fun i s -> Sysproc.write_file files.(i) s) sources;
  let expected = references env files in
  (* every answer must equal its reference, and the oracle checks the
     references of a seeded sample of the nests *)
  let unsound =
    List.filter_map
      (fun i ->
        match Gate.check ~answer:expected.(i) sources.(i) with
        | Ok () -> None
        | Error e -> Some (Printf.sprintf "nest %d: %s" i e))
      (Inputs.oracle_sample seed ~answered:n ~k:oracle_checks)
  in
  let w =
    window @@ rounds ~seconds @@ fun () ->
  let cache_dir = fresh env "cache" in
  Fun.protect ~finally:(fun () -> Sysproc.rm_rf cache_dir) @@ fun () ->
    daemon_round env ~cache_dir ~warmup:cold_warmup ~n:cold_n ~source:(Array.get sources)
      ~check:(fun i out -> if out = expected.(i) then None else Some "output differs from reference")
  in
  { w with failed = w.failed + List.length unsound; errors = w.errors @ unsound }

(* the corpus units as files, with their references *)
let corpus_references env =
  references env
    (Array.mapi
       (fun i src ->
         let f = Printf.sprintf "unit%d.f" i in
         Sysproc.write_file f src;
         f)
       Inputs.corpus)

(* An untimed pass answers every corpus unit once, so the cache
   directory holds every response; the daemon flushes it on shutdown. *)
let prime env ~cache_dir ~expected =
  let d = start_daemon env ~cache_dir in
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon d))
    (fun () ->
      Array.iteri
        (fun i src ->
          match request d.socket src with
          | _, Answer out when out = expected.(i) -> ()
          | _ -> failwith "priming pass: wrong or failed answer")
        Inputs.corpus)

(* serve-warm: a round restarts the daemon over the primed cache
   directory and sends the same seeded corpus draws *)
let warm_warmup = 1000

let warm_n = 10_000

let serve_warm env ~seed ~seconds =
  let expected = corpus_references env in
  prime env ~cache_dir:"warm-cache" ~expected;
  window @@ rounds ~seconds @@ fun () ->
  let draw = Inputs.warm_draws seed in
  let unit_ = Array.init (warm_warmup + warm_n) (fun _ -> draw ()) in
  daemon_round env ~cache_dir:"warm-cache" ~warmup:warm_warmup ~n:warm_n
    ~source:(fun i -> Inputs.corpus.(unit_.(i)))
    ~check:(fun i out ->
      if out = expected.(unit_.(i)) then None else Some "output differs from reference")
