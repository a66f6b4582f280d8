(* The repo benchmark. Usage, from the root of a checkout:

     perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   Workloads: oneshot-corpus, serve-cold, serve-warm (see README.md).
   With --trace 0 the run measures the end-to-end metrics; with
   --trace 1 the per-layer ones. Either way the last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

let usage () =
  prerr_endline
    "usage: bench.exe --deptest EXE --workload W --seed N --seconds S --trace 0|1";
  exit 2

type args = {
  deptest : string;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  {
    deptest = get "deptest";
    workload = get "workload";
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace = int "trace" = 1;
  }

let workloads = [ "oneshot-corpus"; "serve-cold"; "serve-warm" ]

(* The tail is p90 on every workload: the highest rung of p90 / p99 /
   p99.9 that every run of every workload fills with at least ten
   samples beyond it (oneshot-corpus makes a few hundred requests a
   run). Beyond it, the tail of a 50 us round trip tracks the host's CPU
   steal, not the program: serve-warm's p99 read 0.13 to 2.8 ms on the
   same code. *)
let tail_p = 90.

let end_to_end (w : Live.window) =
  let f = Live.figures ~scaled:true ~tail_p w and raw = Live.figures ~scaled:false ~tail_p w in
  let med g rs = Stats.median (Array.of_list (List.map g rs)) in
  let steal rs = 100. *. med (fun (r : Live.round) -> r.steal) rs in
  Printf.printf
    "%d timed requests in the %d least-stolen of %d rounds: median host steal %.1f%% (%.1f%% over all); speed kernel %.3f ms, times scaled by %.4f\n"
    f.requests (List.length w.quiet) (List.length w.all) (steal w.quiet) (steal w.all)
    (1000. *. w.calib) (Calib.reference /. w.calib);
  let report =
    [
      ("setup_s", f.setup_s, raw.setup_s, "s", "median of the starts in those rounds");
      ("latency_p50_ms", f.p50_ms, raw.p50_ms, "ms", "p50 of the timed requests");
      ( "latency_tail_ms",
        f.tail_ms,
        raw.tail_ms,
        "ms",
        Printf.sprintf "p%g of the timed requests, %.0f beyond it" tail_p
          (float_of_int f.requests *. (1. -. (tail_p /. 100.))) );
      ("throughput_rps", f.rps, raw.rps, "1/s", "timed requests per second of their wall");
      ("cpu_ms_per_req", f.cpu_ms_per_req, raw.cpu_ms_per_req, "ms", "deptest CPU per timed request");
      ("peak_rss_mb", f.rss_mb, raw.rss_mb, "MiB", "median high-water mark of the deptest process");
    ]
  in
  Printf.printf "%-16s %-6s %14s %14s  %s\n" "metric" "unit" "scaled" "as measured" "over";
  List.iter
    (fun (name, v, m, unit, over) ->
      Printf.printf "%-16s %-6s %14.6g %14.6g  %s\n" name unit v m over)
    report;
  Printf.printf "%-16s %-6s %14.6g %14s  %d of %d attempted\n" "failed_share" "share"
    (float_of_int w.failed /. float_of_int (max 1 w.attempted))
    "" w.failed w.attempted;
  List.iter (fun e -> Printf.printf "failure: %s\n" e) w.errors;
  (w.attempted, w.failed, List.map (fun (name, v, _, unit, _) -> (name, v, unit)) report)

let result_line ~correct ~attempted ~failed metrics =
  let open Dt_obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, v, unit) -> (name, Obj [ ("value", Float v); ("unit", String unit) ]))
                metrics) );
       ])

let per_layer metrics =
  Printf.printf "%-32s %-6s %16s\n" "layer metric" "unit" "value";
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %-6s %16.6g\n" name unit v) metrics

let run_workload env a =
  if a.trace then (
    let attempted, failed, metrics =
      Layers.run env ~workload:a.workload ~seed:a.seed ~seconds:a.seconds
    in
    per_layer metrics;
    (attempted, failed, metrics))
  else
  let seconds = a.seconds and seed = a.seed in
  let w =
    match a.workload with
    | "oneshot-corpus" -> Live.oneshot env ~seed ~seconds
    | "serve-cold" -> Live.serve_cold env ~seed ~seconds
    | _ -> Live.serve_warm env ~seed ~seconds
  in
  end_to_end w

let () =
  let a = parse_args () in
  if not (List.mem a.workload workloads) then usage ();
  if not (Sys.file_exists a.deptest) then (
    prerr_endline ("no deptest executable at " ^ a.deptest);
    exit 2);
  let deptest =
    if Filename.is_relative a.deptest then Filename.concat (Sys.getcwd ()) a.deptest
    else a.deptest
  in
  (* each run works in its own directory under the checkout, so the
     daemon's socket path stays short and relative *)
  let root = Sys.getcwd () in
  let base = Filename.concat root ".perfbench-run" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat base (string_of_int (Unix.getpid ())) in
  Sysproc.rm_rf dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    Sysproc.reap_all ();
    Sys.chdir root;
    Sysproc.rm_rf dir;
    try Unix.rmdir base with Unix.Unix_error _ -> ()
  in
  let interrupted _ = raise Exit in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  let outcome =
    Fun.protect ~finally:cleanup (fun () ->
        Sys.chdir dir;
        let maxrss = Filename.concat (Filename.dirname Sys.executable_name) "maxrss.exe" in
        let env = { Live.deptest; maxrss; seq = 0 } in
        try Ok (run_workload env a) with
        | Exit -> Error "interrupted"
        | e -> Error (Printexc.to_string e))
  in
  match outcome with
  | Error e ->
      Printf.eprintf "perfbench: %s\n" e;
      exit 1
  | Ok (attempted, failed, metrics) ->
      let correct = failed = 0 in
      print_endline (result_line ~correct ~attempted ~failed metrics);
      if not correct then exit 1
