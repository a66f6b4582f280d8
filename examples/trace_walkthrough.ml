(* The observability layer on the paper's coupled-group example: run the
   full per-pair driver with an explain-on span profiler and a metrics
   registry, print the typed trace tree (what `deptest analyze --explain`
   shows), a few raw JSONL events, and the metrics table (what `deptest
   profile` shows).

   Run with:  dune exec examples/trace_walkthrough.exe *)

open Dt_ir

let walk ~title ~loops ~src ~snk =
  Printf.printf "=== %s ===\n" title;
  let profiler = Dt_obs.Span.profiler ~explain:true () in
  let spans = Dt_obs.Span.buffer profiler ~domain:0 in
  let metrics = Dt_obs.Metrics.create () in
  let r =
    Deptest.Pair_test.test ~spans ~metrics ~src:(src, loops)
      ~snk:(snk, loops) ()
  in
  let spans = Dt_obs.Span.spans profiler in
  Dt_obs.Trace.pp_tree Format.std_formatter spans;
  (match (r.Deptest.Pair_test.result, r.Deptest.Pair_test.meta.Deptest.Pair_test.proved_by) with
  | `Independent, Some k ->
      Printf.printf "verdict: INDEPENDENT (proved by %s)\n"
        (Deptest.Counters.kind_name k)
  | `Independent, None ->
      print_endline "verdict: INDEPENDENT (by direction-vector merge)"
  | `Dependent { Deptest.Pair_test.dirvecs; _ }, _ ->
      Format.printf "verdict: dependent —%t@."
        (fun ppf ->
          List.iter
            (fun v -> Format.fprintf ppf " %a" Deptest.Dirvec.pp v)
            dirvecs));
  print_newline ();
  (spans, metrics)

let () =
  let i = Index.make "I" ~depth:0 in
  let ai ?(c = 0) () = Affine.add_const c (Affine.of_index i) in
  let loops = [ Loop.make i ~lo:(Affine.const 1) ~hi:(Affine.const 100) ] in

  (* The section 5.2 coupled group: A(I+1, I+2) = A(I, I). Subscript-by-
     subscript testing calls this dependent; the Delta test intersects the
     "distance 1" and "distance 2" constraints to a contradiction. *)
  let spans, metrics =
    walk ~title:"coupled group: A(I+1, I+2) = A(I, I)" ~loops
      ~src:(Aref.linear "A" [ ai ~c:1 (); ai ~c:2 () ])
      ~snk:(Aref.linear "A" [ ai (); ai () ])
  in

  (* the same events, as the JSON Lines `--trace` export writes them *)
  print_endline "=== first three JSONL events ===";
  String.split_on_char '\n' (Dt_obs.Trace.to_jsonl spans)
  |> List.filteri (fun k _ -> k < 3)
  |> List.iter print_endline;
  print_newline ();

  (* a contrast pair the merge decides: A(I+1) = A(I) stays dependent *)
  let _ =
    walk ~title:"separable strong SIV: A(I+1) = A(I)" ~loops
      ~src:(Aref.linear "A" [ ai ~c:1 () ])
      ~snk:(Aref.linear "A" [ ai () ])
  in

  print_endline "=== metrics (the `deptest profile` table) ===";
  Format.printf "%a" Dt_obs.Metrics.pp metrics
