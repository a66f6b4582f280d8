(* Soundness of served verdicts against the brute-force oracle.

   The verdicts checked are recomputed in-process at jobs=1 without the
   memo cache and rendered; the rendering must equal the daemon's answer
   byte for byte, so the oracle judges exactly what was served. Every
   pair claimed independent must then show no collision when the
   symbolic bound is replaced by each small concrete value. *)

module Analyze = Deptest.Analyze

let bounds = [ 2; 5 ]

(* [Ok ()] or the reason the answer is wrong *)
let check ~answer source =
  let progs = Dt_frontend.Lower.parse_unit source in
  let cfg = Analyze.Config.make ~jobs:1 ~cache:false () in
  let results = List.map (Analyze.run cfg) progs in
  if fst (Dt_serve.Render.unit_ progs results) <> answer then
    Error "answer differs from the in-process jobs=1 verdicts"
  else
    let unsound = ref 0 in
    List.iter2
      (fun prog (r : Analyze.result) ->
        let sites = Analyze.sites prog in
        List.iteri
          (fun i (p : Analyze.pair_record) ->
            let (a1 : Dt_ir.Stmt.access), l1 = sites.(i).Analyze.left
            and (a2 : Dt_ir.Stmt.access), l2 = sites.(i).Analyze.right in
            if p.Analyze.independent && Dt_ir.Aref.rank a1.aref > 0 then
              List.iter
                (fun n ->
                  match
                    Dt_exact.Brute.test ~sym_env:(fun _ -> n) ~src:(a1.aref, l1)
                      ~snk:(a2.aref, l2) ()
                  with
                  | Some rep when rep.Dt_exact.Brute.dependent -> incr unsound
                  | _ -> ())
                bounds)
          r.Analyze.pairs)
      progs results;
    if !unsound > 0 then
      Error (Printf.sprintf "%d independence verdict(s) refuted by the oracle" !unsound)
    else Ok ()
