(* The symbolic Fourier-Motzkin engine and the Delta test's relational
   RDIV refinement built on it (§5.3's FM-based extension). *)

open Dt_ir
open Helpers

let check = Alcotest.check
let n = Affine.of_sym "N"

let assume_n1 =
  Deptest.Assume.add_nonneg Deptest.Assume.empty (Affine.add_const (-1) n)

let le c b = Deptest.Symfm.le (Array.of_list c) b
let eq c b = Deptest.Symfm.eq (Array.of_list c) b

let test_symfm_const () =
  let inf = Deptest.Symfm.infeasible Deptest.Assume.empty in
  (* x >= 1 and x <= 0 *)
  check Alcotest.bool "empty box" true
    (inf ~nvars:1 [ le [ -1 ] (Affine.const (-1)); le [ 1 ] Affine.zero ]);
  check Alcotest.bool "ok box" false
    (inf ~nvars:1 [ le [ -1 ] (Affine.const (-1)); le [ 1 ] (Affine.const 5) ]);
  (* x = y, x <= 2, y >= 4 *)
  check Alcotest.bool "equality chain" true
    (inf ~nvars:2
       (eq [ 1; -1 ] Affine.zero
       @ [ le [ 1; 0 ] (Affine.const 2); le [ 0; -1 ] (Affine.const (-4)) ]));
  check Alcotest.bool "no constraints" false (inf ~nvars:3 []);
  (* x = 0, y = -1 satisfies both; eliminating x doubles y's coefficient
     past max_int, which must not wrap into a false contradiction *)
  let wide = 1 lsl 61 in
  check Alcotest.bool "coefficient overflow is never infeasible" false
    (match
       inf ~nvars:2
         [ le [ 2; wide ] Affine.zero; le [ -2; wide ] (Affine.const (-1)) ]
     with
    | verdict -> verdict
    | exception Dt_guard.Ops.Overflow -> false)

let test_symfm_symbolic () =
  let inf = Deptest.Symfm.infeasible assume_n1 in
  (* x <= N and x >= N + 1 *)
  check Alcotest.bool "symbolic gap" true
    (inf ~nvars:1
       [ le [ 1 ] n; le [ -1 ] (Affine.add_const (-1) (Affine.neg n)) ]);
  (* x <= N and x >= N is fine *)
  check Alcotest.bool "symbolic touching" false
    (inf ~nvars:1 [ le [ 1 ] n; le [ -1 ] (Affine.neg n) ]);
  (* x <= N and x >= M: unknown symbols cannot prove infeasibility *)
  check Alcotest.bool "unknown symbols conservative" false
    (inf ~nvars:1
       [ le [ 1 ] n; le [ -1 ] (Affine.neg (Affine.of_sym "M")) ])

(* the dgefa pattern: write A(I,K) under DO K; DO I = K+1,N, read A(K,J)
   under DO K; DO J = K+1,N; DO I = K+1,N: chained RDIV relations with
   triangular bounds are infeasible *)
let test_chained_rdiv_dgefa () =
  let prog = parse {|
      DO 60 K = 1, N
        DO 30 I = K+1, N
          A(I,K) = T*A(I,K)
   30   CONTINUE
        DO 50 J = K+1, N
          T = A(K,J)
          DO 40 I = K+1, N
            A(I,J) = A(I,J) + T*A(I,K)
   40     CONTINUE
   50   CONTINUE
   60 CONTINUE
|} in
  let stmts = Dt_ir.Nest.stmts_with_loops prog in
  let s30, l30 = List.nth stmts 0 in
  (* statement 1 is "T = A(K,J)" *)
  let s_t, l_t = List.nth stmts 1 in
  let w = List.hd s30.Stmt.writes in
  let a_kj =
    List.find (fun (r : Aref.t) -> r.Aref.base = "A") s_t.Stmt.reads
  in
  let t = Deptest.Pair_test.test ~src:(w, l30) ~snk:(a_kj, l_t) () in
  check Alcotest.bool "A(I,K) vs A(K,J) independent" true
    (t.Deptest.Pair_test.result = `Independent);
  (* cross-check with the oracle *)
  match Dt_exact.Brute.test ~src:(w, l30) ~snk:(a_kj, l_t) () with
  | Some rep ->
      check Alcotest.bool "oracle agrees" false rep.Dt_exact.Brute.dependent
  | None -> Alcotest.fail "oracle must run"

(* triangular transpose (ocean/s114): A(I,J) vs A(J,I) with J < I *)
let test_triangular_transpose () =
  let prog = parse {|
      DO 20 I = 1, 40
        DO 10 J = 1, I-1
          A(I,J) = A(J,I) + B(I,J)
   10   CONTINUE
   20 CONTINUE
|} in
  let deps =
    List.filter (fun d -> d.Deptest.Dep.array = "A") (deps_of_prog prog)
  in
  check (Alcotest.list Alcotest.string) "no A dependence" []
    (List.map (fun d -> Deptest.Dep.kind_name d.Deptest.Dep.kind) deps)

(* dpofa pattern: A(J,J) and A(J,I) with I in [J+1, N] *)
let test_diag_vs_row () =
  let prog = parse {|
      DO 20 J = 1, 40
        A(J,J) = B(J)
        DO 10 I = J+1, 40
          A(J,I) = A(J,I) - A(J,J)
   10   CONTINUE
   20 CONTINUE
|} in
  let deps = deps_of_prog prog in
  (* the diagonal write A(J,J) and the off-diagonal write A(J,I) never
     touch the same element *)
  check Alcotest.bool "no output dep between S0 and S1" true
    (List.for_all
       (fun d ->
         not
           (d.Deptest.Dep.kind = Deptest.Dep.Output
           && d.Deptest.Dep.src_stmt <> d.Deptest.Dep.snk_stmt))
       deps);
  (* but the read of A(J,J) in S1 does depend on the write in S0 *)
  check Alcotest.bool "flow S0 -> S1 exists" true
    (List.exists
       (fun d ->
         d.Deptest.Dep.kind = Deptest.Dep.Flow
         && d.Deptest.Dep.src_stmt = 0 && d.Deptest.Dep.snk_stmt = 1)
       deps)

(* soundness guard for the new machinery, random crossed references under
   triangular nests *)
let prop_relational_sound =
  qtest ~count:600 "relational refinement is sound on triangular nests"
    (QCheck.make
       (QCheck.Gen.map
          (fun seed ->
            let st = Random.State.make [| seed |] in
            Dt_workloads.Generator.ref_pair st
              {
                Dt_workloads.Generator.default with
                triangular = true;
                max_dims = 2;
              })
          QCheck.Gen.int))
    (fun (src, snk, loops) ->
      match
        Dt_exact.Brute.test ~max_pairs:200_000 ~src:(src, loops)
          ~snk:(snk, loops) ()
      with
      | None -> true
      | Some rep -> (
          match
            (Deptest.Pair_test.test ~src:(src, loops) ~snk:(snk, loops) ())
              .Deptest.Pair_test.result
          with
          | `Independent -> not rep.Dt_exact.Brute.dependent
          | `Dependent _ -> true))

let suite =
  [
    Alcotest.test_case "symfm constant systems" `Quick test_symfm_const;
    Alcotest.test_case "symfm symbolic systems" `Quick test_symfm_symbolic;
    Alcotest.test_case "chained RDIV (dgefa)" `Quick test_chained_rdiv_dgefa;
    Alcotest.test_case "triangular transpose" `Quick test_triangular_transpose;
    Alcotest.test_case "diagonal vs row (dpofa)" `Quick test_diag_vs_row;
    prop_relational_sound;
  ]
