open Dt_ir
module Ops = Dt_guard.Ops

type constr = { coeffs : int array; bound : Affine.t }

let le coeffs bound = { coeffs; bound }

let eq coeffs bound =
  [
    { coeffs; bound };
    { coeffs = Array.map (fun c -> -c) coeffs; bound = Affine.neg bound };
  ]

let max_constraints = 256

let is_trivial c = Array.for_all (fun k -> k = 0) c.coeffs

exception Infeasible
exception Give_up

(* [a' * x + a * y], overflow-checked. Operands below 2^30 in magnitude
   cannot overflow (the result stays below 2^61), so the common case
   stays inline in the elimination loop, the hottest loop of the Delta
   test, instead of making three calls into [Ops]. *)
let[@inline] small v = v > -0x4000_0000 && v < 0x4000_0000

let[@inline] combine a' x a y =
  if small a' && small x && small a && small y then (a' * x) + (a * y)
  else Ops.add (Ops.mul a' x) (Ops.mul a y)

let infeasible assume ~nvars cs =
  let contradictory c =
    (* 0 <= bound with bound provably negative *)
    is_trivial c && Assume.prove_neg assume c.bound
  in
  let prune cs =
    List.iter (fun c -> if contradictory c then raise Infeasible) cs;
    List.filter (fun c -> not (is_trivial c)) cs
  in
  let eliminate var cs =
    let pos, rest = List.partition (fun c -> c.coeffs.(var) > 0) cs in
    let neg, zero = List.partition (fun c -> c.coeffs.(var) < 0) rest in
    let combined =
      List.concat_map
        (fun p ->
          List.map
            (fun n ->
              let a = p.coeffs.(var) and a' = Ops.neg n.coeffs.(var) in
              {
                coeffs =
                  Array.init nvars (fun v ->
                      combine a' p.coeffs.(v) a n.coeffs.(v));
                bound =
                  Affine.add (Affine.scale a' p.bound) (Affine.scale a n.bound);
              })
            neg)
        pos
    in
    let out = zero @ combined in
    if List.length out > max_constraints then raise Give_up;
    prune out
  in
  match
    let cs = prune cs in
    let rec go var cs = if var >= nvars then () else go (var + 1) (eliminate var cs) in
    go 0 cs
  with
  | () -> false
  | exception Infeasible -> true
  | exception Give_up -> false
