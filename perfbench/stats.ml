(* Order statistics over one run's samples. *)

(* the [p]-th percentile (0..100) by linear interpolation between
   closest ranks, as numpy's default *)
let percentile p xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor r) in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((r -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = percentile 50. xs
