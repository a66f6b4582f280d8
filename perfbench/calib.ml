(* The speed of the machine, measured with a fixed kernel of the
   benchmark's own code.

   This VM's host changes how fast it runs the VM's CPUs from minute to
   minute, by up to 1.7 times, with no steal in /proc/stat to show it:
   deptest's CPU time per request moves with it. The kernel (hash table
   inserts and lookups, a sort, list allocation: the kind of work the
   analyzer's OCaml does) moves with it too and runs no deptest code, so
   timing it around every round of a run gives the run's speed, and a
   change to deptest cannot change it. *)

let keys = Array.init 4000 (fun i -> string_of_int (i * 7919 mod 100_003))

let ints = Array.init 20_000 (fun i -> (i * 48271) mod 2147483647)

let now_s () = Int64.to_float (Dt_obs.Metrics.now_ns ()) /. 1e9

let once () =
  let t0 = now_s () in
  let h = Hashtbl.create 16 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
  let a = Array.copy ints in
  Array.sort compare a;
  let l = List.init 20_000 (fun i -> (i, keys.(i mod 4000))) in
  ignore (Sys.opaque_identity (List.rev_map (fun (i, s) -> i + Hashtbl.find h s) l));
  now_s () -. t0

(* the kernel's time, s: the median of nine, from a collected heap so
   that no collection work the round left behind is timed with it *)
let measure () =
  Gc.full_major ();
  Stats.median (Array.init 9 (fun _ -> once ()))

(* Figures are scaled to a machine on which the kernel takes [reference]
   seconds: a time measured while it took [k] is multiplied by
   [reference /. k]. This VM reads from 7.8 to 11.5 ms. *)
let reference = 0.010
