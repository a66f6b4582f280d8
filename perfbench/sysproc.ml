(* Child processes of the benchmark: spawn, reap with rusage, read
   /proc, and make sure none outlives the run. *)

type usage = { cpu_us : int; nivcsw : int }

external wait4_raw : int -> bool -> int * int * int * int * int = "perfbench_wait4"

external clk_tck : unit -> int = "perfbench_clk_tck"

(* binds this process and the children it starts from now on to one CPU;
   the CPU, or -1 if it did not *)
external pin_last_cpu : unit -> int = "perfbench_pin_last_cpu"

(* every child not yet reaped, so [reap_all] can stop it on any exit *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 8

(* [pid] -1 waits for any child; the result names the one reaped *)
let rec wait4_any pid nohang =
  match wait4_raw pid nohang with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait4_any pid nohang
  | 0, _, _, _, _ -> None
  | r, code, ut, st, niv ->
      Hashtbl.remove live r;
      Some (r, code, { cpu_us = ut + st; nivcsw = niv })

let wait4 pid nohang = Option.map (fun (_, code, u) -> (code, u)) (wait4_any pid nohang)

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
      stderr
  in
  Hashtbl.replace live pid ();
  pid

let wait pid = Option.get (wait4 pid false)

(* [Some] once the child has exited, polling for at most [timeout_s] *)
let wait_for pid ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match wait4 pid true with
    | Some r -> Some r
    | None when Unix.gettimeofday () > deadline -> None
    | None ->
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let signal pid s = try Unix.kill pid s with Unix.Unix_error _ -> ()

(* SIGTERM, then SIGKILL; always reaps *)
let stop pid =
  match wait_for pid ~timeout_s:0. with
  | Some r -> r
  | None -> (
      signal pid Sys.sigterm;
      match wait_for pid ~timeout_s:5. with
      | Some r -> r
      | None ->
          signal pid Sys.sigkill;
          wait pid)

let reap_all () =
  List.iter (fun pid -> ignore (stop pid)) (List.of_seq (Hashtbl.to_seq_keys live))

(* to end of file: /proc files have no length *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* user + system CPU of a live process, ms (clock-tick resolution) *)
let cpu_ms pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the fields after the parenthesised command name start at field 3;
     utime and stime are fields 14 and 15 *)
  let i = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s i (String.length s - i))) in
  let ticks = int_of_string f.(11) + int_of_string f.(12) in
  float_of_int ticks *. 1000. /. float_of_int (clk_tck ())

(* (steal, all) clock ticks of the machine's CPUs so far: steal is the
   time the hypervisor ran something else while a CPU wanted to run *)
let host_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: user :: nice :: sys :: idle :: iowait :: irq :: softirq :: steal :: _ ->
      let steal = int_of_string steal in
      ( steal,
        List.fold_left (fun a s -> a + int_of_string s) steal
          [ user; nice; sys; idle; iowait; irq; softirq ] )
  | _ -> (0, 0)

(* high-water resident set of a live process, MiB *)
let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
