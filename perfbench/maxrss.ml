(* maxrss.exe OUT PROG ARGS...: runs PROG with ARGS on this process's
   standard streams, writes PROG's peak resident set in kB to the file
   OUT, and exits with PROG's exit code.

   Linux starts a child's ru_maxrss at the high-water mark of the process
   that exec'd it, so a deptest process started by the benchmark would
   read at least the benchmark's own peak. Started from this small
   program, it reads its own. *)

external wait : int -> int * int = "perfbench_maxrss_wait"

let () =
  match Array.to_list Sys.argv with
  | _ :: out :: prog :: args ->
      let pid =
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin Unix.stdout
          Unix.stderr
      in
      let code, maxrss_kb = wait pid in
      Out_channel.with_open_bin out (fun oc -> Printf.fprintf oc "%d\n" maxrss_kb);
      exit (if code < 0 then 128 - code else code)
  | _ ->
      prerr_endline "usage: maxrss.exe OUT PROG ARGS...";
      exit 2
