/* wait4(2) with the child's rusage, the /proc clock tick rate and CPU
   affinity: none is exposed by OCaml's Unix library. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* (pid, code, utime_us, stime_us, nivcsw); pid 0 when
   [nohang] and the child is still running. code is the exit status,
   or minus the signal number for a killed child. */
value perfbench_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  r = wait4(Int_val(vpid), &status, Bool_val(vnohang) ? WNOHANG : 0, &ru);
  caml_leave_blocking_section();
  if (r == -1) uerror("wait4", Nothing);
  res = caml_alloc_tuple(5);
  Store_field(res, 0, Val_int(r));
  if (r == 0) {
    for (int i = 1; i < 5; i++) Store_field(res, i, Val_int(0));
    CAMLreturn(res);
  }
  Store_field(res, 1,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 2,
              Val_long((long)ru.ru_utime.tv_sec * 1000000L + ru.ru_utime.tv_usec));
  Store_field(res, 3,
              Val_long((long)ru.ru_stime.tv_sec * 1000000L + ru.ru_stime.tv_usec));
  Store_field(res, 4, Val_long(ru.ru_nivcsw));
  CAMLreturn(res);
}

value perfbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

/* Binds the calling process, and so the children it starts from now on,
   to the last CPU it may run on. Returns that CPU, or -1 when it may run
   on one CPU only or the call fails. */
value perfbench_pin_last_cpu(value unit)
{
  cpu_set_t set;
  int last = -1;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  if (CPU_COUNT(&set) < 2) return Val_int(-1);
  for (int i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) last = i;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(last);
}
