/* CPU time of another process, all its threads live and exited, from its
   POSIX process CPU clock: nanosecond resolution, where /proc/PID/stat
   counts 10 ms ticks. Returns -1 if the process is gone. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_process_cpu_ns(value pid)
{
  clockid_t clock;
  struct timespec ts;
  if (clock_getcpuclockid(Int_val(pid), &clock) != 0) return Val_long(-1);
  if (clock_gettime(clock, &ts) != 0) return Val_long(-1);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
