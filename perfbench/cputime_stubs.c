/* Process CPU time (every thread) with nanosecond resolution; Unix.times
   only counts 10 ms ticks. */

#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

value perfbench_process_cputime(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
