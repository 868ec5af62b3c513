/* Pins the calling thread to one CPU: the highest-numbered CPU it may run
 * on now. Threads and processes it starts afterwards inherit the pin.
 * Returns that CPU's index, or -1 where sched_setaffinity is missing or
 * refuses (the caller then runs unpinned).
 *
 * A client and a daemon that trade one request at a time on the same CPU
 * hand over with a local context switch; on different CPUs every hand-over
 * wakes an idle virtual CPU, whose latency is the host's to decide.
 */
#define _GNU_SOURCE
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sched.h>
#endif

CAMLprim value perfbench_pin_last_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  cpu_set_t set;
  int cpu;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return Val_int(-1);
  for (cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
    if (CPU_ISSET(cpu, &set)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) != 0)
        return Val_int(-1);
      return Val_int(cpu);
    }
  }
#endif
  return Val_int(-1);
}
