// The number of CPUs this process may run on.
#pragma once

#include <sched.h>

namespace lfrt::support {

/// CPUs in this process's affinity mask (at least 1).  Unlike
/// std::thread::hardware_concurrency, which counts the host's CPUs, it
/// honours `taskset` and cgroup cpusets, so a pool or a contended
/// measurement sized from it never oversubscribes the CPUs it may use.
inline int usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

}  // namespace lfrt::support
