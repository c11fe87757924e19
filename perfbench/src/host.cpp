#include <sched.h>

#include <cstdio>
#include <cstring>

#include "exec/thread_pool.h"
#include "workload.h"

namespace perfbench {

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark; getrusage's
  // ru_maxrss would carry over the peak of whatever exec'd us.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lf", &kib);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

int host_threads() { return bcn::exec::hardware_threads(); }

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus_) CPU_SET(c, &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[next_ % cpus_.size()], &mask);
  ++next_;
  sched_setaffinity(0, sizeof mask, &mask);
}

}  // namespace perfbench
