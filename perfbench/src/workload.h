// The four workloads and what each run of one returns.
//
// Every workload has two entry points:
//
//   * measure_*: the untraced run behind the end-to-end metrics.  It
//     sets up (several times, reporting the median), times the workload
//     for the requested seconds, and checks the outputs.
//   * trace_*:   the workload's share of the traced pass.  It runs the
//     same operations untraced and traced, alternating where the
//     workload allows (their ratio is the tracing overhead), and reads
//     the per-layer metrics from the
//     program's counters and from spans: the program's own spans plus
//     bench-side spans around the calls into each layer.
//
// Inputs are pure functions of the seed; the program only ever sees the
// generated inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

// Operations attempted and failed.  A failed correctness check counts as
// one failed operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

struct Measured {
  Tally tally;
  double setup_s = 0.0;     // median over the set-up repeats
  double work_per_s = 0.0;  // the workload's headline rate
  double op_p50_ms = 0.0;   // median wall time of one operation
  // The workload's metrics under the names docs and humans use
  // (svc_qps, map_cells_per_s, ...), printed before the result line.
  MetricSet named;
};

Measured measure_service_mix(const RunSpec& spec);
Measured measure_fluid_map(const RunSpec& spec);
Measured measure_packet_star(const RunSpec& spec);
Measured measure_fabric_fattree(const RunSpec& spec);

// Each appends its per-layer metrics to `out`.
Tally trace_service_mix(const RunSpec& spec, MetricSet& out);
Tally trace_fluid_map(const RunSpec& spec, MetricSet& out);
Tally trace_packet_star(const RunSpec& spec, MetricSet& out);
Tally trace_fabric_fattree(const RunSpec& spec, MetricSet& out);

// Peak resident set of this process so far [MB].
double peak_rss_mb();

// Worker budget of the host (nproc), at least 1.
int host_threads();

// Moves the calling thread round-robin over the CPUs it may run on, one
// CPU per next() call, and restores its affinity when destroyed.  On a
// shared host one CPU can be slowed for seconds by work outside this
// process; a single-threaded workload that visits every CPU in turn sees
// the host's typical speed rather than that of the CPU it started on.
// Threads started while pinned inherit the pin, so only single-threaded
// workloads use it.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

}  // namespace perfbench
