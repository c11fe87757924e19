// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --build-info
//
// --trace 0 measures one workload untraced and reports the end-to-end
// metrics.  --trace 1 is the traced pass: it runs every workload, each
// for S/2 seconds, alternating untraced and traced operations, and reports
// every per-layer metric (per-layer names are unique across workloads, so
// one pass carries all of them).  The last stdout line is the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// Exit status: 0 when every check passed, 1 when any failed, 2 on usage
// errors.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.h"

namespace perfbench {

namespace {

constexpr const char* kWorkloads[] = {"service_mix", "fluid_map",
                                      "packet_star", "fabric_fattree"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       perfbench --build-info\n"
               "workloads: service_mix fluid_map packet_star "
               "fabric_fattree\n",
               why);
  return 2;
}

Measured measure(const std::string& workload, const RunSpec& spec) {
  if (workload == "service_mix") return measure_service_mix(spec);
  if (workload == "fluid_map") return measure_fluid_map(spec);
  if (workload == "packet_star") return measure_packet_star(spec);
  return measure_fabric_fattree(spec);
}

void print_metric(const Metric& m) {
  std::printf("metric %-36s %16.6g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

int finish(const Tally& tally, const MetricSet& metrics) {
  for (const Metric& m : metrics.items()) print_metric(m);
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":%s}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed, metrics_json(metrics).c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunSpec spec;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--build-info") {
      std::printf("compiler=%s\nbuild_type=%s\n", PERFBENCH_COMPILER,
                  PERFBENCH_BUILD_TYPE);
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      spec.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      spec.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && spec.seconds > 0.0 && spec.seconds <= 60.0;
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") == 0 ? 0
              : std::strcmp(value, "1") == 0 ? 1
                                             : -1;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || workload == w;
  if (!known) return usage("--workload must name a workload");
  if (!have_seed) return usage("--seed must be a non-negative integer");
  if (!have_seconds) return usage("--seconds must be in (0, 60]");
  if (trace < 0) return usage("--trace must be 0 or 1");

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "threads=%d\n",
              workload.c_str(), spec.seed, spec.seconds, trace,
              host_threads());
  std::fflush(stdout);

  if (trace == 1) {
    Tally tally;
    MetricSet layers;
    RunSpec half = spec;
    half.seconds = spec.seconds / 2.0;
    tally.add(trace_service_mix(half, layers));
    tally.add(trace_fluid_map(half, layers));
    tally.add(trace_packet_star(half, layers));
    tally.add(trace_fabric_fattree(half, layers));
    return finish(tally, layers);
  }

  const Measured m = measure(workload, spec);
  for (const Metric& named : m.named.items()) print_metric(named);
  const double failed_share =
      m.tally.attempted == 0
          ? 1.0
          : static_cast<double>(m.tally.failed) /
                static_cast<double>(m.tally.attempted);
  std::printf("metric %-36s %16.6g %s\n", "failed_share", failed_share,
              "ratio");
  MetricSet e2e;
  e2e.add("setup_s", m.setup_s, "s");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  e2e.add("work_per_s", m.work_per_s, "work/s");
  e2e.add("op_p50_ms", m.op_p50_ms, "ms");
  return finish(m.tally, e2e);
}
