// Unified experiment runner for the bench binaries.
//
// Every bench registers `name -> fn(RunContext&)` at static-init time
// (via BCN_EXPERIMENT) and links the shared bench_main, which owns the
// command line: --threads (BCN_THREADS fallback), --out, --seed, --list,
// --run, --json, unknown-flag rejection, wall-clock capture, and a
// machine-readable RUN_<name>.json per experiment.  Experiments keep
// their experiment-specific flags by declaring them in `extra_flags`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/args.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "sim/faults.h"

namespace bcn::bench {

// Everything an experiment gets from the harness.
struct RunContext {
  const ArgParser* args = nullptr;  // for experiment-specific flags
  int threads = 1;                  // 0 = all hardware threads, 1 = serial
  // Simulator shards for sharded-fabric experiments, from --shards /
  // BCN_SHARDS (default 1; 0 = all hardware threads).  The trajectory
  // digest is shard-count-invariant, so this is purely a speed knob.
  int shards = 1;
  std::uint64_t seed = 0;           // --seed (default 0: deterministic)
  std::filesystem::path out_dir;    // resolved artifact directory
  // Per-experiment metrics registry owned by bench_main; whatever the
  // experiment records here is embedded in its RUN_<name>.json under
  // "metrics.".  Always non-null inside an experiment fn.
  obs::MetricsRegistry* metrics = nullptr;
  // Degraded-network plan from --faults / BCN_FAULTS (sim/faults.h);
  // unarmed by default.  Experiments that simulate a packet network
  // forward it into their scenario configs.
  sim::FaultPlan faults;
  // Congestion-control mechanism from --mechanism, validated against
  // core::mechanism_registry().  Experiments that run a single-mechanism
  // scenario forward it into their NetworkConfig / fluid facet.
  std::string mechanism = "bcn";
  // Runtime invariant monitors + flight recorder from --monitors /
  // BCN_MONITORS (obs/monitor.h); unarmed by default.  bench_main
  // pre-fills the bundle directory, the exact repro command line and the
  // DumpAndExit action; experiments that simulate a packet network
  // forward it into their scenario configs (NetworkConfig::monitors,
  // MultihopConfig::monitors) and export "monitor.*" metrics.
  obs::MonitorConfig monitors;
};

struct Experiment {
  std::string name;
  std::string description;
  std::vector<std::string> extra_flags;  // accepted beyond the standard set
  std::function<int(RunContext&)> fn;
};

// Registers an experiment; typically invoked via BCN_EXPERIMENT.
void register_experiment(Experiment experiment);

// Registered experiments, sorted by name.
const std::vector<Experiment>& experiments();

// The shared main: parses flags, rejects unknown ones, resolves the
// output directory, runs the selected experiments (all registered ones by
// default, or --run <name>), captures wall clock, and writes
// RUN_<name>.json artifacts.  Returns the first nonzero experiment
// status, or 2 on a usage error.
int bench_main(int argc, const char* const* argv);

struct RegisterExperiment {
  explicit RegisterExperiment(Experiment experiment) {
    register_experiment(std::move(experiment));
  }
};

// BCN_EXPERIMENT("name", "what it reproduces", run_fn, "grid", "csv")
// — trailing arguments are the experiment-specific flags.
#define BCN_EXPERIMENT_CONCAT_INNER(a, b) a##b
#define BCN_EXPERIMENT_CONCAT(a, b) BCN_EXPERIMENT_CONCAT_INNER(a, b)
#define BCN_EXPERIMENT(name_, description_, fn_, ...)                         \
  static const ::bcn::bench::RegisterExperiment BCN_EXPERIMENT_CONCAT(        \
      bcn_experiment_registration_, __LINE__){                                \
      ::bcn::bench::Experiment{name_, description_, {__VA_ARGS__}, fn_}};

}  // namespace bcn::bench
