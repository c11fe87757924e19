// fluid_map: analysis::compute_stability_map with the nproc-worker exec
// pool, nonlinear level, adaptive mode, over several seeded plants.  It
// runs analysis, core, batched ode lanes and exec, and bypasses service
// and sim.  The plants are stratified so the share of cells near the
// stability boundary (the only cells adaptive refinement integrates)
// runs from a few percent to a large share: at grid 129 on one thread
// the batched waves were 0.05 s of a 1.10 s map and the per-cell
// closed-form pass the rest, so a change to either half must be able to
// show on this workload.
#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/stability_map.h"
#include "analysis/sweep.h"
#include "core/stability.h"
#include "layer_trace.h"
#include "obs/tracing.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 32;
constexpr int kOracleCellsPerMap = 4;

// One stratum: buffer over set point and grid size fix the boundary
// share; the seed jitters the plant inside the stratum.
struct Stratum {
  double buffer_over_q0;
  int grid;
};
constexpr Stratum kStrata[] = {
    {16.0, 65}, {8.0, 65}, {4.8, 65}, {2.0, 65}, {2.0, 33}, {2.0, 17},
};

struct OracleCell {
  std::size_t index = 0;
  bool strongly_stable = false;
};

struct MapSpec {
  bcn::core::BcnParams plant;
  std::vector<double> gi;
  std::vector<double> gd;
  // Seeded sample of cells; their scalar-mode verdicts are filled in by
  // add_oracle_verdicts.
  std::vector<OracleCell> oracle;
};

// The inputs: plants, gain axes and the sampled cells.
std::vector<MapSpec> make_specs(std::uint64_t seed) {
  Rng rng(seed ^ 0xf1a1dull);
  std::vector<MapSpec> specs;
  for (const Stratum& s : kStrata) {
    MapSpec spec;
    auto& p = spec.plant;
    p = bcn::core::BcnParams::standard_draft();
    p.q0 = 2.5e6 * (0.9 + 0.2 * rng.uniform());
    p.pm = 0.01 * (0.9 + 0.2 * rng.uniform());
    p.buffer = p.q0 * s.buffer_over_q0 * (0.95 + 0.1 * rng.uniform());
    p.qsc = std::min(0.9 * p.buffer, p.buffer - 1.0);
    spec.gi = bcn::analysis::logspace(0.125, 32.0, s.grid);
    spec.gd = bcn::analysis::logspace(1.0 / 1024.0, 0.5, s.grid);
    const auto cols = static_cast<std::uint64_t>(s.grid);
    for (int i = 0; i < kOracleCellsPerMap; ++i) {
      spec.oracle.push_back({rng.below(cols * cols), false});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

// The expected verdicts of the sampled cells, from the scalar-mode
// oracle (core::numeric_strong_stability).  Run once, outside set-up's
// timing: it checks the map rather than building its inputs.
void add_oracle_verdicts(std::vector<MapSpec>& specs) {
  bcn::core::NumericVerdictOptions nopts;
  nopts.level = bcn::core::ModelLevel::Nonlinear;
  for (MapSpec& spec : specs) {
    const std::size_t cols = spec.gd.size();
    for (OracleCell& cell : spec.oracle) {
      auto q = spec.plant;
      q.gi = spec.gi[cell.index / cols];
      q.gd = spec.gd[cell.index % cols];
      cell.strongly_stable =
          bcn::core::numeric_strong_stability(q, nopts).strongly_stable;
    }
  }
}

double timed_setup(std::uint64_t seed, std::vector<MapSpec>* specs) {
  std::vector<double> times;
  {
    CpuRotation cpus;  // one repeat per CPU; restored before timing
    for (int r = 0; r < kSetupRepeats; ++r) {
      cpus.next();
      const auto t0 = Clock::now();
      auto s = make_specs(seed);
      times.push_back(seconds_since(t0));
      *specs = std::move(s);
    }
  }
  add_oracle_verdicts(*specs);
  return median(times);
}

bcn::analysis::StabilityMapOptions map_options(int threads) {
  bcn::analysis::StabilityMapOptions o;
  o.numeric_level = bcn::core::ModelLevel::Nonlinear;
  o.mode = bcn::analysis::MapMode::Adaptive;
  o.threads = threads;
  return o;
}

std::uint64_t verdict_hash(const bcn::analysis::StabilityMap& map) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& cell : map.cells) {
    h ^= cell.numeric.strongly_stable ? 0x9bull : 0x51ull;
    h *= 1099511628211ull;
  }
  return h;
}

struct Round {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<double> map_s;
  double cells = 0.0;
  double integrated = 0.0;
  double waves = 0.0;
};

struct Rounds {
  Tally tally;
  std::vector<Round> rounds;
};

// Rounds over every spec until `seconds` pass.  Each map is checked
// against the set-up oracle and against the first round's verdicts.
// With `alternate`, every second round runs traced.
Rounds run_rounds(const std::vector<MapSpec>& specs, double seconds,
                  int threads, bool alternate) {
  Rounds r;
  std::vector<std::uint64_t> hashes(specs.size(), 0);
  const auto start = Clock::now();
  for (int i = 0; i < (alternate ? 2 : 1) || seconds_since(start) < seconds;
       ++i) {
    Round round;
    round.traced = alternate && i % 2 == 1;
    if (round.traced) bcn::obs::tracing_enable();
    for (std::size_t m = 0; m < specs.size(); ++m) {
      const auto t0 = Clock::now();
      bcn::analysis::StabilityMap map;
      {
        bcn::obs::TraceSpan span("bench.analysis.compute_stability_map");
        map = bcn::analysis::compute_stability_map(
            specs[m].plant, specs[m].gi, specs[m].gd, map_options(threads));
      }
      const double s = seconds_since(t0);
      round.map_s.push_back(s);
      round.wall_s += s;
      round.cells += static_cast<double>(map.cells.size());
      round.integrated += static_cast<double>(map.integrated_cells);
      round.waves += map.refinement_waves;
      const std::uint64_t h = verdict_hash(map);
      if (hashes[m] == 0) hashes[m] = h;
      r.tally.check(h == hashes[m]);
      for (const OracleCell& cell : specs[m].oracle) {
        r.tally.check(map.cells[cell.index].numeric.strongly_stable ==
                      cell.strongly_stable);
      }
    }
    if (round.traced) bcn::obs::tracing_disable();
    r.rounds.push_back(std::move(round));
  }
  return r;
}

}  // namespace

Measured measure_fluid_map(const RunSpec& spec) {
  Measured m;
  std::vector<MapSpec> specs;
  m.setup_s = timed_setup(spec.seed, &specs);
  const Rounds r = run_rounds(specs, spec.seconds, host_threads(), false);
  m.tally.add(r.tally);

  std::vector<double> rates, map_ms;
  for (const Round& round : r.rounds) {
    rates.push_back(round.cells / round.wall_s);
    for (const double s : round.map_s) map_ms.push_back(s * 1e3);
  }
  const Round& first = r.rounds.front();
  m.work_per_s = median(rates);
  m.op_p50_ms = median(map_ms);
  m.named.add("map_cells_per_s", m.work_per_s, "cells/s");
  m.named.add("map_p50_ms", m.op_p50_ms, "ms");
  m.named.add("map_rounds", static_cast<double>(r.rounds.size()), "count");
  m.named.add("map_integrated_fraction", first.integrated / first.cells,
              "ratio");
  return m;
}

Tally trace_fluid_map(const RunSpec& spec, MetricSet& out) {
  Tally tally;
  std::vector<MapSpec> specs;
  timed_setup(spec.seed, &specs);
  const int threads = host_threads();

  reset_spans();
  const Rounds r = run_rounds(specs, spec.seconds, threads, true);
  const auto spans = collect_spans();
  tally.add(r.tally);

  // A plain single-threaded round: the exec layer's scaling.
  const Rounds single = run_rounds(specs, 0.0, 1, false);
  tally.add(single.tally);

  // Per-cell closed form, timed directly on one thread over a sample.
  std::size_t analyzed = 0;
  const auto a0 = Clock::now();
  for (const auto& s : specs) {
    for (std::size_t i = 0; i < s.gi.size(); i += 3) {
      for (std::size_t j = 0; j < s.gd.size(); j += 3) {
        auto p = s.plant;
        p.gi = s.gi[i];
        p.gd = s.gd[j];
        const auto report = bcn::core::analyze_stability(p);
        tally.check(std::isfinite(report.theorem1_required_buffer));
        ++analyzed;
      }
    }
  }
  const double analyze_us =
      seconds_since(a0) * 1e6 / static_cast<double>(analyzed);

  std::vector<double> untraced_map_s, traced_map_s, untraced_round_s;
  for (const Round& round : r.rounds) {
    auto& dst = round.traced ? traced_map_s : untraced_map_s;
    dst.insert(dst.end(), round.map_s.begin(), round.map_s.end());
    if (!round.traced) untraced_round_s.push_back(round.wall_s);
  }
  const SpanProfile prof = profile_spans(spans);
  const Round& first = r.rounds.front();
  const double maps = static_cast<double>(traced_map_s.size());

  out.add("analysis.map_s", median(untraced_map_s), "s");
  out.add("analysis.map_integrated_fraction", first.integrated / first.cells,
          "ratio");
  out.add("analysis.map_waves", first.waves / static_cast<double>(specs.size()),
          "count");
  out.add("core.analyze_stability_us", analyze_us, "us");
  out.add("core.batch_verdicts_s", prof.dur_s("analysis.map_wave") / maps,
          "s");
  out.add("core.lanes", first.integrated / std::max(first.waves, 1.0),
          "count");
  out.add("exec.busy_share",
          prof.dur_s("exec.chunk") /
              (threads * prof.dur_s("bench.analysis.compute_stability_map")),
          "ratio");
  out.add("exec.scaling",
          single.rounds.front().wall_s / median(untraced_round_s), "ratio");
  out.add("obs.coverage.fluid_map", prof.coverage, "ratio");
  out.add("obs.trace_overhead.fluid_map",
          median(traced_map_s) / median(untraced_map_s) - 1.0, "ratio");
  return tally;
}

}  // namespace perfbench
