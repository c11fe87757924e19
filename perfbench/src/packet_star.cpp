// packet_star: the paper's Fig. 1 plant on the packet engine -- N = 50
// sources into one 10G bottleneck with the reference parameter set the
// determinism test pins, recording the aggregate trace, per-flow
// timelines and the BCN event trace as the experiments do.  This is the
// engine behind the packet experiments and the service's crossval op.
// Its heap is small (about a hundred pending events), so the per-event
// entity handlers dominate.  The workload is defined by the plant, so a
// new engine can be judged by the same numbers.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "layer_trace.h"
#include "obs/tracing.h"
#include "sim/network.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSources = 50;
constexpr bcn::sim::SimTime kHorizon = 100 * bcn::sim::kMillisecond;
constexpr int kVariants = 4;  // seeded start states, cycled over the ops
constexpr int kSetupRepeats = 32;
constexpr std::uint64_t kReferenceDigest = 0x521a746626762d88ull;

bcn::sim::NetworkConfig reference_config(int sources) {
  bcn::core::BcnParams p;
  p.num_sources = sources;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.w = 2.0;
  p.pm = 0.2;
  p.gi = 0.5;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;
  bcn::sim::NetworkConfig cfg;
  cfg.params = p;
  cfg.initial_rate = p.capacity / p.num_sources;
  cfg.record_interval = 20 * bcn::sim::kMicrosecond;
  return cfg;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// The determinism test's trajectory digest: aggregate trace + counters.
std::uint64_t digest(const bcn::sim::Network& net) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& tp : net.stats().trace()) h = fnv1a(h, &tp, sizeof(tp));
  return fnv1a(h, &net.stats().counters, sizeof(net.stats().counters));
}

// The pinned 40 ms, 5-source reference run.
bool reference_digest_holds() {
  bcn::sim::Network net(reference_config(5));
  net.run(bcn::sim::from_seconds(0.04));
  return digest(net) == kReferenceDigest;
}

// Frames are conserved: every frame sent is enqueued, dropped or still on
// the wire; every enqueued one is delivered or still queued.
bool conserved(const bcn::sim::Network& net, double frame_bits) {
  const auto& c = net.stats().counters;
  if (c.frames_sent < c.frames_enqueued + c.frames_dropped) return false;
  const std::uint64_t on_wire =
      c.frames_sent - c.frames_enqueued - c.frames_dropped;
  const double queued = net.queue_bits() / frame_bits;
  return on_wire <= 64u + kSources &&
         std::abs(static_cast<double>(c.frames_enqueued) -
                  static_cast<double>(c.frames_delivered) - queued) <= 1.5 &&
         c.bits_delivered == frame_bits * static_cast<double>(c.frames_delivered);
}

std::vector<bcn::sim::NetworkConfig> make_variants(std::uint64_t seed) {
  Rng rng(seed ^ 0x9ac4e7ull);
  std::vector<bcn::sim::NetworkConfig> v;
  for (int i = 0; i < kVariants; ++i) {
    auto cfg = reference_config(kSources);
    // Start within +-10% of the fair share C/N.
    cfg.initial_rate *= 0.9 + 0.2 * rng.uniform();
    v.push_back(cfg);
  }
  return v;
}

struct OpStats {
  double wall_s = 0.0;
  bool traced = false;
  std::uint64_t events = 0;
  std::uint64_t heap_high_water = 0;
  std::uint64_t rescheduled = 0;
};

struct Ops {
  Tally tally;
  std::vector<OpStats> ops;
};

// One op = build the plant and run it for kHorizon.  With `alternate`,
// ops come in pairs on the same start state, the second of each pair
// traced, so drift over the run hits both halves alike.
Ops run_ops(const std::vector<bcn::sim::NetworkConfig>& variants,
            double seconds, bool alternate,
            std::vector<std::uint64_t>& digests) {
  Ops r;
  CpuRotation cpus;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < (alternate ? 2u : 1u) || seconds_since(start) < seconds; ++i) {
    const std::size_t v = (alternate ? i / 2 : i) % variants.size();
    // A pair stays on one CPU, so its traced and untraced halves compare.
    if (!alternate || i % 2 == 0) cpus.next();
    OpStats op;
    op.traced = alternate && i % 2 == 1;
    if (op.traced) bcn::obs::tracing_enable();
    const auto t0 = Clock::now();
    std::unique_ptr<bcn::sim::Network> net;
    {
      bcn::obs::TraceSpan span("bench.sim.network_run");
      net = std::make_unique<bcn::sim::Network>(variants[v]);
      net->run(kHorizon);
    }
    op.wall_s = seconds_since(t0);
    if (op.traced) bcn::obs::tracing_disable();
    op.events = net->simulator().executed();
    op.heap_high_water = net->simulator().heap_high_water();
    op.rescheduled = net->simulator().rescheduled_count();
    r.ops.push_back(op);
    const std::uint64_t d = digest(*net);
    if (digests[v] == 0) digests[v] = d;
    r.tally.check(d == digests[v] && conserved(*net, variants[v].frame_bits));
  }
  return r;
}

double sim_ms_per_s(const OpStats& op) {
  return bcn::sim::to_seconds(kHorizon) * 1e3 / op.wall_s;
}

// Set-up: the seeded start states and each one's plant (timed), then the
// pinned reference run that proves the engine still reproduces its
// digest, once and not timed: it checks the engine rather than building
// inputs.
struct Setup {
  std::vector<bcn::sim::NetworkConfig> variants;
  double setup_s = 0.0;
  Tally tally;
};

Setup timed_setup(std::uint64_t seed) {
  Setup s;
  std::vector<double> times;
  CpuRotation cpus;  // one repeat per CPU; restored before timing
  for (int r = 0; r < kSetupRepeats; ++r) {
    cpus.next();
    const auto t0 = Clock::now();
    s.variants = make_variants(seed);
    for (const auto& cfg : s.variants) bcn::sim::Network net(cfg);
    times.push_back(seconds_since(t0));
  }
  s.tally.check(reference_digest_holds());
  s.setup_s = median(times);
  return s;
}

}  // namespace

Measured measure_packet_star(const RunSpec& spec) {
  Measured m;
  const Setup setup = timed_setup(spec.seed);
  m.setup_s = setup.setup_s;
  m.tally.add(setup.tally);

  std::vector<std::uint64_t> digests(setup.variants.size(), 0);
  const Ops r = run_ops(setup.variants, spec.seconds, false, digests);
  m.tally.add(r.tally);
  std::vector<double> rates, wall_ms;
  for (const auto& op : r.ops) {
    rates.push_back(sim_ms_per_s(op));
    wall_ms.push_back(op.wall_s * 1e3);
  }
  m.work_per_s = median(rates);
  m.op_p50_ms = median(wall_ms);
  m.named.add("pkt_sim_ms_per_s", m.work_per_s, "sim-ms/s");
  m.named.add("pkt_run_p50_ms", m.op_p50_ms, "ms");
  m.named.add("pkt_runs", static_cast<double>(r.ops.size()), "count");
  return m;
}

Tally trace_packet_star(const RunSpec& spec, MetricSet& out) {
  const Setup setup = timed_setup(spec.seed);
  Tally tally = setup.tally;
  std::vector<std::uint64_t> digests(setup.variants.size(), 0);

  reset_spans();
  const Ops r = run_ops(setup.variants, spec.seconds, true, digests);
  const auto spans = collect_spans();
  tally.add(r.tally);

  std::vector<double> untraced_ms, traced_ms;
  double events = 0.0, wall = 0.0;
  double rescheduled = 0.0, high_water = 0.0;
  for (const auto& op : r.ops) {
    if (op.traced) {
      traced_ms.push_back(op.wall_s * 1e3);
      continue;
    }
    untraced_ms.push_back(op.wall_s * 1e3);
    events += static_cast<double>(op.events);
    wall += op.wall_s;
    rescheduled += static_cast<double>(op.rescheduled);
    high_water = std::max(high_water, static_cast<double>(op.heap_high_water));
  }
  const SpanProfile prof = profile_spans(spans);
  const double ops = static_cast<double>(untraced_ms.size());
  const double horizon_ms = bcn::sim::to_seconds(kHorizon) * 1e3;

  out.add("sim.events_per_s", events / wall, "1/s");
  out.add("sim.events_per_sim_ms", events / (ops * horizon_ms), "count");
  out.add("sim.heap_high_water", high_water, "count");
  out.add("sim.events_rescheduled", rescheduled / ops, "count");
  out.add("obs.coverage.packet_star", prof.coverage, "ratio");
  out.add("obs.trace_overhead.packet_star",
          median(traced_ms) / median(untraced_ms) - 1.0, "ratio");
  return tally;
}

}  // namespace perfbench
