// fabric_fattree: sim::shard::run_fabric on fat-tree:16 (1024 hosts,
// 5120 ports, 15 permutation rounds = 15360 flows) at 2 shards.  It
// exercises a heap of about 10^5 pending events, the epoch barrier, the
// MPSC exchange and the staging sort, none of which packet_star touches.
// Two shards leave headroom on a shared 4-vCPU host.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "layer_trace.h"
#include "obs/tracing.h"
#include "sim/shard/engine.h"
#include "sim/shard/topology.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace shard = bcn::sim::shard;

constexpr int kFatTreeK = 16;
constexpr int kFlowRounds = 15;
constexpr int kShards = 2;
constexpr bcn::sim::SimTime kHorizon = 1000 * bcn::sim::kMicrosecond;
constexpr int kSetupRepeats = 32;

// The sharded-throughput experiment's reference options.
shard::FabricOptions fabric_options(const shard::Topology& topo,
                                    bcn::sim::SimTime duration) {
  shard::FabricOptions o;
  o.q0 = 2.5e6;
  o.w = 2.0;
  o.pm = 0.2;
  o.regulator.gi = 0.5;
  o.regulator.gd = 1.0 / 128.0;
  o.regulator.ru = 8e6;
  o.regulator.max_rate = topo.host_rate;
  o.initial_rate = 5e7;
  o.duration = duration;
  o.sample_interval = 50 * bcn::sim::kMicrosecond;
  return o;
}

// The shard-count contract on a small fabric: the digest at 2 shards
// equals the digest at 1.
bool shard_digest_holds(std::uint64_t seed) {
  shard::FatTreeOptions ft;
  ft.k = 4;
  auto topo = shard::make_fat_tree(ft);
  shard::add_permutation_flows(topo, 2, seed);
  const auto options = fabric_options(topo, 300 * bcn::sim::kMicrosecond);
  const auto one = shard::run_fabric(topo, options, 1);
  const auto two = shard::run_fabric(topo, options, kShards);
  return one.frames_sent > 0 && one.digest == two.digest;
}

// Frames are conserved: sent = delivered + dropped + still in the fabric,
// where what is still in the fabric fits in the queues plus the wires.
bool conserved(const shard::FabricResult& r, const shard::Topology& topo) {
  if (r.frames_sent < r.frames_delivered + r.frames_dropped) return false;
  const std::uint64_t inside =
      r.frames_sent - r.frames_delivered - r.frames_dropped;
  double peak_queue_bits = 0.0;
  for (const double q : r.total_queue) peak_queue_bits = std::max(peak_queue_bits, q);
  const double bound =
      peak_queue_bits / 12000.0 +
      2.0 * static_cast<double>(topo.ports.size() + topo.flows.size());
  return r.frames_delivered > 0 && static_cast<double>(inside) <= bound &&
         r.bits_delivered == 12000.0 * static_cast<double>(r.frames_delivered);
}

struct Ops {
  Tally tally;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  shard::FabricResult last;  // of an untraced op
};

// With `alternate`, every second op runs traced.
Ops run_ops(const shard::Topology& topo, double seconds, bool alternate,
            std::uint64_t& digest) {
  Ops r;
  const auto options = fabric_options(topo, kHorizon);
  const auto start = Clock::now();
  for (int i = 0; i < (alternate ? 2 : 1) || seconds_since(start) < seconds;
       ++i) {
    const bool traced = alternate && i % 2 == 1;
    if (traced) bcn::obs::tracing_enable();
    const auto t0 = Clock::now();
    shard::FabricResult result;
    {
      bcn::obs::TraceSpan span("bench.shard.run_fabric");
      result = shard::run_fabric(topo, options, kShards);
    }
    (traced ? r.traced_wall_s : r.wall_s).push_back(seconds_since(t0));
    if (traced) bcn::obs::tracing_disable();
    if (digest == 0) digest = result.digest;
    r.tally.check(result.digest == digest && conserved(result, topo));
    if (!traced) r.last = std::move(result);
  }
  return r;
}

double sim_us_per_s(double wall_s) {
  return bcn::sim::to_seconds(kHorizon) * 1e6 / wall_s;
}

// Set-up: the fabric, its flows and its partition (the inputs; each
// stage's time is the median over the repeats), then the shard-count
// contract, checked once on a small fabric and not timed: it checks the
// engine rather than building inputs.
struct Setup {
  shard::Topology topo;
  double setup_s = 0.0;
  double topology_s = 0.0, flows_s = 0.0, partition_s = 0.0;
  Tally tally;
};

Setup timed_setup(std::uint64_t seed) {
  Setup s;
  std::vector<double> total, topo, flows, part;
  CpuRotation cpus;  // one repeat per CPU; restored before timing
  for (int r = 0; r < kSetupRepeats; ++r) {
    cpus.next();
    const auto t0 = Clock::now();
    shard::FatTreeOptions ft;
    ft.k = kFatTreeK;
    s.topo = shard::make_fat_tree(ft);
    topo.push_back(seconds_since(t0));
    auto t1 = Clock::now();
    shard::add_permutation_flows(s.topo, kFlowRounds, seed);
    flows.push_back(seconds_since(t1));
    t1 = Clock::now();
    const shard::Partition partition =
        shard::partition_topology(s.topo, kShards);
    part.push_back(seconds_since(t1));
    total.push_back(seconds_since(t0));
    s.tally.check(partition.shards == kShards);
  }
  s.tally.check(shard_digest_holds(seed));
  s.setup_s = median(total);
  s.topology_s = median(topo);
  s.flows_s = median(flows);
  s.partition_s = median(part);
  return s;
}

}  // namespace

Measured measure_fabric_fattree(const RunSpec& spec) {
  Measured m;
  const Setup setup = timed_setup(spec.seed);
  m.setup_s = setup.setup_s;
  m.tally.add(setup.tally);

  std::uint64_t digest = 0;
  const Ops r = run_ops(setup.topo, spec.seconds, false, digest);
  m.tally.add(r.tally);
  std::vector<double> rates, wall_ms;
  for (const double s : r.wall_s) {
    rates.push_back(sim_us_per_s(s));
    wall_ms.push_back(s * 1e3);
  }
  m.work_per_s = median(rates);
  m.op_p50_ms = median(wall_ms);
  m.named.add("fabric_sim_us_per_s", m.work_per_s, "sim-us/s");
  m.named.add("fabric_run_p50_ms", m.op_p50_ms, "ms");
  m.named.add("fabric_runs", static_cast<double>(r.wall_s.size()), "count");
  return m;
}

Tally trace_fabric_fattree(const RunSpec& spec, MetricSet& out) {
  const Setup setup = timed_setup(spec.seed);
  Tally tally = setup.tally;

  std::uint64_t digest = 0;
  reset_spans();
  const Ops r = run_ops(setup.topo, spec.seconds, true, digest);
  const auto spans = collect_spans();
  tally.add(r.tally);
  const SpanProfile prof = profile_spans(spans);

  const auto& last = r.last;
  const double wall = median(r.wall_s);
  const double events = static_cast<double>(last.events_executed);
  out.add("shard.topology_s", setup.topology_s, "s");
  out.add("shard.flows_s", setup.flows_s, "s");
  out.add("shard.partition_s", setup.partition_s, "s");
  out.add("shard.events_per_s_per_shard", events / (wall * kShards), "1/s");
  out.add("shard.epochs", static_cast<double>(last.epochs), "count");
  out.add("shard.events_per_epoch",
          events / static_cast<double>(std::max<std::uint64_t>(last.epochs, 1)),
          "count");
  out.add("shard.cross_shard_share",
          static_cast<double>(last.cross_shard_records) /
              static_cast<double>(
                  std::max<std::uint64_t>(last.staged_records, 1)),
          "ratio");
  out.add("obs.coverage.fabric_fattree", prof.coverage, "ratio");
  out.add("obs.trace_overhead.fabric_fattree",
          median(r.traced_wall_s) / wall - 1.0, "ratio");
  return tally;
}

}  // namespace perfbench
