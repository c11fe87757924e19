// Determinism of the discrete-event core (satellite of the event-queue
// rewrite): simultaneous events fire in scheduling order, and a fixed-seed
// single-hop run produces byte-identical SimStats every time.  The pinned
// digest is the regression anchor for "the rewrite must not change packet
// trajectories" -- it was captured on the pre-rewrite scheduler and must
// survive every future optimization of the event core.  The multi-hop
// (E15) and parking-lot (E18) pins below anchor the other two packet
// scenarios the same way: result fields, observer trace, timelines, sigma
// histogram and exported metrics.
#include <cstdint>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/metrics.h"
#include "recording_target.h"
#include "sim/multihop.h"
#include "sim/network.h"
#include "sim/parking_lot.h"
#include "sim/stats.h"

namespace bcn::sim {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Field-by-field FNV-1a accumulator: hashing members one at a time keeps
// struct padding out of the digest.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  template <typename T>
  Fnv& add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    h = fnv1a(h, &value, sizeof(value));
    return *this;
  }
  Fnv& add(const std::string& text) {
    h = fnv1a(h, text.data(), text.size());
    return *this;
  }
};

void add_fault_counters(Fnv& f, const FaultCounters& c) {
  f.add(c.bcn_dropped).add(c.bcn_duplicated).add(c.bcn_delayed);
  f.add(c.data_dropped).add(c.pause_dropped).add(c.link_flaps);
  f.add(c.flap_dropped);
}

std::uint64_t hash_multihop_result(const MultihopResult& r) {
  Fnv f;
  f.add(r.victim_throughput).add(r.culprit_throughput);
  f.add(r.core_drops).add(r.edge_drops);
  f.add(r.pauses_core_to_edge).add(r.pauses_edge_to_sources);
  f.add(r.bcn_messages).add(r.edge_peak_queue).add(r.hot_peak_queue);
  f.add(r.events_executed);
  add_fault_counters(f, r.fault_counters);
  return f.h;
}

// The observer's event trace (recording order), timelines (name order)
// and sigma histogram: everything E15 exports from an observed run.
std::uint64_t hash_observer(const SimStats& s) {
  Fnv f;
  for (const obs::TraceEvent& e : s.events().in_order()) {
    f.add(e.t).add(e.kind).add(e.point).add(e.flow).add(e.sigma).add(e.value);
  }
  f.add(s.events().evicted());
  for (const std::string& name : s.timelines().names()) {
    f.add(name);
    for (const obs::TimelinePoint& p : s.timelines().find(name)->points()) {
      f.add(p.t).add(p.value);
    }
  }
  const obs::Histogram& sigma = s.sigma_histogram();
  f.add(sigma.count()).add(sigma.sum());
  for (const std::uint64_t c : sigma.bucket_counts()) f.add(c);
  return f.h;
}

struct MultihopPin {
  MultihopResult run;
  std::uint64_t result = 0;
  std::uint64_t observer = 0;
  std::uint64_t metrics = 0;
};

MultihopPin pin_multihop(MultihopConfig cfg) {
  SimStats observed;
  obs::MetricsRegistry registry;
  cfg.observer = &observed;
  cfg.metrics = &registry;
  const MultihopResult r = run_victim_scenario(cfg);
  JsonWriter json;
  registry.write_json(json, "");
  MultihopPin pin;
  pin.run = r;
  pin.result = hash_multihop_result(r);
  pin.observer = hash_observer(observed);
  pin.metrics = Fnv().add(json.to_string()).h;
  return pin;
}

MultihopConfig e15_mode(bool pause, bool bcn) {
  MultihopConfig cfg;  // the default 50 ms victim scenario
  cfg.enable_pause = pause;
  cfg.enable_bcn = bcn;
  return cfg;
}

// The packet_vs_fluid-style reference scenario: 5 sources into one 10G
// bottleneck, paper-table BCN parameters, 40 ms horizon.
NetworkConfig reference_config() {
  core::BcnParams p;
  p.num_sources = 5;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.w = 2.0;
  p.pm = 0.2;
  p.gi = 0.5;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;
  NetworkConfig cfg;
  cfg.params = p;
  cfg.initial_rate = p.capacity / p.num_sources;
  cfg.record_interval = 20 * kMicrosecond;
  return cfg;
}

struct RunDigest {
  std::uint64_t hash = 0;
  Counters counters;
  std::size_t events_executed = 0;
};

RunDigest run_reference() {
  Network net(reference_config());
  net.run(from_seconds(0.04));
  RunDigest d;
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& tp : net.stats().trace()) h = fnv1a(h, &tp, sizeof(tp));
  h = fnv1a(h, &net.stats().counters, sizeof(net.stats().counters));
  d.hash = h;
  d.counters = net.stats().counters;
  d.events_executed = net.simulator().executed();
  return d;
}

TEST(DeterminismTest, SimultaneousEventsFireInSchedulingOrder) {
  Simulator sim;
  RecordingTarget rec(sim);
  // Schedule out of time order, with a burst of ties at t=10; ties must
  // fire in the order they were scheduled, regardless of heap shape.  The
  // tag is the expected firing position.
  rec.set_hook([&](const SimEvent& e) {
    // Scheduled from a handler, still lands behind the earlier t=10 ties.
    if (e.tag == 99) sim.schedule_event(10, &rec, EventKind::Tick, 4);
  });
  sim.schedule_event(10, &rec, EventKind::Tick, 1);
  sim.schedule_event(5, &rec, EventKind::Tick, 0);
  sim.schedule_event(10, &rec, EventKind::Tick, 2);
  sim.schedule_event(10, &rec, EventKind::Tick, 3);
  sim.schedule_event(7, &rec, EventKind::Tick, 99);
  sim.run_until(100);
  EXPECT_EQ(rec.tags(), (std::vector<std::uint32_t>{0, 99, 1, 2, 3, 4}));
}

TEST(DeterminismTest, FixedSeedRunsAreByteIdentical) {
  const RunDigest a = run_reference();
  const RunDigest b = run_reference();
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(DeterminismTest, ReferenceTrajectoryMatchesPinnedDigest) {
  const RunDigest d = run_reference();
  // Captured on the pre-rewrite scheduler; identical trajectories are the
  // acceptance bar for every event-core change.
  EXPECT_EQ(d.hash, 0x521a746626762d88ull);
  EXPECT_EQ(d.counters.frames_sent, 33540u);
  EXPECT_EQ(d.counters.frames_delivered, 33332u);
  EXPECT_EQ(d.counters.frames_dropped, 0u);
  EXPECT_EQ(d.counters.frames_sampled, 6707u);
  EXPECT_EQ(d.counters.bcn_positive, 4376u);
  EXPECT_EQ(d.counters.bcn_negative, 2183u);
  EXPECT_EQ(d.counters.pause_frames, 0u);
  EXPECT_DOUBLE_EQ(d.counters.bits_delivered, 399984000.0);
  EXPECT_EQ(d.events_executed, 108970u);
}

// E15's three rows (bench/pause_vs_bcn_multihop) pinned end to end: every
// MultihopResult field, the observer's trace/timelines/sigma histogram,
// and the exported scheduler metrics.
TEST(DeterminismTest, MultihopPauseOnlyMatchesPin) {
  const MultihopPin pin = pin_multihop(e15_mode(true, false));
  EXPECT_EQ(pin.result, 0xa30237ba6202ae34ull);
  EXPECT_EQ(pin.observer, 0xd70620568fb5e05full);
  EXPECT_EQ(pin.metrics, 0xc8a63a26fe4fa900ull);
  EXPECT_EQ(pin.run.events_executed, 37118u);
}

TEST(DeterminismTest, MultihopPauseAndBcnMatchesPin) {
  const MultihopPin pin = pin_multihop(e15_mode(true, true));
  // Moved once, by the stranded-frame fix (a frame reaching an idle
  // paused port now resumes at the pause expiry): victim 1.00008 ->
  // 0.99240 Gb/s, PAUSE core->edge 83 -> 109, edge->sources 0 -> 7,
  // events 49776 -> 49669.
  EXPECT_EQ(pin.result, 0x62bbb2a9a13b27d3ull);
  EXPECT_EQ(pin.observer, 0xa067d1aeb3b6ff18ull);
  EXPECT_EQ(pin.metrics, 0xe0e9701d0bbb7094ull);
  EXPECT_EQ(pin.run.events_executed, 49669u);
  EXPECT_EQ(pin.run.victim_throughput, 992400000.0);
  EXPECT_EQ(pin.run.pauses_core_to_edge, 109u);
  EXPECT_EQ(pin.run.pauses_edge_to_sources, 7u);
}

TEST(DeterminismTest, MultihopBcnOnlyMatchesPin) {
  const MultihopPin pin = pin_multihop(e15_mode(false, true));
  EXPECT_EQ(pin.result, 0x7343107bbaa9eeb8ull);
  EXPECT_EQ(pin.observer, 0x0347cb23e7c1b395ull);
  EXPECT_EQ(pin.metrics, 0x771cdd5ec77feaaaull);
  EXPECT_EQ(pin.run.events_executed, 49633u);
}

// Every reverse- and forward-path fault class plus all monitors (flight
// recorder included) on the PAUSE + BCN victim scenario.
TEST(DeterminismTest, MultihopFaultsAndMonitorsMatchPin) {
  MultihopConfig cfg = e15_mode(true, true);
  cfg.duration = 20 * kMillisecond;
  const auto plan = parse_fault_plan(
      "bcn_drop=0.1,bcn_dup=0.05,bcn_delay=0.2:20us,pause_drop=0.1,"
      "data_drop=0.001,flap=8ms+1ms");
  ASSERT_TRUE(plan.has_value());
  cfg.faults = *plan;
  cfg.monitors.spec = obs::MonitorSpec::all();
  const MultihopPin pin = pin_multihop(cfg);
  // Same PAUSE + BCN mode, so it moved with the stranded-frame fix too
  // (events 20097 -> 20159).
  EXPECT_EQ(pin.result, 0x854155e9b5b19177ull);
  EXPECT_EQ(pin.observer, 0x52544b3078dcf002ull);
  EXPECT_EQ(pin.metrics, 0xf1757ffdf623644dull);
  EXPECT_EQ(pin.run.events_executed, 20159u);
}

// E18's default row (bench/parking_lot_association).
TEST(DeterminismTest, ParkingLotDefaultMatchesPin) {
  const ParkingLotResult r = run_parking_lot(ParkingLotConfig{});
  Fnv f;
  f.add(r.group_a_rate).add(r.group_b_rate);
  f.add(r.cp1_peak_queue).add(r.cp2_peak_queue);
  f.add(r.cp1_negatives).add(r.cp2_negatives);
  f.add(r.cp1_positives).add(r.cp2_positives);
  f.add(r.group_a_on_cp1).add(r.group_a_on_cp2);
  f.add(r.drops).add(r.events_executed);
  add_fault_counters(f, r.fault_counters);
  EXPECT_EQ(f.h, 0x221dc7fb29aad594ull);
  EXPECT_EQ(r.events_executed, 210695u);
}

}  // namespace
}  // namespace bcn::sim
