#include "sim/core_switch.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "recording_target.h"

namespace bcn::sim {
namespace {


// The switch's BCN, PAUSE and sink hops all land in one recorder.  Links
// deliver as events, so checks on emitted messages flush() first: that
// runs everything due at the current instant (zero-delay hops) without
// advancing time.
struct Harness {
  Simulator sim;
  SimStats stats;
  CoreSwitchConfig config;
  RecordingTarget out{sim};

  explicit Harness(CoreSwitchConfig c) : config(c), sw(sim, c, stats) {
    sw.set_bcn_sender(out.link());
    sw.set_pause_sender(out.link());
    sw.set_sink(out.link());
  }

  void flush() { sim.run_until(sim.now()); }
  std::vector<BcnMessage> bcn() {
    flush();
    return out.bcn();
  }
  std::vector<PauseFrame> pauses() {
    flush();
    return out.pauses();
  }

  Frame frame(SourceId src, double bits = 12000.0, bool rrt = false,
              CongestionPointId cpid = 1) {
    Frame f;
    f.source = src;
    f.size_bits = bits;
    f.has_rrt = rrt;
    f.rrt_cpid = cpid;
    return f;
  }

  CoreSwitch sw;
};

CoreSwitchConfig small_config() {
  CoreSwitchConfig c;
  c.capacity = 1e9;
  c.buffer_bits = 120000.0;  // 10 frames
  c.q0 = 60000.0;            // 5 frames
  c.qsc = 96000.0;           // 8 frames
  c.w = 2.0;
  c.pm = 0.5;  // sample every 2nd frame
  c.positive_requires_rrt = false;
  return c;
}

TEST(CoreSwitchTest, EnqueueAndDrain) {
  Harness h(small_config());
  h.sw.on_frame(h.frame(0));
  EXPECT_DOUBLE_EQ(h.sw.queue_bits(), 12000.0);
  // Drain at 1 Gbps: 12 us per frame.
  h.sim.run_until(12 * kMicrosecond);
  EXPECT_DOUBLE_EQ(h.sw.queue_bits(), 0.0);
  EXPECT_EQ(h.stats.counters.frames_delivered, 1u);
  EXPECT_DOUBLE_EQ(h.stats.counters.bits_delivered, 12000.0);
}

TEST(CoreSwitchTest, DropsWhenBufferFull) {
  Harness h(small_config());
  for (int i = 0; i < 12; ++i) h.sw.on_frame(h.frame(0));
  // 10 fit (120000 bits), 2 dropped.
  EXPECT_EQ(h.stats.counters.frames_enqueued, 10u);
  EXPECT_EQ(h.stats.counters.frames_dropped, 2u);
  EXPECT_DOUBLE_EQ(h.sw.queue_bits(), 120000.0);
}

TEST(CoreSwitchTest, SamplesEveryNthFrame) {
  Harness h(small_config());  // pm = 0.5 -> every 2nd
  for (int i = 0; i < 10; ++i) h.sw.on_frame(h.frame(0));
  EXPECT_EQ(h.stats.counters.frames_sampled, 5u);
}

TEST(CoreSwitchTest, NegativeBcnWhenCongested) {
  Harness h(small_config());
  // Fill to 8 frames quickly: q = 96000 > q0 = 60000, delta_q > 0 ->
  // sigma < 0 on the later samples.
  for (int i = 0; i < 8; ++i) h.sw.on_frame(h.frame(3));
  EXPECT_GT(h.stats.counters.bcn_negative, 0u);
  const auto bcn = h.bcn();
  ASSERT_FALSE(bcn.empty());
  EXPECT_EQ(bcn.back().target, 3u);
  EXPECT_LT(bcn.back().sigma, 0.0);
  EXPECT_EQ(bcn.back().cpid, 1u);
}

TEST(CoreSwitchTest, SigmaFollowsEq1) {
  Harness h(small_config());
  // First two arrivals: sample fires on the 2nd with q = 12000 (one frame
  // enqueued before sampling of the 2nd happens pre-enqueue), delta_q =
  // 12000 - 0.  sigma = (q0 - q) - w dq = (60000-12000) - 2*12000 = 24000.
  h.sw.on_frame(h.frame(0));
  h.sw.on_frame(h.frame(0));
  const auto bcn = h.bcn();
  ASSERT_EQ(bcn.size(), 1u);
  EXPECT_DOUBLE_EQ(bcn[0].sigma, 24000.0);
}

TEST(CoreSwitchTest, PositiveBcnOnlyBelowQ0) {
  Harness h(small_config());
  h.sw.on_frame(h.frame(5));
  h.sw.on_frame(h.frame(5));  // sampled: q = 12000 < q0, sigma > 0
  const auto bcn = h.bcn();
  ASSERT_EQ(bcn.size(), 1u);
  EXPECT_GT(bcn[0].sigma, 0.0);
  EXPECT_EQ(h.stats.counters.bcn_positive, 1u);
}

TEST(CoreSwitchTest, PositiveRequiresRrtWhenConfigured) {
  CoreSwitchConfig c = small_config();
  c.positive_requires_rrt = true;
  Harness h(c);
  h.sw.on_frame(h.frame(0));
  h.sw.on_frame(h.frame(0));  // sampled, untagged -> no positive BCN
  EXPECT_TRUE(h.bcn().empty());
  // Tagged frame with matching CPID gets positive feedback.
  h.sw.on_frame(h.frame(0, 12000.0, true, 1));
  h.sw.on_frame(h.frame(0, 12000.0, true, 1));
  h.sim.run_until(80 * kMicrosecond);  // drain below q0
  h.sw.on_frame(h.frame(0, 12000.0, true, 1));
  h.sw.on_frame(h.frame(0, 12000.0, true, 1));
  EXPECT_GE(h.stats.counters.bcn_positive, 1u);
}

TEST(CoreSwitchTest, MismatchedCpidGetsNoPositive) {
  CoreSwitchConfig c = small_config();
  c.positive_requires_rrt = true;
  Harness h(c);
  h.sw.on_frame(h.frame(0, 12000.0, true, 99));
  h.sw.on_frame(h.frame(0, 12000.0, true, 99));
  EXPECT_EQ(h.stats.counters.bcn_positive, 0u);
}

TEST(CoreSwitchTest, PauseAboveQsc) {
  Harness h(small_config());
  for (int i = 0; i < 9; ++i) h.sw.on_frame(h.frame(0));
  EXPECT_GE(h.stats.counters.pause_frames, 1u);
  const auto pauses = h.pauses();
  ASSERT_FALSE(pauses.empty());
  EXPECT_GT(pauses[0].duration, 0);
}

TEST(CoreSwitchTest, PauseCooldownLimitsRate) {
  Harness h(small_config());
  for (int i = 0; i < 10; ++i) h.sw.on_frame(h.frame(0));
  // All arrivals above qsc land within the cooldown window.
  EXPECT_EQ(h.stats.counters.pause_frames, 1u);
}

TEST(CoreSwitchTest, PauseDisabled) {
  CoreSwitchConfig c = small_config();
  c.enable_pause = false;
  Harness h(c);
  for (int i = 0; i < 10; ++i) h.sw.on_frame(h.frame(0));
  EXPECT_EQ(h.stats.counters.pause_frames, 0u);
  EXPECT_TRUE(h.pauses().empty());
}

TEST(CoreSwitchTest, ServiceKeepsDrainingBackToBack) {
  Harness h(small_config());
  for (int i = 0; i < 5; ++i) h.sw.on_frame(h.frame(0));
  h.sim.run_until(60 * kMicrosecond);  // 5 frames x 12 us
  EXPECT_EQ(h.stats.counters.frames_delivered, 5u);
  EXPECT_DOUBLE_EQ(h.sw.queue_bits(), 0.0);
}

TEST(CoreSwitchTest, ForwardsToSink) {
  Harness h(small_config());
  h.sw.on_frame(h.frame(3));
  h.sw.on_frame(h.frame(4));
  h.sim.run_until(24 * kMicrosecond);
  const auto out = h.out.frames();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].source, 3u);
  EXPECT_EQ(out[1].source, 4u);
  EXPECT_EQ(h.out.times(EventKind::FrameArrival),
            (std::vector<SimTime>{12 * kMicrosecond, 24 * kMicrosecond}));
  EXPECT_EQ(h.stats.counters.frames_delivered, 2u);
}

// A PAUSE from the downstream receiver lets the frame on the wire finish
// and holds the rest of the queue until it expires.
TEST(CoreSwitchTest, PauseStopsServiceAndResumes) {
  Harness h(small_config());
  h.sw.on_frame(h.frame(0));
  h.sw.on_frame(h.frame(0));
  h.sim.run_until(5 * kMicrosecond);
  h.sw.on_pause({100 * kMicrosecond, h.sim.now()});
  h.sim.run_until(100 * kMicrosecond);
  // Only the in-flight frame got out.
  EXPECT_EQ(h.out.times(EventKind::FrameArrival),
            (std::vector<SimTime>{12 * kMicrosecond}));
  h.sim.run_until(200 * kMicrosecond);
  // Resumed when the pause expired at 105 us.
  EXPECT_EQ(h.out.times(EventKind::FrameArrival),
            (std::vector<SimTime>{12 * kMicrosecond, 117 * kMicrosecond}));
}

// Regression: a frame reaching an idle port during a PAUSE used to wait
// for the next arrival after the pause ended -- forever, if none came.
TEST(CoreSwitchTest, PausedIdlePortResumesWithoutFurtherArrivals) {
  Harness h(small_config());  // 1 Gb/s: 12 us per frame
  h.sw.on_pause({100 * kMicrosecond, 0});
  h.sim.run_until(5 * kMicrosecond);
  h.sw.on_frame(h.frame(0));
  h.sim.run_until(10 * kMillisecond);
  EXPECT_EQ(h.out.times(EventKind::FrameArrival),
            (std::vector<SimTime>{112 * kMicrosecond}));
  EXPECT_DOUBLE_EQ(h.sw.queue_bits(), 0.0);
}

// Same, when a second PAUSE extends the hold while the frame waits: the
// expiry of the first re-arms the resume instead of idling the server.
TEST(CoreSwitchTest, ExtendedPauseResumesAtTheNewDeadline) {
  Harness h(small_config());
  h.sw.on_pause({100 * kMicrosecond, 0});
  h.sim.run_until(5 * kMicrosecond);
  h.sw.on_frame(h.frame(0));
  h.sim.run_until(50 * kMicrosecond);
  h.sw.on_pause({100 * kMicrosecond, h.sim.now()});  // hold until 150 us
  h.sim.run_until(10 * kMillisecond);
  EXPECT_EQ(h.out.times(EventKind::FrameArrival),
            (std::vector<SimTime>{162 * kMicrosecond}));
}

TEST(CoreSwitchTest, PauseFiresAtQscThreshold) {
  CoreSwitchConfig c;
  c.capacity = 1e6;  // slow drain so the queue builds
  c.buffer_bits = 1e6;
  c.qsc = 48000.0;  // 4 frames
  c.pm = 0.0;
  Harness h(c);
  for (int i = 0; i < 3; ++i) h.sw.on_frame(h.frame(0));
  EXPECT_TRUE(h.pauses().empty());
  for (int i = 0; i < 3; ++i) h.sw.on_frame(h.frame(0));
  EXPECT_EQ(h.pauses().size(), 1u);  // cooldown limits to one
}

// The multi-hop hot port: the qcn mechanism's congestion-point facet
// sends negative feedback only, stamped with the port's CPID.
TEST(CoreSwitchTest, QcnMechanismSendsNegativeOnly) {
  CoreSwitchConfig c;
  c.capacity = 1e6;
  c.buffer_bits = 1e6;
  c.pm = 0.5;  // sample every 2nd frame
  c.q0 = 24000.0;
  c.cpid = 9;
  c.enable_pause = false;
  Harness h(c);
  const auto qcn = make_packet_mechanism("qcn");
  h.sw.set_mechanism(qcn.get());
  for (int i = 0; i < 10; ++i) h.sw.on_frame(h.frame(5));
  const auto bcn = h.bcn();
  ASSERT_FALSE(bcn.empty());
  EXPECT_EQ(bcn.back().cpid, 9u);
  EXPECT_EQ(bcn.back().target, 5u);
  for (const BcnMessage& m : bcn) EXPECT_LT(m.sigma, 0.0);
  EXPECT_EQ(h.stats.counters.bcn_negative, bcn.size());
  EXPECT_EQ(h.stats.counters.bcn_positive, 0u);
  EXPECT_EQ(h.stats.counters.frames_sampled, 5u);
}

TEST(CoreSwitchTest, ZeroPmDisablesSampling) {
  CoreSwitchConfig c = small_config();
  c.pm = 0.0;
  c.random_sampling = false;
  Harness h(c);
  for (int i = 0; i < 20; ++i) h.sw.on_frame(h.frame(0));
  EXPECT_TRUE(h.bcn().empty());
  EXPECT_EQ(h.stats.counters.frames_sampled, 0u);
  EXPECT_EQ(h.stats.sigma_histogram().count(), 0u);

  c.random_sampling = true;
  Harness r(c);
  for (int i = 0; i < 20; ++i) r.sw.on_frame(r.frame(0));
  EXPECT_TRUE(r.bcn().empty());
  EXPECT_EQ(r.stats.counters.frames_sampled, 0u);
}

// Multi-port wiring: counters stay per port while the sigma samples and
// BCN/PAUSE records go to the shared observer; PAUSE records carry the
// port label and BCN records the CPID.
TEST(CoreSwitchTest, ObserverTakesTraceAndSigmaPortKeepsCounters) {
  CoreSwitchConfig c = small_config();
  c.cpid = 7;
  c.port_label = 2;
  Harness h(c);
  SimStats observer;
  h.sw.set_observer(observer);
  for (int i = 0; i < 9; ++i) h.sw.on_frame(h.frame(0));
  EXPECT_EQ(h.stats.counters.frames_enqueued, 9u);
  EXPECT_GT(h.stats.counters.bcn_negative, 0u);
  EXPECT_EQ(h.stats.counters.pause_frames, 1u);
  EXPECT_TRUE(h.stats.events().empty());
  EXPECT_EQ(h.stats.sigma_histogram().count(), 0u);
  EXPECT_EQ(observer.sigma_histogram().count(),
            h.stats.counters.frames_sampled);
  EXPECT_EQ(observer.events().count(obs::EventKind::BcnNegativeSent),
            h.stats.counters.bcn_negative);
  for (const obs::TraceEvent& e : observer.events().events()) {
    const bool pause = e.kind == obs::EventKind::PauseOn ||
                       e.kind == obs::EventKind::PauseOff;
    EXPECT_EQ(e.point, pause ? 2u : 7u);
  }
  EXPECT_EQ(observer.events().count(obs::EventKind::PauseOn), 1u);
}

}  // namespace
}  // namespace bcn::sim
