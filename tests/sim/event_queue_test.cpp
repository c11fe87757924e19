#include "sim/event_queue.h"

#include <vector>

#include <gtest/gtest.h>

#include "recording_target.h"

namespace bcn::sim {
namespace {


TEST(SimTimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(kMicrosecond), 1e-6);
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_EQ(from_seconds(to_seconds(12345)), 12345);
}

TEST(SimTimeTest, TransmissionTimeRoundsUp) {
  // 12000 bits at 10 Gbps = 1200 ns exactly.
  EXPECT_EQ(transmission_time(12000.0, 10e9), 1200);
  // 1 bit at 10 Gbps = 0.1 ns -> rounds up to 1 ns.
  EXPECT_EQ(transmission_time(1.0, 10e9), 1);
  EXPECT_EQ(transmission_time(0.0, 10e9), 0);
  // Zero rate never completes (huge sentinel).
  EXPECT_GT(transmission_time(1.0, 0.0), kSecond);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  RecordingTarget rec(sim);
  sim.schedule_event(30, &rec, EventKind::Tick, 3);
  sim.schedule_event(10, &rec, EventKind::Tick, 1);
  sim.schedule_event(20, &rec, EventKind::Tick, 2);
  sim.run_until(100);
  EXPECT_EQ(rec.tags(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, SimultaneousEventsFifo) {
  Simulator sim;
  RecordingTarget rec(sim);
  for (std::uint32_t i = 0; i < 5; ++i) {
    sim.schedule_event(10, &rec, EventKind::Tick, i);
  }
  sim.run_until(10);
  EXPECT_EQ(rec.tags(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  RecordingTarget rec(sim);
  sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.schedule_event(20, &rec, EventKind::Tick, 0);
  sim.run_until(15);
  EXPECT_EQ(rec.entries().size(), 1u);
  EXPECT_EQ(sim.now(), 15);
  sim.run_until(25);
  EXPECT_EQ(rec.entries().size(), 2u);
}

TEST(SimulatorTest, HandlerSchedulesRelativeToNow) {
  Simulator sim;
  RecordingTarget rec(sim);
  rec.set_hook([&](const SimEvent& e) {
    if (e.tag == 0) sim.schedule_event(sim.now() + 5, &rec, EventKind::Tick, 1);
  });
  sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.run_until(100);
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  RecordingTarget rec(sim);
  const EventId id = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.schedule_event(20, &rec, EventKind::Tick, 1);
  sim.cancel(id);
  sim.run_until(100);
  EXPECT_EQ(rec.tags(), (std::vector<std::uint32_t>{1}));
}

TEST(SimulatorTest, CancelInvalidAndFiredIsNoop) {
  Simulator sim;
  RecordingTarget rec(sim);
  const EventId id = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.run_until(50);
  sim.cancel(id);             // already fired
  sim.cancel(kInvalidEvent);  // invalid handle
  EXPECT_EQ(rec.entries().size(), 1u);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, EventsScheduledInPastClampToNow) {
  Simulator sim;
  RecordingTarget rec(sim);
  sim.run_until(50);
  sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.run_until(60);
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{50}));
}

TEST(SimulatorTest, EventsCanScheduleChains) {
  Simulator sim;
  RecordingTarget rec(sim);
  rec.set_hook([&](const SimEvent&) {
    if (rec.entries().size() < 10) {
      sim.schedule_event(sim.now() + 5, &rec, EventKind::Tick, 0);
    }
  });
  sim.schedule_event(0, &rec, EventKind::Tick, 0);
  const std::size_t executed = sim.run_until(1000);
  EXPECT_EQ(rec.entries().size(), 10u);
  EXPECT_EQ(executed, 10u);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, IdleReflectsLiveEvents) {
  Simulator sim;
  RecordingTarget rec(sim);
  EXPECT_TRUE(sim.idle());
  const EventId id = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  EXPECT_FALSE(sim.idle());
  sim.cancel(id);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace bcn::sim
