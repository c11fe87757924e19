#include "sim/event_queue.h"

#include <algorithm>
#include <array>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/tracing.h"
#include "recording_target.h"
#include "staged_stream.h"

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

// --- the staged stream ----------------------------------------------------

StagedEvent staged_frame(SimTime when, EventTarget* target, std::uint64_t seq) {
  StagedEvent e;
  e.when = when;
  e.target = target;
  e.kind = EventKind::FrameArrival;
  e.payload.frame = Frame{};
  e.payload.frame.seq = seq;
  return e;
}

TEST(StagedStreamTest, StreamEventsTakeNoSlotAndCarryNoHandle) {
  Simulator sim;
  RecordingTarget rec(sim);
  std::vector<EventId> ids;
  rec.set_hook([&](const SimEvent& e) { ids.push_back(e.id); });
  std::vector<StagedEvent> events;
  for (std::uint64_t i = 0; i < 5; ++i) {
    events.push_back(staged_frame(10 + static_cast<SimTime>(i), &rec, i));
  }
  StagedStream stream(events);
  EXPECT_EQ(sim.run_until(100, stream), 5u);
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{10, 11, 12, 13, 14}));
  EXPECT_EQ(ids, std::vector<EventId>(5, kInvalidEvent));
  EXPECT_EQ(sim.executed(), 5u);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.pool_slots(), 0u);
  EXPECT_EQ(sim.heap_high_water(), 0u);
}

TEST(StagedStreamTest, StreamStopsAtTheHorizon) {
  Simulator sim;
  RecordingTarget rec(sim);
  const std::vector<StagedEvent> events = {staged_frame(10, &rec, 0),
                                           staged_frame(20, &rec, 1),
                                           staged_frame(30, &rec, 2)};
  StagedStream stream(events);
  EXPECT_EQ(sim.run_until(20, stream), 2u);
  EXPECT_EQ(stream.remaining(), 1u);
  EXPECT_EQ(stream.when(), 30);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.run_until(30, stream), 1u);
  EXPECT_TRUE(stream.done());
}

TEST(StagedStreamTest, PastDeadlinesClampToNowAndCount) {
  Simulator sim;
  RecordingTarget rec(sim);
  sim.run_until(50);
  const std::vector<StagedEvent> events = {staged_frame(10, &rec, 0),
                                           staged_frame(50, &rec, 1),
                                           staged_frame(60, &rec, 2)};
  StagedStream stream(events);
  sim.run_until(60, stream);
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{50, 50, 60}));
  EXPECT_EQ(sim.clamped_count(), 1u);
}

TEST(StagedStreamTest, RunSpanCountsStagedEvents) {
  obs::tracing_disable();
  obs::tracing_clear();
  obs::tracing_enable();
  Simulator sim;
  RecordingTarget rec(sim);
  sim.schedule_event(15, &rec, EventKind::Tick, 0);
  const std::vector<StagedEvent> events = {staged_frame(10, &rec, 0),
                                           staged_frame(20, &rec, 1)};
  StagedStream stream(events);
  sim.run_until(30, stream);
  obs::tracing_disable();
  obs::tracing_drain();
  const std::vector<obs::SpanRecord> spans = obs::tracing_spans();
  obs::tracing_clear();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "sim.run_until");
  std::vector<std::string> keys;
  std::vector<double> values;
  for (std::uint8_t i = 0; i < spans[0].n_args; ++i) {
    keys.emplace_back(spans[0].args[i].key);
    values.push_back(spans[0].args[i].value);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"until_ns", "events", "heap_hwm",
                                            "staged"}));
  EXPECT_EQ(values, (std::vector<double>{30, 3, 1, 2}));
}

// Differential check of the merge: one simulator runs each round's stream
// through run_until(until, stream); the reference schedules the same
// events with schedule_frame/schedule_bcn right before a plain
// run_until(until).  Both see the same pre-armed timers, and the same
// handlers arm, re-arm, reschedule and cancel timers while they run, some
// at the very instant that is firing.  The dispatch sequences must agree.
constexpr std::uint32_t kActors = 4;
constexpr std::size_t kMaxFired = 200000;  // bounds zero-delay chains

struct Fired {
  std::uint32_t actor;
  EventKind kind;
  std::uint32_t tag;
  SimTime at;
  std::uint64_t payload;  // frame seq or BCN cpid; 0 for timers
  bool operator==(const Fired&) const = default;
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Harness;

class Actor final : public EventTarget {
 public:
  void on_event(const SimEvent& event) override;

  Harness* h = nullptr;
  std::uint32_t index = 0;
  EventId timer = kInvalidEvent;
};

struct Harness {
  Harness() {
    for (std::uint32_t i = 0; i < kActors; ++i) {
      actors[i].h = this;
      actors[i].index = i;
    }
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  Simulator sim;
  std::array<Actor, kActors> actors;
  std::vector<Fired> fired;
};

void Actor::on_event(const SimEvent& event) {
  Simulator& sim = h->sim;
  const SimTime now = sim.now();
  std::uint64_t payload = 0;
  if (event.kind == EventKind::FrameArrival) payload = event.payload.frame.seq;
  if (event.kind == EventKind::BcnDelivery) payload = event.payload.bcn.cpid;
  h->fired.push_back({index, event.kind, event.tag, now, payload});
  if (h->fired.size() > kMaxFired) return;
  // A pure function of what fired so far: the two simulators act alike
  // for exactly as long as their sequences agree.
  const std::uint64_t r = splitmix(h->fired.size() * 1315423911ull +
                                   event.tag * 2654435761ull +
                                   static_cast<std::uint64_t>(now));
  Actor& peer = h->actors[(index + 1 + r % (kActors - 1)) % kActors];
  const SimTime delay = static_cast<SimTime>((r >> 8) % 3);  // 0: this instant
  switch ((r >> 16) % 8) {
    case 0:
      timer = sim.arm(timer, now + delay, this, EventKind::Tick, 100 + index);
      break;
    case 1:
      sim.cancel(peer.timer);
      break;
    case 2:
      sim.reschedule(peer.timer, now + delay);
      break;
    case 3:
      sim.schedule_event(now + delay, this, EventKind::Tick, 200 + index);
      break;
    default:
      break;
  }
}

struct PlannedEvent {
  SimTime when;
  std::uint32_t actor;
  bool bcn;
  std::uint32_t tag;
  std::uint64_t id;
};

StagedEvent materialize(const PlannedEvent& p, Harness& h) {
  StagedEvent e;
  e.when = p.when;
  e.target = &h.actors[p.actor];
  e.tag = p.tag;
  if (p.bcn) {
    e.kind = EventKind::BcnDelivery;
    e.payload.bcn = BcnMessage{};
    e.payload.bcn.cpid = static_cast<CongestionPointId>(p.id);
  } else {
    e.kind = EventKind::FrameArrival;
    e.payload.frame = Frame{};
    e.payload.frame.seq = p.id;
  }
  return e;
}

TEST(StagedStreamTest, MergeMatchesSchedulingTheStreamFirst) {
  std::size_t heap_then_stream = 0;  // same-instant ties, both directions
  std::size_t stream_then_heap = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Harness ref;
    Harness merged;
    std::uint64_t next_id = 1;
    for (int round = 0; round < 60; ++round) {
      const SimTime base = ref.sim.now();
      ASSERT_EQ(merged.sim.now(), base);
      const auto span = static_cast<SimTime>(1 + rng() % 6);
      const SimTime until = base + span;
      // Timers pending before the run, on the instants the stream uses.
      for (std::uint32_t a = 0; a < kActors; ++a) {
        if (rng() % 2 != 0) continue;
        const SimTime when = base + static_cast<SimTime>(rng() % (span + 1));
        for (Harness* h : {&ref, &merged}) {
          h->actors[a].timer = h->sim.arm(h->actors[a].timer, when,
                                          &h->actors[a], EventKind::Tick,
                                          100 + a);
        }
      }
      // The stream, bunched on few instants; now and then a deadline
      // already in the past.
      std::vector<PlannedEvent> plan(rng() % 12);
      for (PlannedEvent& p : plan) {
        p.when = base + static_cast<SimTime>(rng() % (span + 1));
        if (base >= 2 && rng() % 10 == 0) p.when = base - 2;
        p.actor = static_cast<std::uint32_t>(rng() % kActors);
        p.bcn = rng() % 2 == 0;
        p.tag = static_cast<std::uint32_t>(rng() % 3);
        p.id = next_id++;
      }
      std::stable_sort(plan.begin(), plan.end(),
                       [](const PlannedEvent& a, const PlannedEvent& b) {
                         return a.when < b.when;
                       });

      for (const PlannedEvent& p : plan) {
        const StagedEvent e = materialize(p, ref);
        if (p.bcn) {
          ref.sim.schedule_bcn(e.when, e.target, e.tag, e.payload.bcn);
        } else {
          ref.sim.schedule_frame(e.when, e.target, e.tag, e.payload.frame);
        }
      }
      const std::size_t ref_ran = ref.sim.run_until(until);

      std::vector<StagedEvent> staged;
      for (const PlannedEvent& p : plan) staged.push_back(materialize(p, merged));
      StagedStream stream(staged);
      const std::size_t merged_ran = merged.sim.run_until(until, stream);
      EXPECT_TRUE(stream.done());
      ASSERT_EQ(merged_ran, ref_ran) << "round " << round;
    }
    ref.sim.run_until(ref.sim.now() + 100);
    merged.sim.run_until(merged.sim.now() + 100);
    ASSERT_LT(ref.fired.size(), kMaxFired);
    ASSERT_EQ(merged.fired, ref.fired);
    EXPECT_EQ(merged.sim.executed(), ref.sim.executed());
    EXPECT_EQ(merged.sim.clamped_count(), ref.sim.clamped_count());
    EXPECT_EQ(merged.sim.now(), ref.sim.now());
    EXPECT_TRUE(merged.sim.idle());
    EXPECT_LT(merged.sim.pool_slots(), ref.sim.pool_slots());

    for (std::size_t i = 1; i < ref.fired.size(); ++i) {
      const Fired& a = ref.fired[i - 1];
      const Fired& b = ref.fired[i];
      if (a.at != b.at) continue;
      const bool a_timer = a.kind == EventKind::Tick;
      const bool b_timer = b.kind == EventKind::Tick;
      if (a_timer && !b_timer) ++heap_then_stream;
      if (!a_timer && b_timer) ++stream_then_heap;
    }
  }
  // The seeds exercise same-instant ties in both directions.
  EXPECT_GT(heap_then_stream, 0u);
  EXPECT_GT(stream_then_heap, 0u);
}

}  // namespace
}  // namespace bcn::sim
