// A test-only stream of external events for the two-argument
// Simulator::run_until: a caller-kept vector of typed events in
// nondecreasing deadline order, read through a cursor.  Tests build the
// vector up front, so dispatching through the stream allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace bcn::sim {

struct StagedEvent {
  SimTime when = 0;
  EventTarget* target = nullptr;
  EventKind kind = EventKind::FrameArrival;
  std::uint32_t tag = 0;
  EventPayload payload;
};

class StagedStream {
 public:
  explicit StagedStream(const std::vector<StagedEvent>& events)
      : next_(events.data()), end_(events.data() + events.size()) {}

  bool done() const { return next_ == end_; }
  SimTime when() const { return next_->when; }
  EventTarget* take(SimEvent& event) {
    const StagedEvent& staged = *next_++;
    event.kind = staged.kind;
    event.tag = staged.tag;
    event.payload = staged.payload;
    return staged.target;
  }

  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - next_);
  }

 private:
  const StagedEvent* next_;
  const StagedEvent* end_;
};

}  // namespace bcn::sim
