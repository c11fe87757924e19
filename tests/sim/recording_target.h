// A test-only EventTarget that records every typed event it receives:
// kind, tag, firing time and payload.  Tests wire entities to it through
// the same EventLink hops the scenarios use, and drive the simulator with
// an optional per-event hook where a handler has to act (re-arm, chain,
// deliver a PAUSE at a chosen instant).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace bcn::sim {

class RecordingTarget : public EventTarget {
 public:
  struct Entry {
    EventKind kind;
    std::uint32_t tag;
    SimTime at;
    EventPayload payload;
  };
  using Hook = std::function<void(const SimEvent&)>;

  explicit RecordingTarget(Simulator& sim) : sim_(sim) {}

  void on_event(const SimEvent& event) override {
    entries_.push_back({event.kind, event.tag, sim_.now(), event.payload});
    if (hook_) hook_(event);
  }

  // Runs after each event is recorded.
  void set_hook(Hook hook) { hook_ = std::move(hook); }

  // A hop into this recorder, tagged `tag`, after `delay`.
  EventLink link(std::uint32_t tag = 0, SimTime delay = 0) {
    return EventLink(sim_, this, tag, delay);
  }

  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<std::uint32_t> tags() const {
    std::vector<std::uint32_t> out;
    for (const Entry& e : entries_) out.push_back(e.tag);
    return out;
  }
  std::vector<SimTime> times() const {
    std::vector<SimTime> out;
    for (const Entry& e : entries_) out.push_back(e.at);
    return out;
  }
  std::vector<SimTime> times(EventKind kind) const {
    std::vector<SimTime> out;
    for (const Entry& e : entries_) {
      if (e.kind == kind) out.push_back(e.at);
    }
    return out;
  }
  std::vector<Frame> frames() const {
    std::vector<Frame> out;
    for (const Entry& e : entries_) {
      if (e.kind == EventKind::FrameArrival) out.push_back(e.payload.frame);
    }
    return out;
  }
  std::vector<BcnMessage> bcn() const {
    std::vector<BcnMessage> out;
    for (const Entry& e : entries_) {
      if (e.kind == EventKind::BcnDelivery) out.push_back(e.payload.bcn);
    }
    return out;
  }
  std::vector<PauseFrame> pauses() const {
    std::vector<PauseFrame> out;
    for (const Entry& e : entries_) {
      if (e.kind == EventKind::PauseDelivery) out.push_back(e.payload.pause);
    }
    return out;
  }
  void clear() { entries_.clear(); }

 private:
  Simulator& sim_;
  std::vector<Entry> entries_;
  Hook hook_;
};

}  // namespace bcn::sim
