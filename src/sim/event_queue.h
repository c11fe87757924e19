// Discrete-event simulation core: typed pooled events on an indexed 4-ary
// min-heap with stable FIFO ordering for simultaneous events.
//
// Design (the simulator fast path):
//   * Event records live in a slab of pool slots recycled through a free
//     list, so steady-state simulation performs zero allocations.
//   * The pending set is a 4-ary min-heap of slot indices ordered by
//     (when, seq); each slot stores its heap position, so cancel and
//     reschedule are O(log n) in-place operations on live handles --
//     there is no tombstone set to grow without bound.
//   * Handles carry a generation: once an event fires or is cancelled its
//     slot's generation advances and the old handle goes stale.  cancel()
//     and reschedule() on a stale handle are cheap no-ops.
//   * Recurring timers re-arm their own slot via reschedule() (valid from
//     inside the handler), keeping one slot per timer for the lifetime of
//     the simulation instead of allocating a fresh event every tick.
//   * A caller may also hand run_until() a sorted stream of external
//     events (the sharded engine's staged hand-offs).  The pending set is
//     then the heap plus that stream: one dispatch loop merges the two,
//     and stream events never take a slot or a heap entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.h"
#include "obs/tracing.h"
#include "sim/event.h"
#include "sim/time.h"

namespace bcn::obs {
class MetricsRegistry;
}

namespace bcn::sim {

class Simulator {
 public:
  Simulator() = default;

  SimTime now() const { return now_; }

  // --- typed scheduling (the zero-allocation fast path) ------------------
  // All absolute times are clamped to >= now(); a strictly-past deadline
  // additionally counts into the sim.schedule_clamped metric and logs a
  // rate-limited warning (a past deadline means a mis-scheduled timer).
  // Events scheduled for the same instant fire in scheduling order.
  EventId schedule_event(SimTime when, EventTarget* target, EventKind kind,
                         std::uint32_t tag);
  EventId schedule_frame(SimTime when, EventTarget* target, std::uint32_t tag,
                         const Frame& frame);
  EventId schedule_bcn(SimTime when, EventTarget* target, std::uint32_t tag,
                       const BcnMessage& message);
  EventId schedule_pause(SimTime when, EventTarget* target, std::uint32_t tag,
                         const PauseFrame& pause);

  // Cancels a live event in place (O(log n) heap removal) and recycles its
  // slot.  A no-op on stale or invalid handles -- repeated cancel after
  // fire leaves no residue and the handle table stays compact.
  void cancel(EventId id);

  // Moves a live event to `when` (clamped to >= now) with a fresh FIFO
  // sequence number, exactly as if it had been cancelled and re-scheduled,
  // but reusing its slot.  Callable from inside the event's own handler to
  // re-arm a recurring timer.  Returns false on a stale/invalid handle.
  bool reschedule(EventId id, SimTime when);

  // reschedule-or-schedule: re-arms `id` when still valid, otherwise
  // schedules a fresh typed event; returns the live handle.  The common
  // idiom for timers that sometimes go idle (e.g. a server with an empty
  // queue).
  EventId arm(EventId id, SimTime when, EventTarget* target, EventKind kind,
              std::uint32_t tag);

  // Runs until the queue drains or simulated time exceeds `until`.
  // Returns the number of events executed.  Advances now() to `until`.
  std::size_t run_until(SimTime until);

  // run_until() that also dispatches a caller-owned stream of external
  // events, merged with the heap in the same loop.  The stream yields its
  // events in nondecreasing deadline order through
  //   bool done() const;                  // no event left
  //   SimTime when() const;               // the next event's deadline
  //   EventTarget* take(SimEvent& event); // fills the next event's kind,
  //                                       // tag and payload, advances,
  //                                       // returns its target
  // and is left positioned at its first event due after `until`.  The
  // order is exactly as if every stream event had been scheduled, in
  // stream order, right before the call: at an equal deadline a stream
  // event fires after every event already pending and before every event
  // scheduled during the run.  Stream events count in executed() and
  // advance now(); a deadline before now() is clamped and counted as
  // schedule_* does; handlers see id == kInvalidEvent.
  template <class Stream>
  std::size_t run_until(SimTime until, Stream& stream);

  // True when no live events remain.  (The firing event stays in the heap
  // while its handler runs, so an empty heap means fully idle; a
  // caller's stream is the caller's to check.)
  bool idle() const { return heap_.empty(); }

  // Deadline of the earliest pending event; only meaningful when not
  // idle().  The sharded engine's epoch loop peeks it to jump over
  // empty epochs (sim/shard/engine.cpp).
  SimTime next_event_time() const {
    return static_cast<SimTime>(
        static_cast<std::uint64_t>(heap_.front().key >> 64));
  }

  std::size_t executed() const { return executed_; }

  // --- introspection (tests, metrics) ------------------------------------
  std::size_t heap_size() const { return heap_.size(); }
  std::size_t heap_high_water() const { return heap_high_water_; }
  // Slots ever created (the pool's slab size) and slots currently free.
  std::size_t pool_slots() const { return slots_.size(); }
  std::size_t pool_free() const { return free_.size(); }
  std::uint64_t cancelled_count() const { return cancelled_; }
  std::uint64_t rescheduled_count() const { return rescheduled_; }
  std::uint64_t clamped_count() const { return clamp_warnings_.count(); }

  // Scheduler gauges/counters into `registry` under `prefix`:
  //   <prefix>heap_high_water, <prefix>pool_slots, <prefix>pool_in_use,
  //   <prefix>events_executed, <prefix>events_cancelled,
  //   <prefix>events_rescheduled, <prefix>schedule_clamped.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "sim.") const;

 private:
  static constexpr std::int32_t kSlotFree = -1;

  // The stream of a plain run_until(): the stream branch of the dispatch
  // loop folds away.
  struct NoStream {
    bool done() const { return true; }
    SimTime when() const { return 0; }
    EventTarget* take(SimEvent&) { return nullptr; }
  };

  struct Slot {
    SimTime when = 0;
    std::uint64_t seq = 0;
    EventTarget* target = nullptr;
    std::uint32_t generation = 1;  // advances when the slot is recycled
    std::int32_t heap_index = kSlotFree;
    EventKind kind = EventKind::Tick;
    std::uint32_t tag = 0;
    EventPayload payload;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot + 1) << 32) | generation;
  }
  // Returns the slot index for a handle whose generation still matches,
  // or -1 for stale/invalid handles.
  std::int64_t resolve(EventId id) const;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  EventId insert(SimTime when, std::uint32_t slot_index);
  SimTime clamp_deadline(SimTime when);

  // Heap entries carry the ordering key alongside the slot index so sift
  // comparisons stay inside the contiguous heap array instead of
  // dereferencing 100+-byte pool slots.  The (when, seq) pair is packed
  // into one 128-bit integer -- when in the high half, seq in the low --
  // so the lexicographic order collapses to a single branchless compare.
  struct HeapEntry {
    unsigned __int128 key;
    std::uint32_t slot;
  };
  static unsigned __int128 make_key(SimTime when, std::uint64_t seq) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(when))
            << 64) |
           seq;
  }
  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    return a.key < b.key;
  }
  void heap_push(const HeapEntry& entry);
  void heap_remove(std::int32_t heap_index);
  void pop_root();
  void sift_up(std::int32_t i);
  void sift_down(std::int32_t i);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t rescheduled_ = 0;
  // Counts every clamped deadline; allows the first few log lines.
  LogRateLimit clamp_warnings_{5};
  std::size_t heap_high_water_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;
};

// --- dispatch ------------------------------------------------------------

template <class Stream>
std::size_t Simulator::run_until(SimTime until, Stream& stream) {
  // One span per drain batch: args carry the simulated horizon, the
  // number of events executed inside it and how many of those came from
  // the stream rather than the heap.
  obs::TraceSpan span("sim.run_until", "until_ns",
                      static_cast<double>(until));
  std::size_t ran = 0;
  std::size_t staged = 0;
  const unsigned __int128 limit = make_key(until, ~0ull);
  // Every stream event ranks with the seq the next schedule_* call would
  // have drawn: after each pending event, before each one scheduled
  // during the run.  Sharing one seq keeps the stream's own order.
  const std::uint64_t stream_seq = next_seq_;
  while (true) {
    if (!stream.done()) {
      const SimTime due = stream.when();
      const unsigned __int128 key = make_key(std::max(due, now_), stream_seq);
      if (key <= limit && (heap_.empty() || key <= heap_[0].key)) {
        now_ = due >= now_ ? due : clamp_deadline(due);
        ++executed_;
        ++ran;
        ++staged;
        SimEvent event;
        EventTarget* target = stream.take(event);
        target->on_event(event);
        continue;
      }
    }
    if (heap_.empty() || heap_[0].key > limit) break;
    const std::uint32_t top = heap_[0].slot;

    // Fire in place: the root entry stays in the heap while its handler
    // runs.  Anything the handler schedules gets a later (when, seq) key,
    // so the firing entry keeps the root spot; a handler that re-arms its
    // own timer turns the usual pop + push into one in-place sift.
    now_ = slots_[top].when;
    const std::uint64_t fired_seq = slots_[top].seq;
    const std::uint32_t fired_gen = slots_[top].generation;
    ++executed_;
    ++ran;

    // Stack copy of the dispatch view: handlers may schedule freely (which
    // can grow the slab and invalidate Slot references).  Only the active
    // payload member is copied.
    SimEvent event;
    event.kind = slots_[top].kind;
    event.tag = slots_[top].tag;
    event.id = make_id(top, fired_gen);
    switch (event.kind) {
      case EventKind::FrameArrival:
        event.payload.frame = slots_[top].payload.frame;
        break;
      case EventKind::BcnDelivery:
        event.payload.bcn = slots_[top].payload.bcn;
        break;
      case EventKind::PauseDelivery:
      case EventKind::PauseExpiry:
        event.payload.pause = slots_[top].payload.pause;
        break;
      default:
        break;
    }
    slots_[top].target->on_event(event);

    // Unless the handler re-armed (fresh seq) or cancelled (fresh
    // generation) the fired event, retire it now.
    if (slots_[top].generation == fired_gen && slots_[top].seq == fired_seq) {
      const std::int32_t at = slots_[top].heap_index;
      if (at == 0) {
        pop_root();
      } else {
        heap_remove(at);  // defensive: the root spot should be retained
      }
      release_slot(top);
    }
  }
  now_ = std::max(now_, until);
  span.arg("events", static_cast<double>(ran));
  span.arg("heap_hwm", static_cast<double>(heap_high_water_));
  span.arg("staged", static_cast<double>(staged));
  return ran;
}

// A precomputed forwarding hop: schedules its payload as a typed event to
// a fixed target after a fixed delay.  The only way an entity emits: the
// scenario wiring builds these once at construction, so every hop on the
// hot path is a direct schedule_* call.
class EventLink {
 public:
  EventLink() = default;
  EventLink(Simulator& sim, EventTarget* target, std::uint32_t tag,
            SimTime delay)
      : sim_(&sim), target_(target), tag_(tag), delay_(delay) {}

  explicit operator bool() const { return target_ != nullptr; }

  void send(const Frame& frame) const {
    sim_->schedule_frame(sim_->now() + delay_, target_, tag_, frame);
  }
  void send(const BcnMessage& message) const {
    sim_->schedule_bcn(sim_->now() + delay_, target_, tag_, message);
  }
  // Fault-injection hook: deliver with extra reverse-path delay on top of
  // the link's propagation delay (sim/faults.h).
  void send(const BcnMessage& message, SimTime extra_delay) const {
    sim_->schedule_bcn(sim_->now() + delay_ + extra_delay, target_, tag_,
                       message);
  }
  void send(const PauseFrame& pause) const {
    sim_->schedule_pause(sim_->now() + delay_, target_, tag_, pause);
  }

 private:
  Simulator* sim_ = nullptr;
  EventTarget* target_ = nullptr;
  std::uint32_t tag_ = 0;
  SimTime delay_ = 0;
};

}  // namespace bcn::sim
