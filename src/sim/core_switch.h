// The switch congestion point (paper Fig. 1): a drop-tail FIFO queue
// draining at the port rate, frame sampling every 1/pm arrivals, sigma
// computation per eq. (1), and 802.3x PAUSE when the queue exceeds the
// severe-congestion threshold qsc.  The same entity is every output port
// of the packet scenarios: the single bottleneck (network.h), both
// parking-lot congestion points (parking_lot.h), and the edge, hot and
// cold ports of the multi-hop victim scenario (multihop.h), where a port
// is itself paused by its downstream receiver.
//
// What feedback a sampled frame triggers is the attached congestion-
// control mechanism's decision (sim/mechanism.h): sigma-sign BCN
// messages for bcn/bcn-draft, negative-only for qcn, an explicit rate
// advertisement for fera/rcp.  The switch owns the plant (queue, drain,
// sampling, PAUSE); the mechanism owns the feedback policy.
#pragma once

#include <cstdint>
#include <deque>

#include "common/rng.h"
#include "obs/monitor.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/frame.h"
#include "sim/mechanism.h"
#include "sim/stats.h"

namespace bcn::sim {

struct CoreSwitchConfig {
  CongestionPointId cpid = 1;
  double capacity = 10e9;     // C [bits/s]
  double buffer_bits = 5e6;   // B
  double q0 = 2.5e6;          // reference queue
  double qsc = 4.5e6;         // PAUSE threshold
  double w = 2.0;             // sigma weight, eq. (1)
  double pm = 0.01;           // sampling probability (deterministic 1/pm);
                              // 0 disables sampling and feedback
  bool enable_pause = true;
  SimTime pause_duration = 3355;  // 512-bit quanta x 65535 at 10 Gbps [ns]
  // Draft semantics: positive BCN only reaches sources already associated
  // (tagged) with this congestion point.  The fluid model of the paper
  // assumes positive feedback reaches every source, so mechanisms doing
  // fluid-matched cross-validation disable this gate (the Network wiring
  // sets it from PacketMechanism::positive_requires_rrt()).
  bool positive_requires_rrt = true;
  // Sampling discipline: the paper models a *deterministic* 1/pm arrival
  // count; the original ECM proposal samples each arrival independently
  // with probability pm.  Both are supported; random sampling is seeded
  // and fully reproducible.
  bool random_sampling = false;
  std::uint64_t sampling_seed = 0x5eed;
  // Identity of this port in PAUSE trace records and monitor queue
  // checks; 0 uses cpid.  Multi-port topologies label ports that carry
  // no congestion point (cpid 0) so a shared trace tells them apart.
  std::uint32_t port_label = 0;
};

class CoreSwitch : public EventTarget {
 public:
  // `stats` receives the counters and per-source delivery accounting, and
  // (unless set_observer redirects them) the sigma samples and BCN/PAUSE
  // event records.
  CoreSwitch(Simulator& sim, CoreSwitchConfig config, SimStats& stats);

  // Typed-event dispatch: service completion and pause expiry.
  void on_event(const SimEvent& event) override;

  // Downstream hop for frames completing service; unset = frames
  // terminate here.  Switches compose into chains (multihop.cpp) or any
  // other wiring; generated datacenter fabrics live in sim/shard.
  void set_sink(const EventLink& link) { sink_link_ = link; }

  // Frame arrival from the fabric.  Samples, possibly emits feedback /
  // PAUSE over the links, then enqueues or drops.
  void on_frame(const Frame& frame);

  // 802.3x PAUSE from the downstream receiver: finish the frame on the
  // wire, then hold service until the pause expires.
  void on_pause(const PauseFrame& pause);

  // Feedback (to the sampled frame's source) and upstream PAUSE hops;
  // unset = none is emitted.
  void set_bcn_sender(const EventLink& link) { bcn_link_ = link; }
  void set_pause_sender(const EventLink& link) { pause_link_ = link; }

  // Optional shared trace sink: sigma samples and BCN/PAUSE event records
  // go to `observer` instead of the counters' SimStats.  Multi-port
  // topologies keep per-port counters but one trace.
  void set_observer(SimStats& observer) { trace_ = &observer; }

  // Congestion-control mechanism driving feedback generation; defaults to
  // the shared BCN fluid-matched mechanism.  Not owned.
  void set_mechanism(PacketMechanism* mechanism) {
    mech_a_ = mechanism;
    hook_a_ = mechanism->wants_arrival_hook();
  }
  // Heterogeneous competition: sources with id >= first_b are handled by
  // `mechanism` instead of the primary one.
  void set_mechanism_split(PacketMechanism* mechanism, SourceId first_b) {
    mech_b_ = mechanism;
    hook_b_ = mechanism->wants_arrival_hook();
    first_b_ = first_b;
  }

  // Optional reverse-path fault injector (sim/faults.h): feedback drop /
  // delay / duplication and PAUSE loss are decided at emission time.
  // Scenarios only attach an injector when the plan is armed, so the
  // lossless path stays untouched.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Optional runtime invariant monitor (obs/monitor.h): per-frame queue
  // occupancy checks on enqueue/depart.  Like the fault injector,
  // scenarios only attach an armed monitor, so the default path costs
  // one null test per frame.
  void set_monitor(obs::RunMonitor* monitor) { monitor_ = monitor; }

  double queue_bits() const { return queue_bits_; }
  const CoreSwitchConfig& config() const { return config_; }

 private:
  void maybe_sample(const Frame& frame);
  void maybe_pause();
  void start_service();
  void finish_service();
  void emit_bcn(const BcnMessage& message);

  std::uint32_t port_label() const {
    return config_.port_label != 0 ? config_.port_label : config_.cpid;
  }

  // One-entry service-time memo: the drain rate is fixed and frame sizes
  // are usually uniform, so the per-departure floating-point divide
  // collapses to a compare.
  SimTime service_time(double bits) {
    if (bits != service_bits_) {
      service_bits_ = bits;
      service_gap_ = transmission_time(bits, config_.capacity);
    }
    return service_gap_;
  }

  Simulator& sim_;
  CoreSwitchConfig config_;
  SimStats& stats_;
  SimStats* trace_;  // sigma + event records: stats_ or the observer
  EventLink bcn_link_;
  EventLink pause_link_;
  EventLink sink_link_;
  FaultInjector* faults_ = nullptr;
  obs::RunMonitor* monitor_ = nullptr;
  // Primary mechanism (all sources) plus the optional competition split;
  // the arrival-hook flags are cached so the per-frame fast path skips
  // the virtual call for mechanisms without switch-side state.
  PacketMechanism* mech_a_;
  PacketMechanism* mech_b_ = nullptr;
  bool hook_a_ = false;
  bool hook_b_ = false;
  SourceId first_b_ = ~SourceId{0};

  std::deque<Frame> queue_;
  double queue_bits_ = 0.0;
  double service_bits_ = -1.0;
  SimTime service_gap_ = 0;
  bool serving_ = false;
  // Service-completion timer; its slot is re-armed back-to-back while the
  // queue stays busy and goes stale when the queue drains or the server
  // waits out a PAUSE.
  EventId depart_timer_ = kInvalidEvent;
  SimTime paused_until_ = 0;  // PAUSE received from downstream

  std::uint64_t arrivals_since_sample_ = 0;
  std::uint64_t sample_every_ = 0;  // round(1/pm); 0 = sampling disabled
  double queue_at_last_sample_ = 0.0;
  SimTime pause_cooldown_until_ = 0;  // PAUSE sent upstream

  Rng sampling_rng_{0x5eed};
};

}  // namespace bcn::sim
