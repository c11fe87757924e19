#include "sim/core_switch.h"

#include <algorithm>
#include <cmath>

namespace bcn::sim {

CoreSwitch::CoreSwitch(Simulator& sim, CoreSwitchConfig config,
                       SimStats& stats)
    : sim_(sim),
      config_(config),
      stats_(stats),
      trace_(&stats),
      mech_a_(&default_bcn_mechanism()),
      sampling_rng_(config.sampling_seed) {
  if (config_.pm > 0.0) {
    sample_every_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(1.0 / config_.pm)));
  }
}

void CoreSwitch::on_frame(const Frame& frame) {
  maybe_sample(frame);

  if (queue_bits_ + frame.size_bits > config_.buffer_bits) {
    ++stats_.counters.frames_dropped;
    maybe_pause();
    return;
  }
  queue_.push_back(frame);
  queue_bits_ += frame.size_bits;
  ++stats_.counters.frames_enqueued;
  if (monitor_) {
    monitor_->check_queue(to_seconds(sim_.now()), port_label(), queue_bits_);
  }
  maybe_pause();
  if (!serving_) start_service();
}

void CoreSwitch::on_pause(const PauseFrame& pause) {
  paused_until_ = std::max(paused_until_, sim_.now() + pause.duration);
  // In-flight service completes (a frame on the wire cannot be recalled);
  // the pause gates the next start_service.
}

void CoreSwitch::maybe_sample(const Frame& frame) {
  const bool split = mech_b_ && frame.source >= first_b_;
  PacketMechanism& mech = split ? *mech_b_ : *mech_a_;
  // Arrival hooks are link-level rate/flow measurements (RCP's arrival
  // accumulator, FERA's flow estimator): every mechanism observing this
  // port sees every frame, including the other group's cross traffic.
  if (hook_a_) mech_a_->on_arrival(frame, to_seconds(sim_.now()));
  if (hook_b_) mech_b_->on_arrival(frame, to_seconds(sim_.now()));

  if (sample_every_ == 0) return;  // pm = 0: no sampling
  if (config_.random_sampling) {
    if (!sampling_rng_.bernoulli(config_.pm)) return;
  } else {
    if (++arrivals_since_sample_ < sample_every_) return;
    arrivals_since_sample_ = 0;
  }
  ++stats_.counters.frames_sampled;

  // Eq. (1): sigma = (q0 - q) - w * delta_q over the sampling interval.
  const double delta_q = queue_bits_ - queue_at_last_sample_;
  queue_at_last_sample_ = queue_bits_;
  const double sigma = (config_.q0 - queue_bits_) - config_.w * delta_q;
  trace_->record_sigma(sigma);

  if (!bcn_link_) return;
  const double now_s = to_seconds(sim_.now());
  const FeedbackDecision decision =
      mech.on_sample({sigma, queue_bits_, now_s, &frame, &config_});
  switch (decision.kind) {
    case FeedbackDecision::Kind::None:
      break;
    case FeedbackDecision::Kind::Negative:
      ++stats_.counters.bcn_negative;
      trace_->events().record({now_s, obs::EventKind::BcnNegativeSent,
                               config_.cpid, frame.source, sigma, 0.0});
      emit_bcn({.cpid = config_.cpid, .target = frame.source,
                .sigma = sigma, .sent_at = sim_.now()});
      break;
    case FeedbackDecision::Kind::Positive:
      ++stats_.counters.bcn_positive;
      trace_->events().record({now_s, obs::EventKind::BcnPositiveSent,
                               config_.cpid, frame.source, sigma, 0.0});
      emit_bcn({.cpid = config_.cpid, .target = frame.source,
                .sigma = sigma, .sent_at = sim_.now()});
      break;
    case FeedbackDecision::Kind::RateAdvert:
      // Rate advertisements reuse the BCN positive/negative tallies by
      // sigma sign so the send/apply causal accounting stays closed.
      if (sigma < 0.0) {
        ++stats_.counters.bcn_negative;
      } else {
        ++stats_.counters.bcn_positive;
      }
      trace_->events().record({now_s, obs::EventKind::BcnRateAdvertSent,
                               config_.cpid, frame.source, sigma,
                               decision.advertised_rate});
      emit_bcn({.cpid = config_.cpid, .target = frame.source,
                .sigma = sigma,
                .advertised_rate = decision.advertised_rate,
                .sent_at = sim_.now()});
      break;
  }
}

void CoreSwitch::emit_bcn(const BcnMessage& message) {
  SimTime extra_delay = 0;
  if (faults_) {
    if (faults_->drop_bcn(sim_.now(), message.target)) return;
    extra_delay = faults_->bcn_extra_delay(sim_.now(), message.target);
    if (faults_->duplicate_bcn(sim_.now(), message.target)) {
      // The duplicate travels on time; only the original may be delayed.
      bcn_link_.send(message);
    }
  }
  bcn_link_.send(message, extra_delay);
}

void CoreSwitch::maybe_pause() {
  if (!config_.enable_pause || !pause_link_) return;
  if (queue_bits_ < config_.qsc) return;
  if (sim_.now() < pause_cooldown_until_) return;
  pause_cooldown_until_ = sim_.now() + config_.pause_duration;
  ++stats_.counters.pause_frames;
  // The off transition is deterministic (802.3x quanta; the cooldown
  // prevents overlapping extensions), so record both edges now.
  const double duration_s = to_seconds(config_.pause_duration);
  trace_->events().record({to_seconds(sim_.now()), obs::EventKind::PauseOn,
                           port_label(), 0, 0.0, duration_s});
  trace_->events().record({to_seconds(pause_cooldown_until_),
                           obs::EventKind::PauseOff, port_label(), 0, 0.0,
                           duration_s});
  // A lost PAUSE frame leaves the PauseOn edge with no PauseApplied: the
  // switch asserted back-pressure but no source heard it.
  if (faults_ && faults_->drop_pause(sim_.now())) return;
  pause_link_.send(PauseFrame{config_.pause_duration, sim_.now()});
}

void CoreSwitch::on_event(const SimEvent& event) {
  if (event.kind == EventKind::FrameDeparture) {
    finish_service();
    return;
  }
  // PauseExpiry: resume the reserved server, or wait again when a later
  // PAUSE extended the hold.
  start_service();
}

void CoreSwitch::start_service() {
  if (queue_.empty()) {
    serving_ = false;
    return;
  }
  serving_ = true;
  if (sim_.now() < paused_until_) {
    // Reserve the server; resume when the pause expires.
    sim_.schedule_event(paused_until_, this, EventKind::PauseExpiry, 0);
    return;
  }
  depart_timer_ =
      sim_.arm(depart_timer_, sim_.now() + service_time(queue_.front().size_bits),
               this, EventKind::FrameDeparture, 0);
}

void CoreSwitch::finish_service() {
  const Frame frame = queue_.front();
  queue_.pop_front();
  queue_bits_ -= frame.size_bits;
  queue_bits_ = std::max(queue_bits_, 0.0);
  if (monitor_) {
    monitor_->check_queue(to_seconds(sim_.now()), port_label(), queue_bits_);
  }
  ++stats_.counters.frames_delivered;
  stats_.counters.bits_delivered += frame.size_bits;
  stats_.add_delivered(frame.source, frame.size_bits);
  if (sink_link_) sink_link_.send(frame);
  start_service();
}

}  // namespace bcn::sim
