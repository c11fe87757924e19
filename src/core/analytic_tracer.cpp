#include "core/analytic_tracer.h"

#include <algorithm>
#include <cmath>

namespace bcn::core {

std::optional<double> AnalyticTrace::contraction_ratio() const {
  // Compare |x| at successive entries into the same region.
  std::vector<double> increase_entries;
  for (const auto& r : rounds) {
    if (r.region == Region::Increase && r.t_start > 0.0) {
      increase_entries.push_back(std::abs(r.z_start.x));
    }
  }
  if (increase_entries.size() < 2) return std::nullopt;
  const double prev = increase_entries[increase_entries.size() - 2];
  const double last = increase_entries.back();
  if (prev <= 0.0) return std::nullopt;
  return last / prev;
}

AnalyticTracer::AnalyticTracer(BcnParams params)
    : params_(params),
      k_(params.k()),
      increase_(increase_subsystem(params)),
      decrease_(decrease_subsystem(params)) {}

AnalyticTrace AnalyticTracer::trace(const AnalyticTraceOptions& options) const {
  return trace_from({-params_.q0, 0.0}, options);
}

AnalyticTrace AnalyticTracer::trace_from(
    Vec2 z0, const AnalyticTraceOptions& options) const {
  Walk walk = start(z0);
  AnalyticTrace out;
  for (int round = 0; round < options.max_rounds; ++round) {
    std::optional<RoundRecord> rec = step(walk, options.convergence_tol);
    if (!rec) break;
    out.rounds.push_back(std::move(*rec));
  }
  out.converged = walk.converged;
  out.terminated_in_region = walk.terminated_in_region;
  out.max_x = walk.max_x;
  out.min_x = walk.min_x;
  return out;
}

AnalyticExtrema AnalyticTracer::extrema(
    const AnalyticTraceOptions& options) const {
  // Rounds 1 and 3 start in the same region on the switching line; see the
  // header comment for why z_3 = rho z_1 with rho <= 1 - 1e-6 makes the
  // extrema final.  Both components must show the contraction: on the
  // line x = -k y, so when k is far from 1 one component is tiny next to
  // the other yet carries its absolute rounding error, and the tiny one's
  // ratio can be off by far more than the margin.
  constexpr double kContractionMargin = 1.0 - 1e-6;
  const auto contracted = [](Vec2 from, Vec2 to) {
    return std::abs(to.x) <= kContractionMargin * std::abs(from.x) &&
           std::abs(to.y) <= kContractionMargin * std::abs(from.y);
  };
  Walk walk = start({-params_.q0, 0.0});
  Vec2 z1;
  int rounds = 0;
  for (; rounds < options.max_rounds; ++rounds) {
    if (rounds == 1) z1 = walk.z;
    if (rounds == 3 && contracted(z1, walk.z)) break;
    if (!step(walk, options.convergence_tol)) break;
  }
  return {walk.max_x, walk.min_x, rounds};
}

AnalyticTracer::Walk AnalyticTracer::start(Vec2 z0) const {
  // The first round's region comes from sigma's sign; afterwards regions
  // alternate (each round ends with a transversal switching-line crossing).
  const FluidModel model(params_, ModelLevel::Linearized);
  Walk walk;
  walk.z = z0;
  walk.region = model.region_of(z0);
  return walk;
}

std::optional<RoundRecord> AnalyticTracer::step(
    Walk& walk, double convergence_tol) const {
  if (walk.converged) return std::nullopt;
  const Vec2 z = walk.z;
  const double norm =
      std::abs(z.x) / params_.q0 + std::abs(z.y) / params_.capacity;
  if (norm < convergence_tol) {
    walk.converged = true;
    return std::nullopt;
  }

  // Extrema accumulate over interior points only: round extrema, crossing
  // points, and the origin limit (Walk starts them at 0).  The initial
  // point (on the empty-buffer wall when z0 = (-q0, 0)) is excluded,
  // matching the paper's min1/max1 semantics (Definition 1 judges the
  // motion after the start).
  const control::SecondOrderSystem& sys =
      walk.region == Region::Increase ? increase_ : decrease_;
  const control::LinearSolution sol(sys, z);
  // Built in place and returned by name: trace_from()'s push_back is the
  // record's only copy.
  std::optional<RoundRecord> rec(std::in_place, walk.region, sol.kind(), sol,
                                 walk.t_abs, z);

  const auto crossing = sol.first_line_crossing(1.0, k_, 0.0);
  const auto extremum = sol.first_x_extremum(0.0);
  if (extremum && (!crossing || extremum->t < *crossing)) {
    rec->extremum = control::XExtremum{walk.t_abs + extremum->t,
                                       extremum->value, extremum->is_maximum};
    walk.max_x = std::max(walk.max_x, extremum->value);
    walk.min_x = std::min(walk.min_x, extremum->value);
  }

  if (!crossing) {
    // Terminal round: converges to the origin inside this region.
    walk.terminated_in_region = true;
    walk.converged = true;
    return rec;
  }

  const Vec2 z_end = sol.eval(*crossing);
  rec->duration = *crossing;
  rec->z_end = z_end;
  walk.max_x = std::max(walk.max_x, z_end.x);
  walk.min_x = std::min(walk.min_x, z_end.x);

  walk.t_abs += *crossing;
  walk.z = z_end;
  walk.region =
      walk.region == Region::Increase ? Region::Decrease : Region::Increase;
  return rec;
}

ode::Trajectory AnalyticTracer::sample(const AnalyticTrace& trace,
                                       int points_per_round,
                                       double tail_time) const {
  ode::Trajectory out;
  const int n = std::max(2, points_per_round);
  for (const auto& round : trace.rounds) {
    const double span = round.duration.value_or(tail_time);
    for (int i = 0; i < n; ++i) {
      const double local = span * static_cast<double>(i) / (n - 1);
      out.push_back(round.t_start + local, round.solution.eval(local));
    }
  }
  return out;
}

}  // namespace bcn::core
