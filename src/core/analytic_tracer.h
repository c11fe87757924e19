// Closed-form piecewise tracing of the switched linearized BCN system
// (paper eq. (9)).
//
// The trajectory is built round by round exactly as in the paper's Section
// IV.C: inside one region the motion follows the closed-form linear
// solution (H / F / L type); the round ends where the solution crosses the
// switching line x + k y = 0, which is computed in closed form as well (the
// paper's H^{-1} inversions, e.g. T_i^1).  Stitching the rounds yields the
// exact transient extrema max1/min1/max2 of Propositions 2-3 without any
// numeric integration.
//
// Most callers only need those extrema, and extrema() reads them off the
// first three rounds instead of walking all of them.  The argument:
// inside each region the dynamics are linear, and both regions are
// half-planes bounded by the switching line x + k y = 0, which passes
// through the origin.  So the switched system is positively homogeneous:
// the trajectory from s z is s times the trajectory from z, with the same
// round durations, for every s > 0.  Every round after the first starts
// on the switching line, on the half-line where the previous region's
// flow leaves it, so round r + 2 starts at rho times round r's start
// point, with rho = |x_{r+2}| / |x_r|, and replays round r scaled by rho.
// Once rho = |x_3| / |x_1| < 1, rounds 3, 4, ... are copies of rounds 1
// and 2 shrunk by rho, rho^2, ...: none can raise max_x or lower min_x.
// extrema() stops there when rho <= 1 - 1e-6, read off both |x| and |y|
// (equal in exact arithmetic); the margin absorbs the rounding of the
// closed-form steps, so the result is bit-identical to trace()'s.
// Otherwise (rho near or above 1, a terminal node round, convergence) it
// walks exactly as far as trace() does.
#pragma once

#include <optional>
#include <vector>

#include "control/closed_form.h"
#include "core/classifier.h"
#include "core/fluid_model.h"
#include "ode/trajectory.h"

namespace bcn::core {

// One region traversal ("round" in the paper's indexing x_i^k, x_d^k).
struct RoundRecord {
  Region region = Region::Increase;
  control::SolutionKind kind = control::SolutionKind::Spiral;
  control::LinearSolution solution;  // local time: 0 at round start
  double t_start = 0.0;              // absolute start time
  Vec2 z_start;
  // Crossing back over the switching line; nullopt when the round never
  // leaves its region (the trajectory then converges to the origin inside
  // it, as in Cases 2-4 tails).
  std::optional<double> duration;
  std::optional<Vec2> z_end;
  // The round's local extremum of x (y = 0 crossing), in absolute time.
  std::optional<control::XExtremum> extremum;
};

struct AnalyticTraceOptions {
  int max_rounds = 256;
  // Convergence: a round start counts as converged when
  // |x|/x_scale + |y|/y_scale < tol.
  double convergence_tol = 1e-6;
};

struct AnalyticTrace {
  std::vector<RoundRecord> rounds;
  bool converged = false;            // round-start norm fell below tolerance
  bool terminated_in_region = false; // final round never crosses again
  double max_x = 0.0;                // global max of x over the whole trace
  double min_x = 0.0;                // global min of x over the whole trace

  // Geometric contraction ratio of successive same-region crossing
  // amplitudes |x|; < 1 means the switched system spirals in.  nullopt when
  // fewer than two same-region crossings happened.
  std::optional<double> contraction_ratio() const;
};

// What extrema() returns: trace()'s max_x / min_x without the rounds.
struct AnalyticExtrema {
  double max_x = 0.0;
  double min_x = 0.0;
  int rounds = 0;  // rounds walked before the extrema were final
};

class AnalyticTracer {
 public:
  // The tracer always works at the Linearized model level; `params` gives
  // the region subsystems and the switching-line slope.
  explicit AnalyticTracer(BcnParams params);

  // Traces from z0 (default: the paper's analysis start (-q0, 0)).
  AnalyticTrace trace(const AnalyticTraceOptions& options = {}) const;
  AnalyticTrace trace_from(Vec2 z0,
                           const AnalyticTraceOptions& options = {}) const;

  // trace(options).max_x / min_x, bit for bit, without recording rounds;
  // stops once the spiral provably contracts (see the file comment).
  AnalyticExtrema extrema(const AnalyticTraceOptions& options = {}) const;

  // Samples the closed-form trace into a polyline for plotting /
  // cross-validation against numeric integration.  `points_per_round`
  // samples are placed uniformly in time inside each round; open-ended
  // final rounds are sampled over `tail_time` seconds.
  ode::Trajectory sample(const AnalyticTrace& trace, int points_per_round,
                         double tail_time) const;

  const BcnParams& params() const { return params_; }

 private:
  // Where a walk stands between two rounds.
  struct Walk {
    Vec2 z;
    Region region = Region::Increase;
    double t_abs = 0.0;
    double max_x = 0.0;
    double min_x = 0.0;
    bool converged = false;
    bool terminated_in_region = false;
  };

  Walk start(Vec2 z0) const;
  // Walks one round from `walk` and returns it; nullopt, with no round
  // taken, once the walk has converged or ended in a terminal round.
  std::optional<RoundRecord> step(Walk& walk, double convergence_tol) const;

  BcnParams params_;
  double k_;  // switching-line slope
  control::SecondOrderSystem increase_;
  control::SecondOrderSystem decrease_;
};

}  // namespace bcn::core
