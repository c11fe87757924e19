// Strong-stability analysis of the BCN system (paper Definition 1,
// Propositions 2-4, Theorem 1) plus the numeric ground-truth verdict.
#pragma once

#include <optional>
#include <string>

#include "control/linear_baseline.h"
#include "core/analytic_tracer.h"
#include "core/classifier.h"
#include "core/simulate.h"

namespace bcn::core {

// Closed-form (analytic) strong-stability report.
struct StabilityReport {
  CaseClassification classification;

  // Transient extrema of the linearized switched system from (-q0, 0),
  // computed by closed-form round stitching (AnalyticTracer).  In queue
  // offset coordinates: overshoot above q0 is max_x, undershoot is min_x.
  double predicted_max_x = 0.0;
  double predicted_min_x = 0.0;

  // Case-based verdict per Propositions 2-4: do the transient extrema fit
  // inside (-q0, B - q0)?
  bool proposition_satisfied = false;
  // The specific proposition applied (2, 3 or 4).
  int proposition = 0;

  // Theorem 1: sufficient condition (1 + sqrt(a/(bC))) q0 < B.
  double theorem1_required_buffer = 0.0;
  bool theorem1_satisfied = false;

  // The Lu et al. [4] baseline verdict, which ignores both the switching
  // transient and the buffer.
  control::LinearBaselineReport baseline;

  std::string summary() const;
};

StabilityReport analyze_stability(const BcnParams& params);

// Numeric ground truth: integrates the fluid model from (-q0, 0) and
// checks the orbit stays strictly inside the buffer strip for all t > 0.
struct NumericVerdict {
  bool strongly_stable = false;
  bool converged = false;  // reached the origin within the horizon
  // The integration aborted on a non-finite state; the verdict is
  // "not strongly stable" and the extrema cover the finite prefix only.
  bool nonfinite = false;
  double max_x = 0.0;
  double min_x = 0.0;
};

// Early-stop threshold on |x|/q0 + |y|/C shared by every numeric
// verdict path, scalar and batched.
inline constexpr double kConvergenceTol = 1e-8;

// Definition 1 applied to an integrated run -- a FluidRun or an
// ode::LaneResult, whichever driver produced it.  Overflow: any
// excursion above B - q0 at any t > 0 drops packets.  Underflow: only
// the post-crossing dip matters; the departure from the legitimate
// empty-queue start is not a violation.  A run that did not complete or
// went non-finite is never strongly stable.
template <class Run>
NumericVerdict score_numeric_verdict(const Run& run, double q0,
                                     double buffer) {
  NumericVerdict verdict;
  verdict.max_x = run.max_x;
  verdict.min_x = run.post_switch_min_x;
  verdict.converged = run.converged;
  verdict.nonfinite = run.nonfinite;
  verdict.strongly_stable = verdict.max_x < buffer - q0 &&
                            verdict.min_x > -q0 && run.completed &&
                            !run.nonfinite;
  return verdict;
}

// The auto integration horizon of numeric_strong_stability and
// make_bcn_verdict_lane: 10x the summed increase/decrease region time
// scales (half a rotation period for spirals, 20 slow time constants
// for nodes).
double verdict_horizon(const BcnParams& params);

struct NumericVerdictOptions {
  ModelLevel level = ModelLevel::Nonlinear;
  double duration = 0.0;  // 0 -> auto from the subsystem time scales
  ode::Tolerances tol{1e-9, 1e-9};
};

NumericVerdict numeric_strong_stability(const BcnParams& params,
                                        const NumericVerdictOptions& options = {});

}  // namespace bcn::core
