// Numeric strong-stability verdicts in batch: the bridge between the
// SoA ode::BatchIntegrator and the per-cell scalar verdict pipeline
// (core::numeric_strong_stability / core::mechanism_numeric_verdict).
//
// A VerdictLane packages one (plant, gains, level) cell as an affine
// lane law plus the buffer-strip geometry; batch_numeric_verdicts runs
// any number of them through the batched integrator — optionally sliced
// across the exec layer — and scores each with the scalar paths' own
// predicate, core::score_numeric_verdict.
//
// BCN lanes take the scalar auto horizon from core::verdict_horizon,
// and each region's fixed macro step is sized from that region's own
// linearized rates, so verdicts agree with the adaptive scalar driver on
// everything but razor-thin boundary cells.  The Clipped model level has
// buffer-wall modes outside the affine lane family and is not
// representable here — callers fall back to the scalar path for it.
#pragma once

#include <optional>
#include <vector>

#include "core/bcn_params.h"
#include "core/mechanism.h"
#include "core/stability.h"
#include "ode/batch.h"

namespace bcn::core {

// One stability-verdict job for the batched integrator.
struct VerdictLane {
  ode::LaneLaw law;
  double q0 = 0.0;
  double capacity = 0.0;
  double buffer = 0.0;
  double duration = 0.0;  // integration horizon (> 0)
  // Macro step for both regions; 0 -> auto, sizing each region's step
  // from its own linearized rates.
  double dt = 0.0;
  // QCN-style mechanisms without an equilibrium never satisfy the
  // convergence predicate; disabling it skips the per-step check.
  bool use_convergence_stop = true;
};

struct BatchVerdictOptions {
  int threads = 1;  // exec convention: 0 = hardware, 1 = serial
};

// The affine lane law of the BCN switched system at a model level
// (Linearized or Nonlinear; Clipped is not representable).
ode::LaneLaw bcn_lane_law(const BcnParams& params, ModelLevel level);

// Builds the verdict lane matching core::numeric_strong_stability for
// these parameters: same start (-q0, 0), same auto horizon
// (core::verdict_horizon, selected by `duration` 0).
VerdictLane make_bcn_verdict_lane(const BcnParams& params, ModelLevel level,
                                  double duration = 0.0);

// Builds the verdict lane matching core::mechanism_numeric_verdict for
// any fluid mechanism exposing a lane law.  Empty when the mechanism
// has no affine lane form or options.level is Clipped.
std::optional<VerdictLane> make_mechanism_verdict_lane(
    const FluidMechanism& mechanism, const MechanismRunOptions& options = {});

// Runs every lane to completion and scores it; slot i is lane i's
// verdict.  Lanes are integrated in contiguous slices, each through its
// own BatchIntegrator, and slices are distributed over the exec layer —
// lanes are fully independent, so the result is bitwise identical at
// any thread count.
std::vector<NumericVerdict> batch_numeric_verdicts(
    const std::vector<VerdictLane>& lanes,
    const BatchVerdictOptions& options = {});

}  // namespace bcn::core
