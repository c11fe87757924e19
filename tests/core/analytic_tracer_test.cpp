#include "core/analytic_tracer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "analysis/sweep.h"
#include "common/rng.h"
#include "test_params.h"

namespace bcn::core {
namespace {

using namespace testing;

TEST(AnalyticTracerTest, StandardDraftFirstRound) {
  const BcnParams p = case1_params();
  const AnalyticTracer tracer(p);
  const auto trace = tracer.trace();
  ASSERT_GE(trace.rounds.size(), 3u);
  const auto& r0 = trace.rounds[0];
  EXPECT_EQ(r0.region, Region::Increase);
  EXPECT_EQ(r0.kind, control::SolutionKind::Spiral);
  EXPECT_EQ(r0.z_start, (Vec2{-p.q0, 0.0}));
  ASSERT_TRUE(r0.duration);
  // The first increase round must end on the switching line.
  ASSERT_TRUE(r0.z_end);
  EXPECT_NEAR(r0.z_end->x + p.k() * r0.z_end->y, 0.0,
              1e-6 * std::abs(r0.z_end->y));
  // No interior extremum in round 1 (x rises monotonically from -q0).
  EXPECT_FALSE(r0.extremum.has_value());
}

TEST(AnalyticTracerTest, RegionsAlternate) {
  const auto trace = AnalyticTracer(case1_params()).trace();
  for (std::size_t i = 1; i < trace.rounds.size(); ++i) {
    EXPECT_NE(trace.rounds[i].region, trace.rounds[i - 1].region);
  }
}

TEST(AnalyticTracerTest, RoundsChainContinuously) {
  const auto trace = AnalyticTracer(case1_params()).trace();
  for (std::size_t i = 1; i < trace.rounds.size(); ++i) {
    const auto& prev = trace.rounds[i - 1];
    const auto& cur = trace.rounds[i];
    ASSERT_TRUE(prev.z_end);
    EXPECT_EQ(cur.z_start, *prev.z_end);
    ASSERT_TRUE(prev.duration);
    EXPECT_NEAR(cur.t_start, prev.t_start + *prev.duration, 1e-12);
  }
}

TEST(AnalyticTracerTest, Case1ExtremaAlternate) {
  const auto trace = AnalyticTracer(case1_params()).trace();
  // Round 1 (decrease) holds the global max; round 2 (increase) the min.
  ASSERT_GE(trace.rounds.size(), 3u);
  ASSERT_TRUE(trace.rounds[1].extremum);
  EXPECT_TRUE(trace.rounds[1].extremum->is_maximum);
  EXPECT_NEAR(trace.rounds[1].extremum->value, trace.max_x, 1e-9 * trace.max_x);
  ASSERT_TRUE(trace.rounds[2].extremum);
  EXPECT_FALSE(trace.rounds[2].extremum->is_maximum);
  EXPECT_NEAR(trace.rounds[2].extremum->value, trace.min_x,
              1e-9 * std::abs(trace.min_x));
}

TEST(AnalyticTracerTest, ContractionRatioBelowOneForLinearizedSystem) {
  // The switched linearized system always contracts (both subsystem
  // segments are stable), so limit cycles are impossible at this model
  // level -- a key structural fact the Poincare analysis relies on.
  const auto trace = AnalyticTracer(case1_params()).trace();
  const auto ratio = trace.contraction_ratio();
  ASSERT_TRUE(ratio);
  EXPECT_LT(*ratio, 1.0);
  EXPECT_GT(*ratio, 0.0);
}

TEST(AnalyticTracerTest, ContractionRatioPropertyAcrossRandomCase1Params) {
  Rng rng(2024);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    BcnParams p = case1_params();
    p.gi = rng.uniform(0.5, 20.0);
    p.gd = rng.uniform(1.0 / 512.0, 1.0 / 16.0);
    p.num_sources = std::floor(rng.uniform(2.0, 100.0));
    if (classify_case(p).paper_case != PaperCase::Case1) continue;
    const auto trace = AnalyticTracer(p).trace();
    const auto ratio = trace.contraction_ratio();
    if (!ratio) continue;
    EXPECT_LT(*ratio, 1.0) << p.describe();
    ++checked;
  }
  EXPECT_GE(checked, 20);
}

TEST(AnalyticTracerTest, Case3TerminatesInsideDecreaseRegion) {
  const auto trace = AnalyticTracer(case3_params()).trace();
  EXPECT_TRUE(trace.terminated_in_region);
  EXPECT_TRUE(trace.converged);
  ASSERT_GE(trace.rounds.size(), 2u);
  EXPECT_EQ(trace.rounds.back().region, Region::Decrease);
  EXPECT_FALSE(trace.rounds.back().duration.has_value());
  // Paper Case 3: the queue never overshoots the reference q0 (max_x <= 0
  // up to the crossing point's tiny positive x).
  EXPECT_LT(trace.max_x, 0.05 * case3_params().q0);
}

TEST(AnalyticTracerTest, Case4TerminatesAndIsMonotoneish) {
  const auto trace = AnalyticTracer(case4_params()).trace();
  EXPECT_TRUE(trace.converged);
  EXPECT_TRUE(trace.terminated_in_region);
  EXPECT_GT(trace.min_x, -case4_params().q0);
}

TEST(AnalyticTracerTest, TraceFromCustomPoint) {
  const BcnParams p = case1_params();
  const Vec2 z0{0.5 * p.q0, 2e9};  // decrease region
  const auto trace = AnalyticTracer(p).trace_from(z0);
  ASSERT_FALSE(trace.rounds.empty());
  EXPECT_EQ(trace.rounds[0].region, Region::Decrease);
  EXPECT_EQ(trace.rounds[0].z_start, z0);
}

TEST(AnalyticTracerTest, ConvergenceStopsTracing) {
  const BcnParams p = case1_params();
  AnalyticTraceOptions opts;
  opts.convergence_tol = 1e-3;  // loose: stops after a few rounds
  const auto loose = AnalyticTracer(p).trace(opts);
  opts.convergence_tol = 1e-9;
  const auto tight = AnalyticTracer(p).trace(opts);
  EXPECT_LE(loose.rounds.size(), tight.rounds.size());
}

TEST(AnalyticTracerTest, SampleCoversAllRounds) {
  const BcnParams p = case1_params();
  const AnalyticTracer tracer(p);
  AnalyticTraceOptions opts;
  opts.max_rounds = 6;
  const auto trace = tracer.trace(opts);
  const auto sampled = tracer.sample(trace, 50, 1e-4);
  ASSERT_FALSE(sampled.empty());
  EXPECT_EQ(sampled.size(), 50u * trace.rounds.size());
  EXPECT_NEAR(sampled.front().z.x, -p.q0, 1e-9 * p.q0);
  EXPECT_NEAR(sampled.front().z.y, 0.0, 1e-6 * p.capacity * 1e-3);
  // Samples are time-ordered.
  for (std::size_t i = 1; i < sampled.size(); ++i) {
    EXPECT_GE(sampled[i].t, sampled[i - 1].t - 1e-15);
  }
}

// --- extrema(): trace()'s max_x / min_x without the rounds ------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Checks extrema() against trace() bit for bit on one cell and returns
// the number of rounds extrema() walked.
int expect_extrema_match_trace(const BcnParams& p) {
  const AnalyticTracer tracer(p);
  const AnalyticTrace trace = tracer.trace();
  const AnalyticExtrema fast = tracer.extrema();
  EXPECT_TRUE(same_bits(fast.max_x, trace.max_x) &&
              same_bits(fast.min_x, trace.min_x))
      << p.describe() << " trace [" << trace.min_x << ", " << trace.max_x
      << "] extrema [" << fast.min_x << ", " << fast.max_x << "]";
  EXPECT_LE(fast.rounds, static_cast<int>(trace.rounds.size()));
  return fast.rounds;
}

// z_3 / z_1 per component: the scale factor between the round entries
// that bound extrema()'s early stop, as measured from trace()'s rounds.
Vec2 round_entry_ratio(const AnalyticTrace& trace) {
  const Vec2 z1 = trace.rounds.at(1).z_start;
  const Vec2 z3 = trace.rounds.at(3).z_start;
  return {z3.x / z1.x, z3.y / z1.y};
}

TEST(AnalyticTracerExtremaTest, MatchesTraceOnFluidMapStrata) {
  // The fluid_map benchmark's six plants: buffer over set point and grid
  // per stratum, q0 / pm / B jittered by the seed, gains on log axes.
  struct Stratum {
    double buffer_over_q0;
    int grid;
  };
  constexpr Stratum kStrata[] = {
      {16.0, 65}, {8.0, 65}, {4.8, 65}, {2.0, 65}, {2.0, 33}, {2.0, 17},
  };
  Rng rng(1);
  int cells = 0;
  int stopped_early = 0;
  for (const Stratum& s : kStrata) {
    BcnParams p = BcnParams::standard_draft();
    p.q0 = 2.5e6 * (0.9 + 0.2 * rng.uniform());
    p.pm = 0.01 * (0.9 + 0.2 * rng.uniform());
    p.buffer = p.q0 * s.buffer_over_q0 * (0.95 + 0.1 * rng.uniform());
    p.qsc = std::min(0.9 * p.buffer, p.buffer - 1.0);
    for (const double gi : analysis::logspace(0.125, 32.0, s.grid)) {
      for (const double gd : analysis::logspace(1.0 / 1024.0, 0.5, s.grid)) {
        p.gi = gi;
        p.gd = gd;
        ++cells;
        if (expect_extrema_match_trace(p) <= 4) ++stopped_early;
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_EQ(cells, 4 * 65 * 65 + 33 * 33 + 17 * 17);
  // Every strata cell is a contracting Case 1 spiral.
  EXPECT_EQ(stopped_early, cells);
}

TEST(AnalyticTracerExtremaTest, MatchesTraceOnLogUniformSweepOverCases1To4) {
  Rng rng(20240611);
  const auto log_uniform = [&rng](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  std::array<int, 5> per_case{};
  for (int i = 0; i < 4000; ++i) {
    BcnParams p;
    p.gi = log_uniform(0.01, 100.0);
    p.gd = log_uniform(1e-5, 1.0);
    p.pm = log_uniform(1e-5, 0.1);
    p.w = log_uniform(0.5, 32.0);
    p.num_sources = std::round(log_uniform(1.0, 1000.0));
    p.q0 = log_uniform(1e4, 1e7);
    p.capacity = log_uniform(1e8, 1e10);
    p.ru = log_uniform(1e5, 1e8);
    p.buffer = p.q0 * log_uniform(1.1, 20.0);
    p.qsc = 0.5 * (p.q0 + p.buffer);
    ASSERT_TRUE(p.is_valid()) << p.describe();
    ++per_case[static_cast<int>(classify_case(p).paper_case)];
    expect_extrema_match_trace(p);
    if (HasFailure()) return;
  }
  // The sweep must reach every regime the tracer distinguishes.
  for (const PaperCase c : {PaperCase::Case1, PaperCase::Case2,
                            PaperCase::Case3, PaperCase::Case4}) {
    EXPECT_GE(per_case[static_cast<int>(c)], 20) << to_string(c);
  }
}

TEST(AnalyticTracerExtremaTest, StopsWithinFourRoundsOnContractingSpiral) {
  const BcnParams p = case1_params();
  ASSERT_EQ(classify_case(p).paper_case, PaperCase::Case1);
  const AnalyticTrace trace = AnalyticTracer(p).trace();
  ASSERT_FALSE(trace.converged);  // trace() walks all 256 rounds
  ASSERT_LT(round_entry_ratio(trace).x, 0.999);
  EXPECT_LE(expect_extrema_match_trace(p), 4);
}

TEST(AnalyticTracerExtremaTest, WalksFullLengthWhenRatioNearOrAboveOne) {
  // The standard draft with a tiny k = w / (pm C) barely contracts per
  // round: its true ratio, read off y, sits inside the 1e-6 margin.  On
  // the switching line x = -k y, so x is a tiny difference and its ratio
  // can be off by far more: above 1 in the first cell, below 1 - 1e-3 in
  // the second (true ratio 1 - 1.5e-12).  The third reads the true ratio
  // off both.  All three must walk as far as trace().
  struct Cell {
    double pm, w, x_lo, x_hi;
  };
  for (const Cell& c : {Cell{1.0, 0.0009765625, 1.0, 1.01},
                        Cell{0.5, 1e-7, 0.99, 1.0 - 1e-6},
                        Cell{1.0, 0.02, 1.0 - 1e-6, 1.0}}) {
    BcnParams p = case1_params();
    p.pm = c.pm;
    p.w = c.w;
    const AnalyticTrace trace = AnalyticTracer(p).trace();
    const Vec2 ratio = round_entry_ratio(trace);
    EXPECT_GT(ratio.x, c.x_lo) << c.w;
    EXPECT_LT(ratio.x, c.x_hi) << c.w;
    EXPECT_GT(ratio.y, 1.0 - 1e-6) << c.w;
    EXPECT_LT(ratio.y, 1.0) << c.w;
    EXPECT_EQ(expect_extrema_match_trace(p),
              static_cast<int>(trace.rounds.size()));
  }
}

TEST(AnalyticTracerExtremaTest, TerminalNodeRoundsWalkLikeTrace) {
  // Cases 2-4 end in a node round that never crosses back, by round 2.
  for (const BcnParams& p :
       {case2_params(), case3_params(), case4_params()}) {
    const AnalyticTrace trace = AnalyticTracer(p).trace();
    ASSERT_TRUE(trace.terminated_in_region);
    EXPECT_EQ(expect_extrema_match_trace(p),
              static_cast<int>(trace.rounds.size()));
  }
}

}  // namespace
}  // namespace bcn::core
