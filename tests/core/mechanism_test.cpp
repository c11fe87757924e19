// Fluid facet of the pluggable-mechanism layer: registry contents, gain
// plumbing, and the contract that the BCN facet reproduces the legacy
// FluidModel path exactly (the refactor must not move any trajectory).
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/mechanism.h"
#include "core/simulate.h"
#include "core/stability.h"

namespace bcn::core {
namespace {

// The slow-regime plant used across the sim-layer references: every
// registered fluid facet is strongly stable here at its default gains.
BcnParams slow_regime() {
  BcnParams p;
  p.num_sources = 8;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.w = 2.0;
  p.pm = 0.2;
  p.gi = 0.5;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;
  return p;
}

TEST(MechanismRegistryTest, RegistersTheFiveMechanisms) {
  const auto& reg = mechanism_registry();
  ASSERT_EQ(reg.size(), 5u);
  EXPECT_STREQ(reg[0].name, "bcn");
  EXPECT_STREQ(reg[1].name, "bcn-draft");
  EXPECT_STREQ(reg[2].name, "qcn");
  EXPECT_STREQ(reg[3].name, "rcp");
  EXPECT_STREQ(reg[4].name, "fera");
  EXPECT_EQ(mechanism_name_list(), "bcn, bcn-draft, qcn, rcp, fera");
}

TEST(MechanismRegistryTest, LookupByNameAndUnknownName) {
  for (const auto& info : mechanism_registry()) {
    const MechanismInfo* found = find_mechanism(info.name);
    ASSERT_NE(found, nullptr);
    EXPECT_STREQ(found->name, info.name);
  }
  EXPECT_EQ(find_mechanism("nope"), nullptr);
  EXPECT_EQ(find_mechanism(""), nullptr);
  EXPECT_EQ(find_mechanism("BCN"), nullptr);  // names are case-sensitive
}

TEST(MechanismRegistryTest, FluidFacetAvailabilityMatchesFlag) {
  for (const auto& info : mechanism_registry()) {
    const auto mech = make_fluid_mechanism(info.name);
    EXPECT_EQ(mech != nullptr, info.has_fluid) << info.name;
    if (mech) {
      EXPECT_STREQ(mech->name(), info.name);
    }
  }
  EXPECT_EQ(make_fluid_mechanism("nope"), nullptr);
}

TEST(MechanismRegistryTest, GainAxesRoundTripThroughTheConfig) {
  for (const auto& info : mechanism_registry()) {
    MechanismConfig cfg;
    cfg.plant = slow_regime();
    const auto [d1, d2] = info.default_gains(cfg);
    EXPECT_GT(d1, 0.0) << info.name;
    EXPECT_GT(d2, 0.0) << info.name;
    info.set_gains(cfg, 2.0 * d1, 0.5 * d2);
    const auto [g1, g2] = info.default_gains(cfg);
    EXPECT_DOUBLE_EQ(g1, 2.0 * d1) << info.name;
    EXPECT_DOUBLE_EQ(g2, 0.5 * d2) << info.name;
  }
}

TEST(FluidFacetTest, BcnFacetReproducesLegacyFluidModel) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism("bcn", cfg);
  ASSERT_NE(mech, nullptr);

  MechanismRunOptions mopts;
  mopts.level = ModelLevel::Nonlinear;
  mopts.duration = 0.01;
  const FluidRun via_facet = simulate_fluid_mechanism(*mech, mopts);

  FluidRunOptions lopts;
  lopts.duration = 0.01;
  const FluidRun legacy =
      simulate_fluid(FluidModel(cfg.plant, ModelLevel::Nonlinear), lopts);

  ASSERT_TRUE(via_facet.completed);
  ASSERT_TRUE(legacy.completed);
  EXPECT_EQ(via_facet.trajectory.size(), legacy.trajectory.size());
  EXPECT_EQ(via_facet.switches.size(), legacy.switches.size());
  EXPECT_DOUBLE_EQ(via_facet.max_x, legacy.max_x);
  EXPECT_DOUBLE_EQ(via_facet.min_x, legacy.min_x);
  EXPECT_DOUBLE_EQ(via_facet.max_y, legacy.max_y);
  EXPECT_DOUBLE_EQ(via_facet.min_y, legacy.min_y);
  EXPECT_DOUBLE_EQ(via_facet.post_switch_max_x, legacy.post_switch_max_x);
  EXPECT_DOUBLE_EQ(via_facet.post_switch_min_x, legacy.post_switch_min_x);
}

TEST(FluidFacetTest, BcnSigmaMatchesFluidModel) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism("bcn", cfg);
  ASSERT_NE(mech, nullptr);
  const FluidModel model(cfg.plant);
  for (const Vec2 z : {Vec2{-2e6, 1e9}, Vec2{0.0, 0.0}, Vec2{1e6, -3e8}}) {
    EXPECT_DOUBLE_EQ(mech->sigma(z), model.sigma(z));
  }
}

TEST(FluidFacetTest, BcnRegionLawsMatchClosedForms) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism("bcn", cfg);
  ASSERT_NE(mech, nullptr);
  const auto laws = mech->region_laws();
  ASSERT_EQ(laws.size(), 2u);
  const BcnParams& p = cfg.plant;
  bool saw_increase = false;
  bool saw_decrease = false;
  for (const auto& law : laws) {
    EXPECT_TRUE(law.linearizable);
    if (std::abs(law.n - p.increase_n()) < 1e-9 * p.increase_n()) {
      EXPECT_DOUBLE_EQ(law.m, p.increase_m());
      saw_increase = true;
    } else {
      EXPECT_DOUBLE_EQ(law.m, p.decrease_m());
      EXPECT_DOUBLE_EQ(law.n, p.decrease_n());
      saw_decrease = true;
    }
  }
  EXPECT_TRUE(saw_increase);
  EXPECT_TRUE(saw_decrease);
}

TEST(FluidFacetTest, QcnHasNoEquilibriumTheOthersDo) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  EXPECT_TRUE(make_fluid_mechanism("bcn", cfg)->has_equilibrium());
  EXPECT_TRUE(make_fluid_mechanism("bcn-draft", cfg)->has_equilibrium());
  EXPECT_TRUE(make_fluid_mechanism("rcp", cfg)->has_equilibrium());
  // QCN's constant active increase keeps the field from vanishing: the
  // closed orbit is a sawtooth, not a settled point.
  EXPECT_FALSE(make_fluid_mechanism("qcn", cfg)->has_equilibrium());
}

TEST(FluidFacetTest, QcnQuantizedLawIsPiecewiseConstantDrive) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto laws = make_fluid_mechanism("qcn", cfg)->region_laws();
  ASSERT_FALSE(laws.empty());
  // At least the recovery region must be constant-drive (first order).
  bool any_constant = false;
  for (const auto& law : laws) any_constant |= !law.linearizable;
  EXPECT_TRUE(any_constant);
}

TEST(FluidFacetTest, EveryFluidFacetStableOnSlowRegimeDefaults) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  for (const auto& info : mechanism_registry()) {
    if (!info.has_fluid) continue;
    const auto mech = make_fluid_mechanism(info.name, cfg);
    const NumericVerdict v = mechanism_numeric_verdict(*mech);
    EXPECT_TRUE(v.strongly_stable) << info.name;
    EXPECT_LT(v.max_x, mech->x_max()) << info.name;
    EXPECT_GT(v.min_x, mech->x_min()) << info.name;
  }
}

TEST(FluidFacetTest, BcnVerdictAgreesWithLegacyNumericStability) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism("bcn", cfg);
  const NumericVerdict generic = mechanism_numeric_verdict(*mech);
  const NumericVerdict legacy = numeric_strong_stability(cfg.plant);
  EXPECT_EQ(generic.strongly_stable, legacy.strongly_stable);
}

TEST(FluidFacetTest, GroupRateDerivSignsAtTheWalls) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const double cap = cfg.plant.capacity;
  for (const char* name : {"bcn", "bcn-draft", "qcn", "rcp"}) {
    const auto mech = make_fluid_mechanism(name, cfg);
    ASSERT_NE(mech, nullptr) << name;
    // Empty queue, group trickling at 10% of its share: it must ramp up.
    // (Exactly zero rate is excluded: RCP's relative update is
    // multiplicative, so the zero-rate derivative is legitimately zero.)
    EXPECT_GT(mech->group_rate_deriv(-cfg.plant.q0, -0.45 * cap, -0.45 * cap,
                                     cap / 2.0),
              0.0)
        << name;
    // ...and with the queue far above q0 at full drive it must back off.
    EXPECT_LT(mech->group_rate_deriv(0.8 * (cfg.plant.buffer - cfg.plant.q0),
                                     cap / 4.0, cap / 2.0, cap / 2.0),
              0.0)
        << name;
  }
}

TEST(FluidFacetTest, RcpSettlesNearTheOrigin) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism("rcp", cfg);
  MechanismRunOptions opts;
  opts.duration = 0.02;
  const FluidRun run = simulate_fluid_mechanism(*mech, opts);
  ASSERT_TRUE(run.completed);
  ASSERT_FALSE(run.trajectory.empty());
  const auto& tail = run.trajectory.back();
  EXPECT_LT(std::abs(tail.z.x), 0.5 * cfg.plant.q0);
  EXPECT_LT(std::abs(tail.z.y), 0.1 * cfg.plant.capacity);
}

// A damped oscillator whose field turns NaN after t = 1e-4: the
// integrator's non-finite guard must reach the mechanism-path run and
// verdict, not just ode::integrate_hybrid.
class NanAfterMechanism final : public FluidMechanism {
 public:
  explicit NanAfterMechanism(const BcnParams& plant) : FluidMechanism(plant) {}
  const char* name() const override { return "nan-after"; }
  double sigma(Vec2 z) const override { return -z.x; }
  ode::HybridSystem hybrid_system(ModelLevel /*level*/) const override {
    ode::HybridSystem system;
    system.modes.push_back([](double t, Vec2 z) -> Vec2 {
      if (t > 1e-4) return {std::nan(""), std::nan("")};
      return {z.y, -1e8 * z.x - 1e4 * z.y};
    });
    system.mode_of = [](double /*t*/, Vec2 /*z*/) { return 0; };
    return system;
  }
  std::vector<RegionLaw> region_laws() const override { return {}; }
  double group_rate_deriv(double, double, double, double) const override {
    return 0.0;
  }
};

TEST(FluidFacetTest, NonFiniteFieldReachesRunAndVerdict) {
  const NanAfterMechanism mech(slow_regime());
  const FluidRun run = simulate_fluid_mechanism(mech);
  EXPECT_TRUE(run.nonfinite);
  EXPECT_FALSE(run.completed);
  EXPECT_LE(run.nonfinite_t, 1e-4);
  const NumericVerdict verdict = mechanism_numeric_verdict(mech);
  EXPECT_TRUE(verdict.nonfinite);
  EXPECT_FALSE(verdict.strongly_stable);
}

TEST(FluidFacetTest, NonFiniteStartIsNotStable) {
  MechanismConfig cfg;
  cfg.plant.q0 = std::nan("");
  const auto mech = make_fluid_mechanism("qcn", cfg);
  const FluidRun run = simulate_fluid_mechanism(*mech);
  EXPECT_TRUE(run.nonfinite);
  EXPECT_TRUE(run.trajectory.empty());
  const NumericVerdict verdict = mechanism_numeric_verdict(*mech);
  EXPECT_TRUE(verdict.nonfinite);
  EXPECT_FALSE(verdict.strongly_stable);
}

}  // namespace
}  // namespace bcn::core
