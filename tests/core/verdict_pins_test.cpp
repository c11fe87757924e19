// Bit-exact pins on every fluid-verdict path: each NumericVerdict field
// (the three flags and the bits of max_x / min_x) is FNV-1a hashed over
// a 4x4 gain grid straddling the stability boundary, for the scalar,
// mechanism and batched drivers.  Any change that moves a single
// verdict bit on any path fails here.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/sweep.h"
#include "core/batch_verdict.h"
#include "core/mechanism.h"
#include "core/stability.h"

namespace bcn::core {
namespace {

class VerdictHash {
 public:
  void add(const NumericVerdict& v) {
    byte(v.strongly_stable);
    byte(v.converged);
    byte(v.nonfinite);
    word(std::bit_cast<std::uint64_t>(v.max_x));
    word(std::bit_cast<std::uint64_t>(v.min_x));
    stable_ += v.strongly_stable ? 1 : 0;
  }
  std::uint64_t value() const { return h_; }
  int stable() const { return stable_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
  int stable_ = 0;
};

// The (Gi, Gd) grid of the batch-verdict tests, thinned to 4x4.
std::vector<BcnParams> bcn_grid() {
  std::vector<BcnParams> out;
  for (const double gi : analysis::logspace(0.25, 16.0, 4)) {
    for (const double gd : analysis::logspace(1.0 / 512.0, 0.25, 4)) {
      BcnParams p = BcnParams::standard_draft();
      p.gi = gi;
      p.gd = gd;
      out.push_back(p);
    }
  }
  return out;
}

// A mechanism's registry gain axes, 1/32x..32x around the defaults, on
// the standard-draft plant with its buffer cut to 4.5 Mbit so that RCP's
// and QCN's overshoots straddle the strip edge too.
std::vector<MechanismConfig> mechanism_grid(const MechanismInfo& info) {
  MechanismConfig base;
  base.plant.buffer = 4.5e6;
  base.plant.qsc = 4.4e6;
  const auto [d1, d2] = info.default_gains(base);
  std::vector<MechanismConfig> out;
  for (const double g1 : analysis::logspace(d1 / 32.0, d1 * 32.0, 4)) {
    for (const double g2 : analysis::logspace(d2 / 32.0, d2 * 32.0, 4)) {
      MechanismConfig cfg = base;
      info.set_gains(cfg, g1, g2);
      out.push_back(cfg);
    }
  }
  return out;
}

const char* const kFluidMechanisms[] = {"bcn", "bcn-draft", "qcn", "rcp"};

std::string label(const std::string& what, ModelLevel level) {
  return what + "/" + std::to_string(static_cast<int>(level));
}

void expect_pin(const VerdictHash& h, std::uint64_t want,
                const std::string& what) {
  EXPECT_EQ(h.value(), want) << what << ": got 0x" << std::hex << h.value()
                             << std::dec << " (" << h.stable()
                             << "/16 stable)";
}

TEST(VerdictPinsTest, NumericStrongStabilityAtEveryLevel) {
  const std::uint64_t want[3] = {0xfac03ee47da56dc8ull, 0x8c77f6889285a04bull,
                                 0x3ac24131abef1f38ull};
  int stable = 0;
  for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear,
                           ModelLevel::Clipped}) {
    VerdictHash h;
    for (const BcnParams& p : bcn_grid()) {
      h.add(numeric_strong_stability(p, {.level = level}));
    }
    expect_pin(h, want[static_cast<int>(level)], label("bcn", level));
    stable += h.stable();
  }
  // The grid straddles the boundary: neither side is empty.
  EXPECT_GT(stable, 0);
  EXPECT_LT(stable, 48);
}

TEST(VerdictPinsTest, MechanismNumericVerdictPerMechanismAndLevel) {
  const std::uint64_t want[4][2] = {
      {0x91cf0721a608b0e7ull, 0xcd3a086542f8257full},   // bcn
      {0x91cf0721a608b0e7ull, 0xcd3a086542f8257full},   // bcn-draft
      {0x3fa2f7388aacd11full, 0x2a6bd0cd0b277298ull},   // qcn
      {0x491bac483e0f58ecull, 0x37c034ce391dc789ull}};  // rcp
  for (int m = 0; m < 4; ++m) {
    const MechanismInfo& info = *find_mechanism(kFluidMechanisms[m]);
    for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
      VerdictHash h;
      for (const MechanismConfig& cfg : mechanism_grid(info)) {
        const auto mech = make_fluid_mechanism(info.name, cfg);
        h.add(mechanism_numeric_verdict(*mech, {.level = level}));
      }
      expect_pin(h, want[m][static_cast<int>(level)], label(info.name, level));
      EXPECT_GT(h.stable(), 0) << info.name;
      EXPECT_LT(h.stable(), 16) << info.name;
    }
  }
}

TEST(VerdictPinsTest, BatchNumericVerdictsOverMatchingLanes) {
  // Row 0: make_bcn_verdict_lane over the BCN grid; rows 1-4: the
  // mechanism lanes over each registry grid.
  const std::uint64_t want[5][2] = {
      {0x9ed114f495c9d500ull, 0x8217d41a2537fccaull},   // bcn (Gi, Gd)
      {0xc23c21b03c7c95f1ull, 0x28dea8c69770f866ull},   // bcn
      {0xc23c21b03c7c95f1ull, 0x28dea8c69770f866ull},   // bcn-draft
      {0x647230cf0f1d4acaull, 0xb13cb5f7f8cc9290ull},   // qcn
      {0xc4cd01635f319f1bull, 0x936ad091cd1f92d4ull}};  // rcp
  for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
    const int l = static_cast<int>(level);
    std::vector<VerdictLane> lanes;
    for (const BcnParams& p : bcn_grid()) {
      lanes.push_back(make_bcn_verdict_lane(p, level));
    }
    VerdictHash bcn;
    for (const auto& v : batch_numeric_verdicts(lanes)) bcn.add(v);
    expect_pin(bcn, want[0][l], label("bcn lane", level));

    for (int m = 0; m < 4; ++m) {
      const MechanismInfo& info = *find_mechanism(kFluidMechanisms[m]);
      lanes.clear();
      for (const MechanismConfig& cfg : mechanism_grid(info)) {
        const auto mech = make_fluid_mechanism(info.name, cfg);
        const auto lane = make_mechanism_verdict_lane(*mech, {.level = level});
        ASSERT_TRUE(lane.has_value()) << info.name;
        lanes.push_back(*lane);
      }
      VerdictHash h;
      for (const auto& v : batch_numeric_verdicts(lanes)) h.add(v);
      expect_pin(h, want[m + 1][l], label(std::string(info.name) + " lane",
                                          level));
    }
  }
}

}  // namespace
}  // namespace bcn::core
