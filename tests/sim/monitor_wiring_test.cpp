// Monitor wiring through the packet simulator (tentpole satellites):
//
//  1. Determinism under observation — arming every monitor on the
//     reference scenario must leave the pinned trajectory digest from
//     determinism_test.cpp untouched (monitors observe, never perturb).
//  2. The fluid-verdict crosscheck actually trips on the acceptance
//     scenario: sources launched at line rate with the BCN reverse path
//     fully lossy drive the queue to the severe-congestion threshold
//     while the fluid model certifies strong stability for the same
//     gains.
//  3. Post-mortem bundles are byte-identical across reruns of the same
//     scenario — the contract scripts/check.sh gate 8 enforces end to
//     end.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/crossval.h"
#include "obs/postmortem.h"
#include "sim/network.h"
#include "temp_dir.h"

namespace bcn::sim {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// The same reference scenario determinism_test.cpp pins: 5 sources into
// one 10G bottleneck, paper-table BCN gains, 40 ms horizon.
NetworkConfig reference_config() {
  core::BcnParams p;
  p.num_sources = 5;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.w = 2.0;
  p.pm = 0.2;
  p.gi = 0.5;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;
  NetworkConfig cfg;
  cfg.params = p;
  cfg.initial_rate = p.capacity / p.num_sources;
  cfg.record_interval = 20 * kMicrosecond;
  return cfg;
}

std::uint64_t run_digest(const NetworkConfig& cfg) {
  Network net(cfg);
  net.run(from_seconds(0.04));
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& tp : net.stats().trace()) h = fnv1a(h, &tp, sizeof(tp));
  h = fnv1a(h, &net.stats().counters, sizeof(net.stats().counters));
  return h;
}

// The acceptance anomaly: the fluid model certifies these gains strongly
// stable, but the packet run starts every source at line rate with the
// BCN reverse path fully lossy, so the queue sails through qsc and the
// switch asserts severe-congestion PAUSE — a measured contradiction.
NetworkConfig contradiction_config() {
  NetworkConfig cfg = reference_config();
  cfg.initial_rate = cfg.params.capacity;  // 5x overload, uncontrolled
  cfg.faults.bcn_drop_p = 1.0;
  cfg.monitors.spec = obs::MonitorSpec::all();
  cfg.monitors.action = obs::ViolationAction::Record;
  cfg.monitors.fluid_strongly_stable =
      analysis::fluid_stability_hint(cfg.params, "bcn");
  return cfg;
}

TEST(MonitorWiringTest, ArmedButPassingMonitorsPreserveThePinnedDigest) {
  // Digest with monitors off: the anchor from determinism_test.cpp.
  EXPECT_EQ(run_digest(reference_config()), 0x521a746626762d88ull);

  NetworkConfig cfg = reference_config();
  cfg.monitors.spec = obs::MonitorSpec::all();
  cfg.monitors.action = obs::ViolationAction::Record;
  cfg.monitors.fluid_strongly_stable =
      analysis::fluid_stability_hint(cfg.params, "bcn");
  Network net(cfg);
  net.run(from_seconds(0.04));

  std::uint64_t h = 1469598103934665603ull;
  for (const auto& tp : net.stats().trace()) h = fnv1a(h, &tp, sizeof(tp));
  h = fnv1a(h, &net.stats().counters, sizeof(net.stats().counters));
  EXPECT_EQ(h, 0x521a746626762d88ull);

  // The monitors really ran — and found nothing.
  EXPECT_TRUE(net.monitor().armed());
  EXPECT_GT(net.monitor().checks(), 0u);
  EXPECT_EQ(net.monitor().violation_count(), 0u);
  EXPECT_FALSE(net.monitor().snapshots().empty());
}

TEST(MonitorWiringTest, CrosscheckTripsOnTheContradictionScenario) {
  const NetworkConfig cfg = contradiction_config();
  ASSERT_TRUE(cfg.monitors.fluid_strongly_stable.has_value());
  ASSERT_TRUE(*cfg.monitors.fluid_strongly_stable)
      << "reference gains must be fluid-certified strongly stable for the "
         "crosscheck to arm";
  Network net(cfg);
  net.run(from_seconds(0.005));
  ASSERT_GT(net.monitor().violation_count(), 0u);
  const auto& v = net.monitor().violations().front();
  EXPECT_EQ(v.invariant, "crosscheck");
  EXPECT_GT(v.t, 0.0);
  // The contradiction is latched: one crosscheck violation per run.
  std::size_t crosschecks = 0;
  for (const auto& violation : net.monitor().violations()) {
    if (violation.invariant == "crosscheck") ++crosschecks;
  }
  EXPECT_EQ(crosschecks, 1u);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(MonitorWiringTest, PostmortemBundlesAreByteIdenticalAcrossReruns) {
  const std::filesystem::path base =
      testutil::test_temp_dir("bcn_monitor_wiring_test");
  std::filesystem::remove_all(base);

  std::string bundles[2];
  for (int rep = 0; rep < 2; ++rep) {
    const std::filesystem::path dir = base / ("rep" + std::to_string(rep));
    std::filesystem::create_directories(dir);
    NetworkConfig cfg = contradiction_config();
    cfg.monitors.action = obs::ViolationAction::Dump;  // write, don't exit
    cfg.monitors.bundle_dir = dir;
    cfg.monitors.repro = "bcn_sim_tests --gtest_filter=MonitorWiringTest.*";
    Network net(cfg);
    net.run(from_seconds(0.005));
    ASSERT_GT(net.monitor().violation_count(), 0u) << "rep " << rep;
    const auto path = obs::postmortem_path(dir, "crosscheck");
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    bundles[rep] = read_file(path);
    ASSERT_FALSE(bundles[rep].empty());
  }
  EXPECT_EQ(bundles[0], bundles[1]);

  // The bundle names the violated invariant and embeds the repro line.
  EXPECT_NE(bundles[0].find("\"invariant\": \"crosscheck\""),
            std::string::npos);
  EXPECT_NE(bundles[0].find("--gtest_filter=MonitorWiringTest"),
            std::string::npos);
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace bcn::sim
