// The congestion-rollback (victim flow) scenario from the paper's
// introduction: hop-by-hop PAUSE spreads congestion to innocent flows;
// BCN confines it to the culprits.
#include <gtest/gtest.h>

#include "sim/multihop.h"
#include "sim/stats.h"

namespace bcn::sim {
namespace {

TEST(MultihopTest, PauseOnlyCollapsesVictim) {
  MultihopConfig cfg;
  cfg.enable_pause = true;
  cfg.enable_bcn = false;
  const auto r = run_victim_scenario(cfg);
  // The victim shares E1 with the culprits and gets paused along with
  // them: it loses the overwhelming majority of its 1 Gbps.
  EXPECT_LT(r.victim_throughput, 0.2 * cfg.offered_rate);
  // PAUSE rolled back both hops.
  EXPECT_GT(r.pauses_core_to_edge, 0u);
  EXPECT_GT(r.pauses_edge_to_sources, 0u);
  // The hot port itself stays fully utilized.
  EXPECT_GT(r.culprit_throughput, 0.9 * cfg.hot_rate);
}

TEST(MultihopTest, BcnRestoresVictim) {
  MultihopConfig cfg;
  cfg.enable_pause = true;
  cfg.enable_bcn = true;
  SimStats observed;
  cfg.observer = &observed;
  const auto r = run_victim_scenario(cfg);
  EXPECT_GT(r.victim_throughput, 0.9 * cfg.offered_rate);
  EXPECT_GT(r.bcn_messages, 0u);
  // After convergence PAUSE stops firing toward the sources: any edge
  // PAUSE falls in the first 10 ms of the 50 ms run.
  for (const obs::TraceEvent& e : observed.events().events()) {
    if (e.kind == obs::EventKind::PauseOn && e.point == kMultihopEdgePort) {
      EXPECT_LT(e.t, 0.010);
    }
  }
  EXPECT_GT(r.culprit_throughput, 0.9 * cfg.hot_rate);
}

TEST(MultihopTest, BcnOnlyAlsoProtectsVictim) {
  MultihopConfig cfg;
  cfg.enable_pause = false;
  cfg.enable_bcn = true;
  const auto r = run_victim_scenario(cfg);
  EXPECT_GT(r.victim_throughput, 0.9 * cfg.offered_rate);
  EXPECT_EQ(r.pauses_core_to_edge, 0u);
  EXPECT_EQ(r.pauses_edge_to_sources, 0u);
}

TEST(MultihopTest, EdgeQueueStaysSmallWithBcn) {
  MultihopConfig with_pause;
  with_pause.enable_pause = true;
  with_pause.enable_bcn = false;
  MultihopConfig with_bcn;
  with_bcn.enable_pause = false;
  with_bcn.enable_bcn = true;
  const auto rp = run_victim_scenario(with_pause);
  const auto rb = run_victim_scenario(with_bcn);
  // PAUSE pushes the backlog into E1; BCN keeps it at the congested port.
  EXPECT_GT(rp.edge_peak_queue, 5.0 * rb.edge_peak_queue);
}

TEST(MultihopTest, NoCongestionNoInterference) {
  MultihopConfig cfg;
  cfg.num_culprits = 2;        // 2 Gbps offered into... a fast hot port
  cfg.hot_rate = 10e9;         // no bottleneck at all
  cfg.enable_pause = true;
  cfg.enable_bcn = true;
  const auto r = run_victim_scenario(cfg);
  EXPECT_GT(r.victim_throughput, 0.95 * cfg.offered_rate);
  EXPECT_EQ(r.core_drops, 0u);
  EXPECT_EQ(r.edge_drops, 0u);
  EXPECT_EQ(r.pauses_core_to_edge, 0u);
}

TEST(MultihopTest, DeterministicAcrossRuns) {
  MultihopConfig cfg;
  const auto a = run_victim_scenario(cfg);
  const auto b = run_victim_scenario(cfg);
  EXPECT_DOUBLE_EQ(a.victim_throughput, b.victim_throughput);
  EXPECT_EQ(a.pauses_edge_to_sources, b.pauses_edge_to_sources);
}

}  // namespace
}  // namespace bcn::sim
