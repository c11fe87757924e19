// THE cross-shard determinism contract (sim/shard/engine.h): the FNV-1a
// trajectory digest of a fabric run is bitwise-identical for every shard
// count, including one and a shard count that divides nothing evenly
// (7), and equal to the constants pinned for two small fabrics and for
// sparse runs whose empty epochs are skipped.  Also pins that the digest
// reacts to parameter changes (it is not a constant), that armed
// per-shard monitors neither perturb the trajectory nor lose their
// merged counts across shard counts, and that repeated runs are
// reproducible.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/shard/engine.h"
#include "sim/shard/topology.h"

namespace bcn::sim::shard {
namespace {

// Rate high enough that ports sample and BCN feedback flows within the
// short horizon, so the digest covers the full control loop -- frames,
// drops, sigma sampling, reverse-path BCN, regulator updates.
FabricOptions active_options() {
  FabricOptions options;
  options.q0 = 2.5e6;
  options.w = 2.0;
  options.pm = 0.2;
  options.regulator.gi = 0.5;
  options.regulator.gd = 1.0 / 128.0;
  options.regulator.ru = 8e6;
  options.regulator.max_rate = 10e9;
  options.initial_rate = 2e9;
  options.duration = 1500 * kMicrosecond;
  options.sample_interval = 50 * kMicrosecond;
  return options;
}

Topology fabric(const char* spec, int rounds) {
  Topology topo;
  std::string error;
  EXPECT_TRUE(parse_topology_spec(spec, &topo, &error)) << error;
  add_permutation_flows(topo, rounds, /*seed=*/0);
  return topo;
}

TEST(ShardDeterminismTest, DigestInvariantAcrossShardCounts) {
  for (const char* spec : {"fat-tree:4", "leaf-spine:2x4x4"}) {
    const Topology topo = fabric(spec, 3);
    const FabricOptions options = active_options();
    const FabricResult reference = run_fabric(topo, options, 1);
    ASSERT_GT(reference.frames_sent, 0u) << spec;
    ASSERT_GT(reference.frames_sampled, 0u)
        << spec << ": horizon too short for the feedback loop";
    ASSERT_GT(reference.bcn_sent, 0u) << spec;
    for (const int shards : {2, 4, 7}) {
      const FabricResult result = run_fabric(topo, options, shards);
      // A run that stopped exchanging across shards could still match.
      EXPECT_GT(result.cross_shard_records, 0u)
          << spec << " shards=" << shards;
      EXPECT_EQ(result.digest, reference.digest)
          << spec << " shards=" << shards;
      EXPECT_EQ(result.events_executed, reference.events_executed)
          << spec << " shards=" << shards;
      EXPECT_EQ(result.staged_records, reference.staged_records)
          << spec << " shards=" << shards;
      EXPECT_EQ(result.frames_delivered, reference.frames_delivered);
      EXPECT_EQ(result.trace_queue, reference.trace_queue);
      EXPECT_EQ(result.total_queue, reference.total_queue);
      ASSERT_EQ(result.flow_stats.size(), reference.flow_stats.size());
      for (std::size_t f = 0; f < result.flow_stats.size(); ++f) {
        EXPECT_EQ(result.flow_stats[f].frames_sent,
                  reference.flow_stats[f].frames_sent);
        EXPECT_EQ(result.flow_stats[f].rate, reference.flow_stats[f].rate);
      }
    }
  }
}

// Invariance alone would pass a change that moved every shard count the
// same way; these constants pin the trajectory itself.
TEST(ShardDeterminismTest, DigestMatchesPin) {
  struct Pin {
    const char* spec;
    std::uint64_t digest;
    std::uint64_t events_executed;
    std::uint64_t staged_records;
  };
  for (const Pin& pin : {Pin{"fat-tree:4", 0x7c65096d73c0fd1cull, 202004u, 101412u},
                         Pin{"leaf-spine:2x4x4", 0x115d9fc7a7dbefd7ull, 147308u,
                             69814u}}) {
    const Topology topo = fabric(pin.spec, 3);
    for (const int shards : {1, 4}) {
      const FabricResult result = run_fabric(topo, active_options(), shards);
      EXPECT_EQ(result.digest, pin.digest)
          << pin.spec << " shards=" << shards << std::hex
          << " digest=0x" << result.digest;
      EXPECT_EQ(result.events_executed, pin.events_executed)
          << pin.spec << " shards=" << shards;
      EXPECT_EQ(result.staged_records, pin.staged_records)
          << pin.spec << " shards=" << shards;
    }
  }
}

// Only records whose destination lives on another shard go through the
// outboxes: none on one shard, some but never all of them on several.
TEST(ShardDeterminismTest, OnlyForeignDestinationsCrossShards) {
  const Topology topo = fabric("fat-tree:4", 2);
  const FabricOptions options = active_options();
  const FabricResult one = run_fabric(topo, options, 1);
  EXPECT_GT(one.staged_records, 0u);
  EXPECT_EQ(one.cross_shard_records, 0u);
  for (const int shards : {2, 4}) {
    const FabricResult result = run_fabric(topo, options, shards);
    EXPECT_GT(result.cross_shard_records, 0u) << "shards=" << shards;
    EXPECT_LT(result.cross_shard_records, result.staged_records)
        << "shards=" << shards;
  }
}

// The outbox parity flips every epoch and the last epoch's outboxes are
// never collected.  Horizons of one and two epochs, and odd and even
// epoch counts whose last epoch is partial, must all keep the digest
// shard-invariant.
TEST(ShardDeterminismTest, DigestInvariantAtEpochEdgeHorizons) {
  const Topology topo = fabric("leaf-spine:2x4x4", 2);
  const SimTime quantum = topo.link_delay;
  for (const SimTime duration :
       {quantum, 2 * quantum, 301 * quantum - quantum / 2,
        302 * quantum - quantum / 2}) {
    FabricOptions options = active_options();
    options.duration = duration;
    const FabricResult reference = run_fabric(topo, options, 1);
    ASSERT_GT(reference.epochs, 0u) << "duration=" << duration;
    for (const int shards : {2, 3}) {
      const FabricResult result = run_fabric(topo, options, shards);
      EXPECT_EQ(result.epochs, reference.epochs) << "duration=" << duration;
      EXPECT_EQ(result.digest, reference.digest)
          << "duration=" << duration << " shards=" << shards;
      EXPECT_EQ(result.events_executed, reference.events_executed)
          << "duration=" << duration << " shards=" << shards;
      if (duration > 2 * quantum) {
        EXPECT_GT(result.cross_shard_records, 0u)
            << "duration=" << duration << " shards=" << shards;
      }
    }
  }
}

// Sparse runs at 5e7 b/s, where most epochs hold no work and the loop
// skips them on every shard count.  In the first, the rate increase is
// off (gi = 0), so frames come in bursts a pacing period apart for the
// whole 20 ms; left on, positive feedback ramps every flow to line rate
// within about 340 us, after which no epoch is empty.  The second is
// the ramp's start on a larger fabric, where on 3 and 7 shards a
// cross-shard record can be the only pending work: a skip that ignored
// the outboxes would jump past it.  The digests and counts are the
// constants of the loop that ran every epoch, and the executed epochs
// are the same on every shard count.
TEST(ShardDeterminismTest, SparseRunsSkipEpochsOnEveryShardCount) {
  struct Sparse {
    const char* spec;
    int rounds;
    double gi;
    SimTime duration;
    std::uint64_t digest;
    std::uint64_t events_executed;
    std::uint64_t staged_records;
  };
  for (const Sparse& run :
       {Sparse{"leaf-spine:2x4x4", 3, 0.0, 20 * kMillisecond,
               0x5831465ed6d43b3aull, 26565u, 12285u},
        Sparse{"leaf-spine:4x8x8", 2, 0.5, 500 * kMicrosecond,
               0xd928fd745d0d9abcull, 7778u, 3682u}}) {
    const Topology topo = fabric(run.spec, run.rounds);
    FabricOptions options = active_options();
    options.initial_rate = 5e7;
    options.regulator.gi = run.gi;
    options.duration = run.duration;
    const FabricResult reference = run_fabric(topo, options, 1);
    ASSERT_GT(reference.bcn_sent, 0u) << run.spec;
    EXPECT_LT(reference.executed_epochs, reference.epochs / 2) << run.spec;
    for (const int shards : {1, 2, 3, 7}) {
      const FabricResult result = run_fabric(topo, options, shards);
      EXPECT_EQ(result.digest, run.digest)
          << run.spec << " shards=" << shards << std::hex << " digest=0x"
          << result.digest;
      EXPECT_EQ(result.events_executed, run.events_executed)
          << run.spec << " shards=" << shards;
      EXPECT_EQ(result.staged_records, run.staged_records)
          << run.spec << " shards=" << shards;
      EXPECT_EQ(result.executed_epochs, reference.executed_epochs)
          << run.spec << " shards=" << shards;
      if (shards > 1) {
        EXPECT_GT(result.cross_shard_records, 0u)
            << run.spec << " shards=" << shards;
      }
    }
  }
}

TEST(ShardDeterminismTest, RepeatedRunsReproduce) {
  const Topology topo = fabric("fat-tree:4", 2);
  const FabricOptions options = active_options();
  const FabricResult a = run_fabric(topo, options, 2);
  const FabricResult b = run_fabric(topo, options, 2);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(ShardDeterminismTest, DigestReactsToParameterChanges) {
  const Topology topo = fabric("fat-tree:4", 2);
  const FabricOptions base = active_options();
  const std::uint64_t reference = run_fabric(topo, base, 1).digest;

  FabricOptions faster = base;
  faster.initial_rate = 3e9;
  EXPECT_NE(run_fabric(topo, faster, 1).digest, reference);

  FabricOptions heavier = base;
  heavier.w = 4.0;
  EXPECT_NE(run_fabric(topo, heavier, 1).digest, reference);
}

TEST(ShardDeterminismTest, ArmedMonitorsPreserveDigestAndMergeCounts) {
  const Topology topo = fabric("fat-tree:4", 3);
  const FabricOptions quiet = active_options();
  const FabricResult unarmed = run_fabric(topo, quiet, 1);

  FabricOptions armed = quiet;
  const auto spec = obs::parse_monitor_spec("queue_bounds,finite");
  ASSERT_TRUE(spec.has_value());
  armed.monitors = *spec;
  const FabricResult one = run_fabric(topo, armed, 1);
  EXPECT_EQ(one.digest, unarmed.digest)
      << "arming monitors must not perturb the trajectory";
  EXPECT_GT(one.monitor_checks, 0u);
  EXPECT_EQ(one.monitor_violations, 0u);
  for (const int shards : {2, 4}) {
    const FabricResult result = run_fabric(topo, armed, shards);
    EXPECT_EQ(result.digest, unarmed.digest) << "shards=" << shards;
    // Check counts scale with the shard count (each shard runs its own
    // per-sample predicates on its partial state -- that is why they are
    // excluded from the digest); violations must stay quiet everywhere.
    EXPECT_GE(result.monitor_checks, one.monitor_checks)
        << "shards=" << shards;
    EXPECT_EQ(result.monitor_violations, 0u) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace bcn::sim::shard
