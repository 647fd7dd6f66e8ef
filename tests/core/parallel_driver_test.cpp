// Morsel-driven parallel driver tests: for every ExecPolicy and thread
// count, RunParallel must produce results identical to single-threaded
// execution — for the read-only probe side (per-thread sinks merged) and
// for the latched group-by (shared table, synchronized latches).
#include "core/parallel_driver.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/ops.h"
#include "join/join_ops.h"
#include "graph/csr.h"
#include "graph/graph_ops.h"
#include "groupby/groupby_ops.h"
#include "join/probe_kernels.h"
#include "join/sink.h"
#include "relation/relation.h"

namespace amac {
namespace {

TEST(ResolveMorselSizeTest, RequestedSizeWins) {
  EXPECT_EQ(ResolveMorselSize(1 << 20, 4, 777, 10), 777u);
}

TEST(ResolveMorselSizeTest, AutoSizeStaysWithinBounds) {
  // Small inputs: floored so the in-flight window stays busy.
  EXPECT_GE(ResolveMorselSize(100, 4, 0, 10), 100u);
  // Large inputs: capped so no single claim dominates the tail.
  EXPECT_LE(ResolveMorselSize(uint64_t{1} << 32, 2, 0, 10),
            uint64_t{1} << 16);
  // Zero inputs must still return a nonzero morsel (cursor contract).
  EXPECT_GE(ResolveMorselSize(0, 4, 0, 10), 1u);
  // Absurd in-flight widths must not push the floor past the cap.
  EXPECT_EQ(ResolveMorselSize(uint64_t{1} << 20, 2, 0, 9000),
            uint64_t{1} << 16);
}

TEST(ParallelDriverTest, JoinProbeMatchesSingleThreadEverywhere) {
  const uint64_t n = 20000;
  const Relation build = MakeZipfRelation(n / 2, n / 4, 0.7, 311);
  const Relation probe = MakeZipfRelation(n, n / 4, 0.3, 312);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);

  CountChecksumSink base;
  ProbeBaseline<false>(table, probe, 0, probe.size(), base);

  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      ParallelDriverConfig config;
      config.policy = policy;
      config.params = SchedulerParams{6, 2};
      config.num_threads = threads;
      config.morsel_size = 1024;  // force several morsels per thread
      std::vector<CountChecksumSink> sinks(threads);
      const ParallelDriverStats stats =
          RunParallel(config, probe.size(), [&](uint32_t tid) {
            return ProbeOp<false, CountChecksumSink>(table, probe,
                                                         sinks[tid]);
          });
      CountChecksumSink merged;
      for (const auto& sink : sinks) merged.Merge(sink);
      EXPECT_EQ(merged.matches(), base.matches())
          << ExecPolicyName(policy) << " threads=" << threads;
      EXPECT_EQ(merged.checksum(), base.checksum())
          << ExecPolicyName(policy) << " threads=" << threads;
      EXPECT_EQ(stats.engine.lookups, probe.size())
          << ExecPolicyName(policy) << " threads=" << threads;
      EXPECT_GE(stats.engine.steps, probe.size())
          << ExecPolicyName(policy) << " threads=" << threads;
      EXPECT_EQ(stats.morsels, (probe.size() + 1023) / 1024)
          << ExecPolicyName(policy) << " threads=" << threads;
      EXPECT_EQ(stats.threads, threads);
      EXPECT_GT(stats.cycles, 0u)
          << ExecPolicyName(policy) << " threads=" << threads;
    }
  }
}

TEST(ParallelDriverTest, GroupByMatchesSingleThreadEverywhere) {
  const Relation input = MakeZipfRelation(20000, 1500, 0.8, 313);

  AggregateTable base_table(3000, AggregateTable::Options{});
  GroupByBaseline(input, 0, input.size(), base_table);
  const uint64_t base_groups = base_table.CountGroups();
  const uint64_t base_checksum = base_table.Checksum();

  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t threads : {1u, 4u}) {
      ParallelDriverConfig config;
      config.policy = policy;
      config.params = SchedulerParams{6, 2};
      config.num_threads = threads;
      AggregateTable table(3000, AggregateTable::Options{});
      RunParallel(config, input.size(), [&](uint32_t) {
        // Synchronized latches: morsels on different threads may collide
        // on a bucket.
        return GroupByOp<true>(table, input);
      });
      EXPECT_EQ(table.CountGroups(), base_groups)
          << ExecPolicyName(policy) << " threads=" << threads;
      EXPECT_EQ(table.Checksum(), base_checksum)
          << ExecPolicyName(policy) << " threads=" << threads;
    }
  }
}

TEST(ParallelDriverTest, RandomWalksIdenticalAcrossThreadCounts) {
  CsrGraph::Options opt;
  opt.num_vertices = 1 << 12;
  opt.out_degree = 6;
  opt.target_theta = 0.99;
  const CsrGraph graph(opt);
  const uint64_t walkers = 8000;

  WalkSink base;
  {
    RandomWalkOp op(graph, /*hops=*/5, /*seed=*/7, base);
    amac::Run(ExecPolicy::kAmac, SchedulerParams{8, 1}, op, walkers);
  }

  for (uint32_t threads : {1u, 4u}) {
    ParallelDriverConfig config;
    config.policy = ExecPolicy::kAmac;
    config.params = SchedulerParams{8, 1};
    config.num_threads = threads;
    std::vector<WalkSink> sinks(threads);
    RunParallel(config, walkers, [&](uint32_t tid) {
      return RandomWalkOp(graph, 5, 7, sinks[tid]);
    });
    WalkSink merged;
    for (const auto& sink : sinks) merged.Merge(sink);
    EXPECT_EQ(merged.visits(), base.visits()) << "threads=" << threads;
    EXPECT_EQ(merged.checksum(), base.checksum()) << "threads=" << threads;
  }
}

TEST(ParallelDriverTest, ZeroInputs) {
  ParallelDriverConfig config;
  config.num_threads = 4;
  std::vector<CountChecksumSink> sinks(4);
  Relation empty(0);
  ChainedHashTable table(1, ChainedHashTable::Options{});
  const ParallelDriverStats stats =
      RunParallel(config, 0, [&](uint32_t tid) {
        return ProbeOp<false, CountChecksumSink>(table, empty,
                                                     sinks[tid]);
      });
  EXPECT_EQ(stats.engine.lookups, 0u);
  EXPECT_EQ(stats.morsels, 0u);
}

}  // namespace
}  // namespace amac
