// Build equivalence: the BuildOp stage machine under every schedule must
// produce a table with the same per-key contents as the reference build,
// single- and multi-threaded, for uniform and skewed key distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/scheduler.h"
#include "join/hash_join.h"
#include "join/join_ops.h"
#include "relation/relation.h"

namespace amac {
namespace {

std::map<int64_t, std::vector<int64_t>> TableContents(
    const ChainedHashTable& table, const Relation& keys) {
  std::map<int64_t, std::vector<int64_t>> contents;
  for (const Tuple& t : keys) {
    if (contents.count(t.key)) continue;
    std::vector<int64_t> payloads;
    table.FindAll(t.key, &payloads);
    std::sort(payloads.begin(), payloads.end());
    contents[t.key] = std::move(payloads);
  }
  return contents;
}

class BuildEngineTest : public ::testing::TestWithParam<ExecPolicy> {};

TEST_P(BuildEngineTest, SingleThreadMatchesReference) {
  const ExecPolicy policy = GetParam();
  for (double theta : {0.0, 0.75}) {
    const Relation rel =
        theta == 0.0 ? MakeDenseUniqueRelation(5000, 51)
                     : MakeZipfRelation(5000, 2000, theta, 52);
    ChainedHashTable reference(rel.size(), ChainedHashTable::Options{});
    BuildTableUnsync(rel, &reference);

    ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
    Executor exec(
        ExecConfig{policy, SchedulerParams{8, 1, 0}, 1, 0});
    const RunStats build = BuildPhase(exec, rel, &table);
    EXPECT_EQ(build.inputs, rel.size());
    EXPECT_EQ(TableContents(table, rel), TableContents(reference, rel))
        << ExecPolicyName(policy) << " theta=" << theta;
  }
}

TEST_P(BuildEngineTest, MultiThreadMatchesReference) {
  const ExecPolicy policy = GetParam();
  const Relation rel = MakeZipfRelation(20000, 4000, 0.5, 53);
  ChainedHashTable reference(rel.size(), ChainedHashTable::Options{});
  BuildTableUnsync(rel, &reference);

  ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
  Executor exec(ExecConfig{policy, SchedulerParams{6, 1, 0}, 4, 0});
  BuildPhase(exec, rel, &table);
  EXPECT_EQ(TableContents(table, rel), TableContents(reference, rel))
      << ExecPolicyName(policy);
}

TEST_P(BuildEngineTest, HotBucketContention) {
  // All tuples share one key: maximal latch contention, long chain.
  const ExecPolicy policy = GetParam();
  Relation rel(3000);
  for (uint64_t i = 0; i < rel.size(); ++i) {
    rel[i] = Tuple{99, static_cast<int64_t>(i)};
  }
  ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
  Executor exec(ExecConfig{policy, SchedulerParams{10, 1, 0}, 4, 0});
  BuildPhase(exec, rel, &table);
  std::vector<int64_t> payloads;
  table.FindAll(99, &payloads);
  EXPECT_EQ(payloads.size(), rel.size());
  std::sort(payloads.begin(), payloads.end());
  for (uint64_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], static_cast<int64_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BuildEngineTest,
                         ::testing::Values(ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch,
                                           ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac),
                         [](const auto& info) {
                           return ExecPolicyName(info.param);
                         });

/// Single-threaded BuildOp over all of `rel` under `policy`; returns the
/// number of tuples the table then holds.
uint64_t BuildWith(ExecPolicy policy, const SchedulerParams& params,
                   const Relation& rel) {
  ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
  BuildOp<false> op(table, rel);
  Run(policy, params, op, rel.size());
  return table.ComputeStats().total_tuples;
}

TEST(BuildKernelTest, AmacBuildWithTinyWindow) {
  const Relation rel = MakeDenseUniqueRelation(1000, 54);
  EXPECT_EQ(BuildWith(ExecPolicy::kAmac, SchedulerParams{1, 1}, rel),
            rel.size());
}

TEST(BuildKernelTest, SppBuildWithLargeDistance) {
  // One insert stage, prefetch distance 64: the pipeline never fills.
  const Relation rel = MakeDenseUniqueRelation(100, 55);
  EXPECT_EQ(BuildWith(ExecPolicy::kSoftwarePipelined,
                      SchedulerParams{64, 1, 64}, rel),
            rel.size());
}

TEST(BuildKernelTest, GpBuildGroupLargerThanInput) {
  const Relation rel = MakeDenseUniqueRelation(10, 56);
  EXPECT_EQ(BuildWith(ExecPolicy::kGroupPrefetch, SchedulerParams{64, 1}, rel),
            rel.size());
}

}  // namespace
}  // namespace amac
