// B+-tree structure and search tests: the BTreeSearchOp stage machine
// under every schedule, checked against the plain BTreeSearchBaseline loop.
#include "btree/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "btree/btree_ops.h"
#include "btree/btree_search.h"
#include "core/scheduler.h"
#include "join/hash_join.h"
#include "join/sink.h"
#include "relation/relation.h"

namespace amac {
namespace {

/// Run BTreeSearchOp over every probe under `policy`.
CountChecksumSink SearchWith(ExecPolicy policy, const SchedulerParams& params,
                             const BTree& tree, const Relation& probe) {
  CountChecksumSink sink;
  BTreeSearchOp<CountChecksumSink> op(tree, probe, sink);
  Run(policy, params, op, probe.size());
  return sink;
}

TEST(BTreeNodeTest, LayoutIsFourCacheLines) {
  EXPECT_EQ(sizeof(BTreeNode), 4 * kCacheLineSize);
  EXPECT_EQ(alignof(BTreeNode), 4 * kCacheLineSize);
}

TEST(BTreeNodeTest, LowerBoundSemantics) {
  BTreeNode node;
  node.count = 4;
  node.keys[0] = 2;
  node.keys[1] = 4;
  node.keys[2] = 4;
  node.keys[3] = 9;
  EXPECT_EQ(node.LowerBound(1), 0u);
  EXPECT_EQ(node.LowerBound(2), 0u);
  EXPECT_EQ(node.LowerBound(3), 1u);
  EXPECT_EQ(node.LowerBound(4), 1u);
  EXPECT_EQ(node.LowerBound(10), 4u);
}

TEST(BTreeTest, FindAllInsertedKeys) {
  const Relation rel = MakeDenseUniqueRelation(5000, 201);
  const BTree tree(rel);
  for (const Tuple& t : rel) {
    const int64_t* payload = tree.Find(t.key);
    ASSERT_NE(payload, nullptr) << "key " << t.key;
    EXPECT_EQ(*payload, t.payload);
  }
  EXPECT_EQ(tree.Find(0), nullptr);
  EXPECT_EQ(tree.Find(5001), nullptr);
}

TEST(BTreeTest, HeightIsLogarithmic) {
  for (uint64_t n : {100ull, 10000ull, 200000ull}) {
    const Relation rel = MakeDenseUniqueRelation(n, 202);
    const BTree tree(rel);
    const BTreeStats stats = tree.ComputeStats();
    EXPECT_EQ(stats.num_keys, n);
    // height ~ ceil(log_16 n) + 1 slack.
    const uint32_t bound = static_cast<uint32_t>(
        std::ceil(std::log2(static_cast<double>(n)) / std::log2(15.0))) + 1;
    EXPECT_LE(tree.height(), bound) << "n=" << n;
    EXPECT_GE(tree.height(), 1u);
  }
}

TEST(BTreeTest, EmptyRelation) {
  Relation rel(0);
  const BTree tree(rel);
  EXPECT_EQ(tree.Find(42), nullptr);
  EXPECT_EQ(tree.ComputeStats().num_keys, 0u);
  EXPECT_EQ(tree.height(), 1u);
}

TEST(BTreeTest, SingleKey) {
  Relation rel(1);
  rel[0] = Tuple{7, 70};
  const BTree tree(rel);
  ASSERT_NE(tree.Find(7), nullptr);
  EXPECT_EQ(*tree.Find(7), 70);
  EXPECT_EQ(tree.Find(6), nullptr);
  EXPECT_EQ(tree.Find(8), nullptr);
}

TEST(BTreeTest, DuplicateKeysFindSomeMatch) {
  Relation rel(100);
  for (uint64_t i = 0; i < rel.size(); ++i) {
    rel[i] = Tuple{static_cast<int64_t>(i % 10), static_cast<int64_t>(i)};
  }
  const BTree tree(rel);
  for (int64_t k = 0; k < 10; ++k) {
    const int64_t* payload = tree.Find(k);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload % 10, k);  // payload belongs to that key
  }
}

TEST(BTreeTest, BoundaryKeysAcrossLeaves) {
  // Dense sequential keys stress the leaf-boundary separators.
  Relation rel(BTreeNode::kMaxKeys * 20);
  for (uint64_t i = 0; i < rel.size(); ++i) {
    rel[i] = Tuple{static_cast<int64_t>(i * 2), static_cast<int64_t>(i)};
  }
  const BTree tree(rel);
  for (uint64_t i = 0; i < rel.size(); ++i) {
    ASSERT_NE(tree.Find(static_cast<int64_t>(i * 2)), nullptr) << i;
    EXPECT_EQ(tree.Find(static_cast<int64_t>(i * 2 + 1)), nullptr) << i;
  }
}

class BTreeSearchEngineTest
    : public ::testing::TestWithParam<std::tuple<ExecPolicy, uint32_t>> {};

TEST_P(BTreeSearchEngineTest, MatchesBaseline) {
  const auto [policy, m] = GetParam();
  const uint64_t n = 50000;
  const Relation rel = MakeDenseUniqueRelation(n, 203);
  const BTree tree(rel);
  const Relation probe = MakeZipfRelation(n, n + 1000, 0.0, 204);

  CountChecksumSink baseline;
  BTreeSearchBaseline(tree, probe, 0, probe.size(), baseline);
  const CountChecksumSink sink =
      SearchWith(policy, SchedulerParams{m, tree.height()}, tree, probe);
  EXPECT_EQ(sink.matches(), baseline.matches()) << ExecPolicyName(policy);
  EXPECT_EQ(sink.checksum(), baseline.checksum()) << ExecPolicyName(policy);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByWindow, BTreeSearchEngineTest,
    ::testing::Combine(::testing::Values(ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch,
                                         ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac),
                       ::testing::Values(1u, 6u, 10u, 16u)),
    [](const auto& info) {
      return std::string(ExecPolicyName(std::get<0>(info.param))) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

TEST(BTreeSearchTest, UnderProvisionedStagesStillCorrect) {
  const uint64_t n = 30000;
  const Relation rel = MakeDenseUniqueRelation(n, 205);
  const BTree tree(rel);
  const Relation probe = MakeForeignKeyRelation(n, n, 206);
  CountChecksumSink base;
  BTreeSearchBaseline(tree, probe, 0, n, base);
  // One provisioned stage on a multi-level tree: bailout-heavy.
  const CountChecksumSink gp = SearchWith(ExecPolicy::kGroupPrefetch,
                                          SchedulerParams{8, 1}, tree, probe);
  const CountChecksumSink spp = SearchWith(
      ExecPolicy::kSoftwarePipelined, SchedulerParams{8, 1, 8}, tree, probe);
  EXPECT_EQ(gp.checksum(), base.checksum());
  EXPECT_EQ(spp.checksum(), base.checksum());
  EXPECT_EQ(base.matches(), n);
}

}  // namespace
}  // namespace amac
