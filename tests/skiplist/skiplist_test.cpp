// Skip list structure tests, and the search / insert stage machines
// (SkipSearchOp, SkipInsertOp) under every schedule, single-threaded.
#include "skiplist/skiplist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "join/sink.h"
#include "relation/relation.h"
#include "core/scheduler.h"
#include "skiplist/skiplist_ops.h"
#include "skiplist/skiplist_search.h"
#include "skiplist/skiplist_write_ops.h"

namespace amac {
namespace {

/// Run SkipSearchOp over every probe under `policy`.
CountChecksumSink SearchWith(ExecPolicy policy, const SchedulerParams& params,
                             const SkipList& list, const Relation& probe) {
  CountChecksumSink sink;
  SkipSearchOp<CountChecksumSink> op(list, probe, sink);
  Run(policy, params, op, probe.size());
  return sink;
}

TEST(SkipNodeTest, SizeRoundsToCacheLines) {
  EXPECT_EQ(SkipNode::BytesForHeight(1), 64u);
  EXPECT_EQ(SkipNode::BytesForHeight(5), 64u);
  EXPECT_EQ(SkipNode::BytesForHeight(6), 128u);
  EXPECT_EQ(SkipNode::BytesForHeight(13), 128u);
  EXPECT_EQ(SkipNode::BytesForHeight(14), 192u);
  EXPECT_EQ(SkipNode::BytesForHeight(20), 192u);
  EXPECT_EQ(SkipNode::BytesForHeight(SkipList::kMaxLevel), 192u);
}

TEST(SkipListTest, InsertAndFind) {
  SkipList list(100);
  Rng rng(1);
  EXPECT_TRUE(list.InsertUnsync(10, 100, rng));
  EXPECT_TRUE(list.InsertUnsync(5, 50, rng));
  EXPECT_TRUE(list.InsertUnsync(20, 200, rng));
  ASSERT_NE(list.Find(10), nullptr);
  EXPECT_EQ(list.Find(10)->payload, 100);
  EXPECT_EQ(list.Find(5)->payload, 50);
  EXPECT_EQ(list.Find(20)->payload, 200);
  EXPECT_EQ(list.Find(15), nullptr);
  EXPECT_EQ(list.size(), 3u);
}

TEST(SkipListTest, DuplicatesRejected) {
  SkipList list(10);
  Rng rng(2);
  EXPECT_TRUE(list.InsertUnsync(1, 10, rng));
  EXPECT_FALSE(list.InsertUnsync(1, 20, rng));
  EXPECT_EQ(list.Find(1)->payload, 10);
  EXPECT_EQ(list.size(), 1u);
}

TEST(SkipListTest, ForEachVisitsKeysInAscendingOrder) {
  SkipList list(1000);
  Rng rng(3);
  const Relation rel = MakeDenseUniqueRelation(1000, 91);
  for (const Tuple& t : rel) list.InsertUnsync(t.key, t.payload, rng);
  int64_t prev = 0;
  uint64_t count = 0;
  list.ForEach([&](const SkipNode& n) {
    EXPECT_GT(n.key, prev);
    prev = n.key;
    ++count;
  });
  EXPECT_EQ(count, 1000u);
  EXPECT_EQ(prev, 1000);
}

TEST(SkipListTest, RandomHeightIsGeometric) {
  Rng rng(4);
  std::vector<int> counts(SkipList::kMaxLevel + 1, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[SkipList::RandomHeight(rng)];
  EXPECT_NEAR(counts[1], kDraws / 2, kDraws / 2 * 0.05);
  EXPECT_NEAR(counts[2], kDraws / 4, kDraws / 4 * 0.1);
  EXPECT_NEAR(counts[3], kDraws / 8, kDraws / 8 * 0.15);
  for (int i = 0; i < 100; ++i) {
    const uint32_t h = SkipList::RandomHeight(rng);
    ASSERT_GE(h, 1u);
    ASSERT_LE(h, SkipList::kMaxLevel);
  }
}

TEST(SkipListTest, StatsMatchContents) {
  SkipList list(2000);
  Rng rng(5);
  for (int64_t k = 1; k <= 2000; ++k) list.InsertUnsync(k * 3, k, rng);
  const SkipList::Stats stats = list.ComputeStats();
  EXPECT_EQ(stats.num_elems, 2000u);
  EXPECT_GT(stats.avg_height, 1.5);
  EXPECT_LT(stats.avg_height, 2.5);
  EXPECT_GT(stats.slab_bytes_used, 2000u * 64);
}

TEST(SkipListTest, FindPredecessorsBracketsKey) {
  SkipList list(500);
  Rng rng(6);
  for (int64_t k = 2; k <= 1000; k += 2) list.InsertUnsync(k, k, rng);
  SkipNode* preds[SkipList::kMaxLevel];
  SkipNode* succs[SkipList::kMaxLevel];
  FindPredecessors(list, 501, preds, succs);  // odd key: absent
  for (uint32_t l = 0; l < SkipList::kMaxLevel; ++l) {
    EXPECT_LT(preds[l]->key, 501);
    if (succs[l] != nullptr) {
      EXPECT_GT(succs[l]->key, 501);
    }
    if (l > 0 && succs[l] != nullptr) {
      EXPECT_GE(succs[l]->height, l + 1);
    }
  }
  EXPECT_EQ(preds[0]->key, 500);
  ASSERT_NE(succs[0], nullptr);
  EXPECT_EQ(succs[0]->key, 502);
}

// --- search --------------------------------------------------------------

class SkipSearchEngineTest
    : public ::testing::TestWithParam<std::tuple<ExecPolicy, uint32_t>> {};

TEST_P(SkipSearchEngineTest, MatchesBaseline) {
  const auto [policy, m] = GetParam();
  const uint64_t n = 3000;
  SkipList list(n);
  Rng rng(7);
  const Relation rel = MakeDenseUniqueRelation(n, 92);
  for (const Tuple& t : rel) list.InsertUnsync(t.key, t.payload, rng);
  // Probes: all present keys plus some misses.
  Relation probe = MakeZipfRelation(n, n + 300, 0.0, 93);

  CountChecksumSink baseline, sink;
  SkipSearchBaseline(list, probe, 0, probe.size(), baseline);
  Executor exec(ExecConfig{policy, SchedulerParams{m, 6, 0}, 1, 0});
  const RunStats run = RunSkipListSearch(exec, list, probe);
  (void)sink;
  EXPECT_EQ(run.outputs, baseline.matches()) << ExecPolicyName(policy);
  EXPECT_EQ(run.checksum, baseline.checksum()) << ExecPolicyName(policy);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByWindow, SkipSearchEngineTest,
    ::testing::Combine(::testing::Values(ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch,
                                         ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac),
                       ::testing::Values(1u, 4u, 10u)),
    [](const auto& info) {
      return std::string(ExecPolicyName(std::get<0>(info.param))) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SkipSearchTest, EveryUniqueKeyFoundExactlyOnce) {
  const uint64_t n = 2000;
  SkipList list(n);
  Rng rng(8);
  const Relation rel = MakeDenseUniqueRelation(n, 94);
  for (const Tuple& t : rel) list.InsertUnsync(t.key, t.payload, rng);
  Relation probe = MakeForeignKeyRelation(n, n, 95);
  EXPECT_EQ(
      SearchWith(ExecPolicy::kAmac, SchedulerParams{10, 1}, list, probe)
          .matches(),
      n);
}

TEST(SkipSearchTest, EmptyListFindsNothing) {
  SkipList list(10);
  Relation probe(5);
  for (uint64_t i = 0; i < 5; ++i) probe[i] = Tuple{static_cast<int64_t>(i + 1), 0};
  EXPECT_EQ(
      SearchWith(ExecPolicy::kAmac, SchedulerParams{3, 1}, list, probe)
          .matches(),
      0u);
  EXPECT_EQ(SearchWith(ExecPolicy::kGroupPrefetch, SchedulerParams{2, 3},
                       list, probe)
                .matches(),
            0u);
}

// --- single-threaded insert (RunSkipListInsert -> SkipInsertOp) ---------------------------------------

class SkipInsertEngineTest
    : public ::testing::TestWithParam<std::tuple<ExecPolicy, uint32_t>> {};

TEST_P(SkipInsertEngineTest, BuildsSameKeySet) {
  const auto [policy, m] = GetParam();
  const uint64_t n = 2500;
  const Relation rel = MakeDenseUniqueRelation(n, 96);
  SkipList list(n);
  Executor exec(ExecConfig{policy, SchedulerParams{m, 6, 0}, 1, 0});
  const RunStats run = RunSkipListInsert(exec, &list, rel);
  EXPECT_EQ(run.outputs, n) << ExecPolicyName(policy);  // all inserted
  EXPECT_EQ(list.size(), n);
  // Contents identical to a reference build (checksum is height-agnostic).
  SkipList ref(n);
  Rng rng(9);
  for (const Tuple& t : rel) ref.InsertUnsync(t.key, t.payload, rng);
  EXPECT_EQ(list.Checksum(), ref.Checksum()) << ExecPolicyName(policy);
  // Ascending order invariant survived the staged splices.
  int64_t prev = 0;
  list.ForEach([&](const SkipNode& node) {
    EXPECT_GT(node.key, prev);
    prev = node.key;
  });
}

TEST_P(SkipInsertEngineTest, DuplicatesSkipped) {
  const auto [policy, m] = GetParam();
  Relation rel(300);
  for (uint64_t i = 0; i < rel.size(); ++i) {
    rel[i] = Tuple{static_cast<int64_t>(i % 100 + 1),
                   static_cast<int64_t>(i)};
  }
  SkipList list(rel.size());
  Executor exec(ExecConfig{policy, SchedulerParams{m, 4, 0}, 1, 0});
  const RunStats run = RunSkipListInsert(exec, &list, rel);
  EXPECT_EQ(run.outputs, 100u) << ExecPolicyName(policy);
  EXPECT_EQ(list.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByWindow, SkipInsertEngineTest,
    ::testing::Combine(::testing::Values(ExecPolicy::kSequential,
                                         ExecPolicy::kGroupPrefetch,
                                         ExecPolicy::kSoftwarePipelined,
                                         ExecPolicy::kAmac,
                                         ExecPolicy::kCoroutine,
                                         ExecPolicy::kVectorized,
                                         ExecPolicy::kVectorizedAmac,
                                         ExecPolicy::kAdaptive),
                       ::testing::Values(1u, 6u, 12u)),
    [](const auto& info) {
      return std::string(ExecPolicyName(std::get<0>(info.param))) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SkipInsertTest, InterleavedSearchStepMatchesFindPredecessors) {
  SkipList list(500);
  Rng rng(10);
  for (int64_t k = 5; k <= 2500; k += 5) list.InsertUnsync(k, k, rng);
  for (int64_t key : {3, 777, 1501, 2499, 2503}) {
    InsertSearch s;
    InitInsertSearch(list, s);
    InsertStep r;
    do {
      r = SkipInsertSearchStep(s, key);
    } while (r == InsertStep::kParked);
    SkipNode* preds[SkipList::kMaxLevel];
    SkipNode* succs[SkipList::kMaxLevel];
    FindPredecessors(list, key, preds, succs);
    if (r == InsertStep::kDup) {
      EXPECT_TRUE(key % 5 == 0 && key >= 5 && key <= 2500);
      continue;
    }
    for (uint32_t l = 0; l < SkipList::kMaxLevel; ++l) {
      EXPECT_EQ(s.preds[l], preds[l]) << "key " << key << " level " << l;
      EXPECT_EQ(s.succs[l], succs[l]) << "key " << key << " level " << l;
    }
  }
}

}  // namespace
}  // namespace amac
