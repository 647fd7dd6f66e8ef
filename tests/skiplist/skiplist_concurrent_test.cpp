// Concurrent skip list insert tests: Pugh latched splice under real thread
// interleavings, for the reference insert and for RunSkipListInsert's
// SkipInsertOp under every policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "join/sink.h"
#include "relation/relation.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"
#include "skiplist/skiplist_search.h"

namespace amac {
namespace {

void ExpectSortedAndComplete(const SkipList& list,
                             const std::set<int64_t>& expected_keys) {
  std::vector<int64_t> keys;
  list.ForEach([&](const SkipNode& n) { keys.push_back(n.key); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), expected_keys.size());
  std::set<int64_t> got(keys.begin(), keys.end());
  EXPECT_EQ(got, expected_keys);
}

TEST(SkipListConcurrentTest, DisjointRangesInsertSync) {
  const uint64_t per_thread = 2000;
  const uint32_t threads = 4;
  SkipList list(per_thread * threads);
  ParallelFor(threads, [&](uint32_t tid) {
    Rng rng(100 + tid);
    for (uint64_t i = 0; i < per_thread; ++i) {
      const int64_t key =
          static_cast<int64_t>(tid * per_thread + i + 1);
      EXPECT_TRUE(list.InsertSync(key, key * 2, rng));
    }
  });
  std::set<int64_t> expected;
  for (uint64_t k = 1; k <= per_thread * threads; ++k) {
    expected.insert(static_cast<int64_t>(k));
  }
  ExpectSortedAndComplete(list, expected);
}

TEST(SkipListConcurrentTest, InterleavedKeysInsertSync) {
  // Threads insert interleaved keys so splices collide on shared
  // predecessors constantly.
  const uint64_t n = 8000;
  const uint32_t threads = 4;
  SkipList list(n);
  ParallelFor(threads, [&](uint32_t tid) {
    Rng rng(200 + tid);
    for (uint64_t k = tid + 1; k <= n; k += threads) {
      EXPECT_TRUE(list.InsertSync(static_cast<int64_t>(k),
                                  static_cast<int64_t>(k), rng));
    }
  });
  EXPECT_EQ(list.size(), n);
  std::set<int64_t> expected;
  for (uint64_t k = 1; k <= n; ++k) expected.insert(static_cast<int64_t>(k));
  ExpectSortedAndComplete(list, expected);
}

TEST(SkipListConcurrentTest, DuplicateRaceExactlyOneWins) {
  // All threads insert the same keys; each key must appear exactly once.
  const uint64_t keys = 500;
  const uint32_t threads = 4;
  SkipList list(keys * threads);
  std::atomic<uint64_t> wins{0};
  ParallelFor(threads, [&](uint32_t tid) {
    Rng rng(300 + tid);
    uint64_t local = 0;
    for (uint64_t k = 1; k <= keys; ++k) {
      local += list.InsertSync(static_cast<int64_t>(k),
                               static_cast<int64_t>(tid), rng);
    }
    wins.fetch_add(local);
  });
  EXPECT_EQ(wins.load(), keys);
  EXPECT_EQ(list.size(), keys);
  std::set<int64_t> expected;
  for (uint64_t k = 1; k <= keys; ++k) expected.insert(static_cast<int64_t>(k));
  ExpectSortedAndComplete(list, expected);
}

class SkipInsertMtTest : public ::testing::TestWithParam<ExecPolicy> {};

TEST_P(SkipInsertMtTest, MultiThreadedKernelBuildsCompleteList) {
  const ExecPolicy policy = GetParam();
  const uint64_t n = 8000;
  const Relation rel = MakeDenseUniqueRelation(n, 301);
  SkipList list(n);
  Executor exec(ExecConfig{policy, SchedulerParams{8, 6, 0}, 4, 0});
  const RunStats run = RunSkipListInsert(exec, &list, rel);
  EXPECT_EQ(run.outputs, n) << ExecPolicyName(policy);
  EXPECT_EQ(list.size(), n);
  std::set<int64_t> expected;
  for (const Tuple& t : rel) expected.insert(t.key);
  ExpectSortedAndComplete(list, expected);
  // Search still works after the concurrent build.
  CountChecksumSink sink;
  SkipSearchBaseline(list, rel, 0, rel.size(), sink);
  EXPECT_EQ(sink.matches(), n);
}

TEST_P(SkipInsertMtTest, OverlappingKeysAcrossThreads) {
  const ExecPolicy policy = GetParam();
  // Every thread gets the full key set: n unique keys overall, duplicates
  // must lose their races without corrupting the list.
  const uint64_t n = 600;
  Relation rel(n * 4);
  for (uint64_t i = 0; i < rel.size(); ++i) {
    rel[i] = Tuple{static_cast<int64_t>(i % n + 1), static_cast<int64_t>(i)};
  }
  SkipList list(rel.size());
  Executor exec(ExecConfig{policy, SchedulerParams{6, 4, 0}, 4, 0});
  const RunStats run = RunSkipListInsert(exec, &list, rel);
  EXPECT_EQ(run.outputs, n) << ExecPolicyName(policy);
  EXPECT_EQ(list.size(), n);
  std::set<int64_t> expected;
  for (uint64_t k = 1; k <= n; ++k) expected.insert(static_cast<int64_t>(k));
  ExpectSortedAndComplete(list, expected);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SkipInsertMtTest,
                         ::testing::Values(ExecPolicy::kSequential,
                                           ExecPolicy::kGroupPrefetch,
                                           ExecPolicy::kSoftwarePipelined,
                                           ExecPolicy::kAmac,
                                           ExecPolicy::kCoroutine,
                                           ExecPolicy::kVectorized,
                                           ExecPolicy::kVectorizedAmac,
                                           ExecPolicy::kAdaptive),
                         [](const auto& info) {
                           return ExecPolicyName(info.param);
                         });

}  // namespace
}  // namespace amac
