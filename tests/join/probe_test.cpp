// Probe equivalence: on any table and probe relation, the GP/SPP schedules
// of the ProbeOp stage machine and the hand-written AMAC probe must produce
// exactly the baseline loop's join result (same match count, same
// order-independent checksum), for any tuning parameters.  Parameterized
// sweeps cover distributions x engines x M.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/scheduler.h"
#include "join/hash_join.h"
#include "join/join_ops.h"
#include "join/probe_kernels.h"
#include "join/sink.h"
#include "relation/relation.h"

namespace amac {
namespace {

struct ProbeCase {
  const ChainedHashTable& table;
  const Relation& probe;
};

template <bool kEarlyExit>
CountChecksumSink RunEngine(ExecPolicy policy, const ChainedHashTable& table,
                            const Relation& probe, uint32_t m,
                            uint32_t stages) {
  CountChecksumSink sink;
  switch (policy) {
    case ExecPolicy::kSequential:
      ProbeBaseline<kEarlyExit>(table, probe, 0, probe.size(), sink);
      break;
    case ExecPolicy::kAmac:
      ProbeAmac<kEarlyExit>(table, probe, 0, probe.size(), m, sink);
      break;
    default: {
      ProbeOp<kEarlyExit, CountChecksumSink> op(table, probe, sink);
      Run(policy, SchedulerParams{m, stages}, op, probe.size());
      break;
    }
  }
  return sink;
}

class ProbeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ExecPolicy, int, uint32_t>> {};

// Distributions: 0 = uniform unique FK, 1 = zipf 0.75 build keys,
// 2 = zipf 1.0 build keys, 3 = probe misses allowed.
void MakeWorkload(int dist, Relation* build, Relation* probe) {
  const uint64_t n = 6000;
  switch (dist) {
    case 0:
      *build = MakeDenseUniqueRelation(n, 31);
      *probe = MakeForeignKeyRelation(n, n, 32);
      break;
    case 1:
      *build = MakeZipfRelation(n, n, 0.75, 33);
      *probe = MakeZipfRelation(n, n, 0.75, 34);
      break;
    case 2:
      *build = MakeZipfRelation(n, n, 1.0, 35);
      *probe = MakeZipfRelation(n, n, 1.0, 36);
      break;
    case 3:
      *build = MakeDenseUniqueRelation(n / 2, 37);
      *probe = MakeZipfRelation(n, n, 0.0, 38);  // half the probes miss
      break;
    default:
      FAIL();
  }
}

TEST_P(ProbeEquivalenceTest, MatchesBaselineChecksum) {
  const auto [policy, dist, m] = GetParam();
  Relation build, probe;
  MakeWorkload(dist, &build, &probe);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);

  const auto baseline =
      RunEngine<false>(ExecPolicy::kSequential, table, probe, 1, 1);
  for (uint32_t stages : {1u, 2u, 4u}) {
    const auto got = RunEngine<false>(policy, table, probe, m, stages);
    EXPECT_EQ(got.matches(), baseline.matches())
        << ExecPolicyName(policy) << " m=" << m << " stages=" << stages;
    EXPECT_EQ(got.checksum(), baseline.checksum())
        << ExecPolicyName(policy) << " m=" << m << " stages=" << stages;
  }
}

TEST_P(ProbeEquivalenceTest, EarlyExitFindsEveryUniqueMatch) {
  const auto [policy, dist, m] = GetParam();
  if (dist == 1 || dist == 2) return;  // early exit needs unique build keys
  Relation build, probe;
  MakeWorkload(dist, &build, &probe);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);
  const auto baseline = RunEngine<true>(ExecPolicy::kSequential, table, probe, 1, 1);
  const auto got = RunEngine<true>(policy, table, probe, m, 2);
  EXPECT_EQ(got.matches(), baseline.matches());
  EXPECT_EQ(got.checksum(), baseline.checksum());
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByDistributionAndWindow, ProbeEquivalenceTest,
    ::testing::Combine(::testing::Values(ExecPolicy::kGroupPrefetch, ExecPolicy::kSoftwarePipelined,
                                         ExecPolicy::kAmac),
                       ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1u, 2u, 7u, 10u, 16u)),
    [](const auto& info) {
      return std::string(ExecPolicyName(std::get<0>(info.param))) + "_dist" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ProbeTest, EmptyProbeRelation) {
  Relation build = MakeDenseUniqueRelation(100, 41);
  Relation probe(0);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);
  CountChecksumSink sink;
  ProbeAmac<true>(table, probe, 0, 0, 10, sink);
  EXPECT_EQ(sink.matches(), 0u);
  ProbeOp<true, CountChecksumSink> op(table, probe, sink);
  amac::Run(ExecPolicy::kGroupPrefetch, SchedulerParams{5, 2}, op, 0);
  EXPECT_EQ(sink.matches(), 0u);
  amac::Run(ExecPolicy::kSoftwarePipelined, SchedulerParams{6, 2, 3}, op, 0);
  EXPECT_EQ(sink.matches(), 0u);
}

TEST(ProbeTest, SubrangeProbesOnlyThatRange) {
  Relation build = MakeDenseUniqueRelation(512, 42);
  Relation probe = MakeForeignKeyRelation(512, 512, 43);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);
  CountChecksumSink sink;
  ProbeAmac<true>(table, probe, 100, 200, 8, sink);
  EXPECT_EQ(sink.matches(), 100u);
}

TEST(ProbeTest, AmacMaterializesInRidOrderSemantics) {
  // The rid carried through the AMAC state must map each output to its
  // probe tuple even though completions are out of order (§3.1 "Output
  // order").
  const uint64_t n = 2000;
  Relation build = MakeDenseUniqueRelation(n, 44);
  Relation probe = MakeForeignKeyRelation(n, n, 45);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);
  MaterializeSink sink(n);
  ProbeAmac<true>(table, probe, 0, n, 10, sink);
  ASSERT_EQ(sink.size(), n);
  // Each emitted (rid, payload) pair must satisfy payload ==
  // PayloadForKey(probe[rid].key).
  for (uint64_t i = 0; i < sink.size(); ++i) {
    const Tuple& out = sink.data()[i];
    const int64_t key = probe[static_cast<uint64_t>(out.key)].key;
    EXPECT_EQ(out.payload, PayloadForKey(key));
  }
}

TEST(ProbeTest, MultiMatchEmitsEveryDuplicate) {
  ChainedHashTable table(64, ChainedHashTable::Options{});
  for (int64_t p = 0; p < 9; ++p) table.InsertUnsync(Tuple{11, 100 + p});
  Relation probe(1);
  probe[0] = Tuple{11, 0};
  CountChecksumSink base, amac;
  ProbeBaseline<false>(table, probe, 0, 1, base);
  ProbeAmac<false>(table, probe, 0, 1, 4, amac);
  EXPECT_EQ(base.matches(), 9u);
  EXPECT_EQ(amac.matches(), 9u);
  EXPECT_EQ(base.checksum(), amac.checksum());
}

TEST(ProbeTest, EarlyExitStopsAtFirstDuplicate) {
  ChainedHashTable table(64, ChainedHashTable::Options{});
  for (int64_t p = 0; p < 9; ++p) table.InsertUnsync(Tuple{11, 100 + p});
  Relation probe(1);
  probe[0] = Tuple{11, 0};
  CountChecksumSink sink;
  ProbeAmac<true>(table, probe, 0, 1, 4, sink);
  EXPECT_EQ(sink.matches(), 1u);
}

}  // namespace
}  // namespace amac
