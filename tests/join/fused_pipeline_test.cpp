// Differential harness for the fused multi-operator pipeline (ISSUE 3):
// `Scan(S) -> Probe(table) -> Aggregate(agg)` — the paper's hash-join probe
// feeding a group-by, fused into ONE engine operation — must produce an
// aggregate table bitwise-identical to the two-phase sequential oracle
// (probe materializing the intermediate, then a separate group-by) across
// every ExecPolicy x {1,2,4} threads x in-flight {1,10,32}.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "groupby/groupby.h"
#include "groupby/groupby_ops.h"
#include "join/join_ops.h"
#include "join/probe_kernels.h"
#include "relation/relation.h"

namespace amac {
namespace {

/// Materializes probe emissions (rid, build payload) in emission order.
struct VectorSink {
  std::vector<Tuple> rows;
  void Emit(uint64_t rid, int64_t payload) {
    rows.push_back(Tuple{static_cast<int64_t>(rid), payload});
  }
};

struct FusedWorkload {
  const char* name;
  uint64_t r_size;
  uint64_t s_size;
  double zr;  ///< 0 = dense unique build keys
  double zs;
  bool early_exit;
  bool rekey;  ///< insert a Map stage re-keying the join output
  uint64_t seed;
};

class FusedPipelineTest : public ::testing::TestWithParam<FusedWorkload> {};

TEST_P(FusedPipelineTest, MatchesTwoPhaseSequentialOracle) {
  const FusedWorkload& w = GetParam();
  const Relation r = w.zr == 0.0
                         ? MakeDenseUniqueRelation(w.r_size, w.seed)
                         : MakeZipfRelation(w.r_size, w.r_size / 2, w.zr,
                                            w.seed);
  const Relation s = w.zs == 0.0
                         ? MakeForeignKeyRelation(w.s_size, w.r_size,
                                                  w.seed + 1)
                         : MakeZipfRelation(w.s_size, w.r_size / 2, w.zs,
                                            w.seed + 1);
  ChainedHashTable table(r.size(), ChainedHashTable::Options{});
  BuildTableUnsync(r, &table);

  const auto rekey = [](const Tuple& t) {
    return Tuple{t.key & 255, t.payload};
  };

  // --- Two-phase sequential oracle: materialize, re-map, aggregate. ---
  VectorSink materialized;
  if (w.early_exit) {
    ProbeBaseline<true>(table, s, 0, s.size(), materialized);
  } else {
    ProbeBaseline<false>(table, s, 0, s.size(), materialized);
  }
  Relation mid(materialized.rows.size());
  for (uint64_t i = 0; i < materialized.rows.size(); ++i) {
    // Probe emits (rid, build payload); the fused ProbeStage emits
    // {build payload, probe payload} — reconstruct the same rows.
    Tuple row{materialized.rows[i].payload,
              s[static_cast<uint64_t>(materialized.rows[i].key)].payload};
    mid[i] = w.rekey ? rekey(row) : row;
  }
  std::set<int64_t> distinct;
  for (const Tuple& t : mid) distinct.insert(t.key);
  const uint64_t group_capacity = distinct.size() + 1;

  AggregateTable oracle(group_capacity, AggregateTable::Options{});
  Executor sequential(
      ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
  const RunStats oracle_stats = RunGroupBy(sequential, mid, &oracle);
  ASSERT_EQ(oracle_stats.inputs, mid.size());

  // --- Fused pipeline across the full policy x thread x width sweep. ---
  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (uint32_t inflight : {1u, 10u, 32u}) {
        const std::string label = std::string(w.name) + " " +
                                  ExecPolicyName(policy) +
                                  " threads=" + std::to_string(threads) +
                                  " inflight=" + std::to_string(inflight);
        AggregateTable agg(group_capacity, AggregateTable::Options{});
        Executor exec(ExecConfig{policy, SchedulerParams{inflight, 2, 0},
                                 threads, 256});
        RunStats run;
        if (w.rekey && w.early_exit) {
          run = exec.Run(Scan(s).Then(Probe<true>(table)).Then(Map(rekey))
                             .Then(Aggregate(agg)));
        } else if (w.rekey) {
          run = exec.Run(Scan(s).Then(Probe<false>(table)).Then(Map(rekey))
                             .Then(Aggregate(agg)));
        } else if (w.early_exit) {
          run = exec.Run(Scan(s).Then(Probe<true>(table))
                             .Then(Aggregate(agg)));
        } else {
          run = exec.Run(Scan(s).Then(Probe<false>(table))
                             .Then(Aggregate(agg)));
        }
        EXPECT_EQ(agg.CountGroups(), oracle.CountGroups()) << label;
        EXPECT_EQ(agg.Checksum(), oracle.Checksum()) << label;
        EXPECT_EQ(run.engine.lookups, s.size()) << label;
        // Aggregation is terminal: nothing reaches the row sink.
        EXPECT_EQ(run.outputs, 0u) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FusedPipelineTest,
    ::testing::Values(
        FusedWorkload{"UniformFkEarlyExit", 4096, 6000, 0.0, 0.0, true,
                      false, 3001},
        FusedWorkload{"UniformFkRekeyed", 4096, 6000, 0.0, 0.0, true, true,
                      3002},
        FusedWorkload{"ZipfDuplicatesFullWalk", 4096, 6000, 0.9, 0.75,
                      false, false, 3003},
        FusedWorkload{"ZipfDuplicatesRekeyedFullWalk", 2048, 5000, 0.9,
                      0.75, false, true, 3004},
        FusedWorkload{"TinyBuildMissHeavy", 128, 5000, 0.0, 0.5, true,
                      false, 3005}),
    [](const auto& info) { return info.param.name; });

// The fused pipeline also matches the deprecated two-phase driver pair
// (RunHashJoin + RunGroupBy) run through one shared Executor — the
// migration path the README documents.
TEST(FusedPipelineTest, SharedExecutorTwoPhaseAgreesWithFused) {
  const Relation r = MakeDenseUniqueRelation(4096, 77);
  const Relation s = MakeForeignKeyRelation(8000, 4096, 78);
  ChainedHashTable table(r.size(), ChainedHashTable::Options{});
  BuildTableUnsync(r, &table);

  Executor exec(ExecConfig{ExecPolicy::kAmac, SchedulerParams{10, 1, 0}, 4,
                           256});

  // Two-phase through the same executor (persistent pool both phases).
  VectorSink materialized;
  ProbeBaseline<true>(table, s, 0, s.size(), materialized);
  Relation mid(materialized.rows.size());
  for (uint64_t i = 0; i < materialized.rows.size(); ++i) {
    mid[i] = Tuple{materialized.rows[i].payload,
                   s[static_cast<uint64_t>(materialized.rows[i].key)]
                       .payload};
  }
  std::set<int64_t> distinct;
  for (const Tuple& t : mid) distinct.insert(t.key);
  AggregateTable two_phase(distinct.size() + 1, AggregateTable::Options{});
  RunGroupBy(exec, mid, &two_phase);

  AggregateTable fused(distinct.size() + 1, AggregateTable::Options{});
  auto pipeline = Scan(s).Then(Probe<true>(table)).Then(Aggregate(fused));
  exec.Run(pipeline);

  EXPECT_EQ(fused.CountGroups(), two_phase.CountGroups());
  EXPECT_EQ(fused.Checksum(), two_phase.Checksum());
}

}  // namespace
}  // namespace amac
