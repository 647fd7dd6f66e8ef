// Pipeline / Executor unit and property tests.
//
// The load-bearing property (ISSUE 3): an OpPipeline wrapping a single
// stage machine must produce IDENTICAL RunStats engine counters to calling
// Run(policy, params, op, n) directly — the Executor adds no scheduling of
// its own on the single-threaded path.  Plus: fused generic stages
// (scan/filter/map), the index-lookup stages of every layer, the fused
// graph-walk source, and persistent-pool behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

#include "bst/bst.h"
#include "btree/btree.h"
#include "btree/btree_ops.h"
#include "core/ops.h"
#include "core/pipeline.h"
#include "graph/csr.h"
#include "graph/graph_ops.h"
#include "groupby/groupby_ops.h"
#include "join/join_ops.h"
#include "join/sink.h"
#include "relation/relation.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"

namespace amac {
namespace {

void ExpectEngineStatsEqual(const EngineStats& a, const EngineStats& b,
                            const std::string& label) {
  EXPECT_EQ(a.lookups, b.lookups) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.parks, b.parks) << label;
  EXPECT_EQ(a.retries, b.retries) << label;
  EXPECT_EQ(a.noops, b.noops) << label;
}

TEST(OpPipelineTest, SingleOpCountersMatchDirectRun) {
  const Relation r = MakeDenseUniqueRelation(2048, 11);
  const Relation s = MakeForeignKeyRelation(3000, 2048, 12);
  ChainedHashTable table(r.size(), ChainedHashTable::Options{});
  BuildTableUnsync(r, &table);

  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t inflight : {1u, 4u, 10u}) {
      for (uint32_t stages : {1u, 3u}) {
        const SchedulerParams params{inflight, stages, 0};
        CountChecksumSink direct_sink;
        ProbeOp<true, CountChecksumSink> direct_op(table, s, direct_sink);
        const EngineStats direct = amac::Run(policy, params, direct_op, s.size());

        CountChecksumSink exec_sink;
        Executor exec(ExecConfig{policy, params, 1, 0});
        const RunStats run = exec.Run(FromOp(s.size(), [&](uint32_t) {
          return ProbeOp<true, CountChecksumSink>(table, s, exec_sink);
        }));

        const std::string label = std::string(ExecPolicyName(policy)) +
                                  " m=" + std::to_string(inflight) +
                                  " n=" + std::to_string(stages);
        ExpectEngineStatsEqual(run.engine, direct, label);
        EXPECT_EQ(exec_sink.matches(), direct_sink.matches()) << label;
        EXPECT_EQ(exec_sink.checksum(), direct_sink.checksum()) << label;
        EXPECT_EQ(run.inputs, s.size()) << label;
        EXPECT_EQ(run.threads, 1u) << label;
      }
    }
  }
}

TEST(OpPipelineTest, SingleOpCountersMatchForRetryingOp) {
  // GroupByOp exercises kRetry (latch conflicts are impossible single
  // threaded, but the counter path must still be identical).
  const Relation input = MakeGroupByInput(500, 3, 21);
  for (ExecPolicy policy : kAllExecPolicies) {
    const SchedulerParams params{8, 2, 0};
    AggregateTable direct_table(600, AggregateTable::Options{});
    GroupByOp<false> direct_op(direct_table, input);
    const EngineStats direct = amac::Run(policy, params, direct_op, input.size());

    AggregateTable exec_table(600, AggregateTable::Options{});
    Executor exec(ExecConfig{policy, params, 1, 0});
    const RunStats run = exec.Run(FromOp(input.size(), [&](uint32_t) {
      return GroupByOp<false>(exec_table, input);
    }));

    ExpectEngineStatsEqual(run.engine, direct, ExecPolicyName(policy));
    EXPECT_EQ(exec_table.Checksum(), direct_table.Checksum())
        << ExecPolicyName(policy);
  }
}

TEST(PipelineTest, ScanOnlyEmitsEveryRow) {
  const Relation rel = MakeDenseUniqueRelation(1000, 31);
  RowSink expected;
  for (const Tuple& t : rel) expected.Emit(t);

  for (ExecPolicy policy : kAllExecPolicies) {
    Executor exec(ExecConfig{policy, SchedulerParams{5, 1, 0}, 1, 0});
    const RunStats run = exec.Run(Scan(rel));
    EXPECT_EQ(run.outputs, rel.size()) << ExecPolicyName(policy);
    EXPECT_EQ(run.checksum, expected.checksum()) << ExecPolicyName(policy);
    EXPECT_EQ(run.engine.lookups, rel.size()) << ExecPolicyName(policy);
  }
}

TEST(PipelineTest, FilterAndMapCompose) {
  const Relation rel = MakeDenseUniqueRelation(2000, 41);
  RowSink expected;
  for (const Tuple& t : rel) {
    if (t.key % 2 == 0) expected.Emit(Tuple{t.key / 2, -t.payload});
  }

  const auto even = [](const Tuple& t) { return t.key % 2 == 0; };
  const auto halve = [](const Tuple& t) {
    return Tuple{t.key / 2, -t.payload};
  };
  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t threads : {1u, 4u}) {
      Executor exec(
          ExecConfig{policy, SchedulerParams{7, 2, 0}, threads, 128});
      const RunStats run = exec.Run(Scan(rel).Then(Filter(even)).Then(
          Map(halve)));
      EXPECT_EQ(run.outputs, expected.rows())
          << ExecPolicyName(policy) << " threads=" << threads;
      EXPECT_EQ(run.checksum, expected.checksum())
          << ExecPolicyName(policy) << " threads=" << threads;
    }
  }
}

template <typename MakeStage>
void ExpectLookupStageMatchesBaseline(const Relation& probe,
                                      const Relation& data,
                                      MakeStage&& make_stage) {
  // Index holds `data` (dense unique keys); every probe key in range hits
  // with payload PayloadForKey(key).
  RowSink expected;
  const int64_t max_key = static_cast<int64_t>(data.size());
  for (const Tuple& t : probe) {
    if (t.key >= 1 && t.key <= max_key) {
      expected.Emit(Tuple{t.key, PayloadForKey(t.key)});
    }
  }
  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t threads : {1u, 2u}) {
      Executor exec(
          ExecConfig{policy, SchedulerParams{6, 3, 0}, threads, 64});
      const RunStats run = exec.Run(Scan(probe).Then(make_stage()));
      EXPECT_EQ(run.outputs, expected.rows())
          << ExecPolicyName(policy) << " threads=" << threads;
      EXPECT_EQ(run.checksum, expected.checksum())
          << ExecPolicyName(policy) << " threads=" << threads;
    }
  }
}

TEST(PipelineTest, BTreeLookupStageMatchesBaseline) {
  const Relation data = MakeDenseUniqueRelation(4096, 51);
  BTree tree(data);
  const Relation probe = MakeZipfRelation(3000, 2 * data.size(), 0.4, 52);
  ExpectLookupStageMatchesBaseline(probe, data,
                                   [&] { return LookupBTree(tree); });
}

TEST(PipelineTest, BstLookupStageMatchesBaseline) {
  const Relation data = MakeDenseUniqueRelation(2048, 61);
  const BinarySearchTree tree = BuildBst(data);
  const Relation probe = MakeZipfRelation(2500, 2 * data.size(), 0.3, 62);
  ExpectLookupStageMatchesBaseline(probe, data,
                                   [&] { return LookupBst(tree); });
}

TEST(PipelineTest, SkipLookupStageMatchesBaseline) {
  const Relation data = MakeDenseUniqueRelation(2048, 71);
  SkipList list(data.size());
  Rng rng(9);
  for (const Tuple& t : data) list.InsertUnsync(t.key, t.payload, rng);
  const Relation probe = MakeZipfRelation(2500, 2 * data.size(), 0.3, 72);
  ExpectLookupStageMatchesBaseline(probe, data,
                                   [&] { return LookupSkipList(list); });
}

TEST(PipelineTest, FusedWalkAggregationMatchesWalkOp) {
  // The fused Walks(...) -> Aggregate pipeline must aggregate exactly the
  // trajectory the engine-op path produces (shared machine, shared RNG).
  CsrGraph::Options graph_options;
  graph_options.num_vertices = 1 << 10;
  graph_options.out_degree = 8;
  graph_options.seed = 81;
  const CsrGraph graph(graph_options);
  const uint64_t walkers = 500;
  const uint32_t hops = 12;
  const uint64_t seed = 82;

  struct RecordingSink {
    std::map<uint64_t, std::pair<uint64_t, int64_t>>* per_vertex;
    void Visit(uint64_t walker, uint64_t vertex) {
      auto& slot = (*per_vertex)[vertex];
      slot.first += 1;
      slot.second += static_cast<int64_t>(walker);
    }
  };
  std::map<uint64_t, std::pair<uint64_t, int64_t>> per_vertex;
  RecordingSink recorder{&per_vertex};
  struct RecordingWalkOp {
    WalkSource source;
    RecordingSink& sink;
    using State = WalkSource::State;
    void Start(State& st, uint64_t idx) { source.Start(st, idx); }
    StepStatus Step(State& st) {
      return source.Step(st, [this](const Tuple& row) {
        sink.Visit(static_cast<uint64_t>(row.payload),
                   static_cast<uint64_t>(row.key));
      });
    }
  };
  RecordingWalkOp op{WalkSource(graph, walkers, hops, seed), recorder};
  const EngineStats direct = amac::Run(ExecPolicy::kAmac, SchedulerParams{8, 1, 0},
                                 op, walkers);
  ASSERT_EQ(direct.lookups, walkers);
  uint64_t total_visits = 0;
  for (const auto& [vertex, slot] : per_vertex) total_visits += slot.first;

  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t threads : {1u, 2u}) {
      AggregateTable agg(per_vertex.size() + 1, AggregateTable::Options{});
      Executor exec(
          ExecConfig{policy, SchedulerParams{8, 2, 0}, threads, 64});
      const RunStats run =
          exec.Run(Walks(graph, walkers, hops, seed).Then(Aggregate(agg)));
      EXPECT_EQ(run.outputs, 0u) << ExecPolicyName(policy);
      EXPECT_EQ(agg.CountGroups(), per_vertex.size())
          << ExecPolicyName(policy) << " threads=" << threads;
      uint64_t fused_visits = 0;
      bool mismatch = false;
      agg.ForEachGroup([&](const GroupNode& g) {
        fused_visits += static_cast<uint64_t>(g.count);
        const auto it = per_vertex.find(static_cast<uint64_t>(g.key));
        if (it == per_vertex.end() ||
            it->second.first != static_cast<uint64_t>(g.count) ||
            it->second.second != g.sum) {
          mismatch = true;
        }
      });
      EXPECT_EQ(fused_visits, total_visits)
          << ExecPolicyName(policy) << " threads=" << threads;
      EXPECT_FALSE(mismatch)
          << ExecPolicyName(policy) << " threads=" << threads;
    }
  }
}

TEST(ExecutorTest, PersistentPoolReusesWorkers) {
  // The pool's workers survive across Run() calls: the set of thread ids
  // observed by consecutive runs is identical.
  Executor exec(ExecConfig{ExecPolicy::kAmac, SchedulerParams{4, 1, 0}, 4,
                           0});
  auto collect = [&] {
    std::mutex mu;
    std::set<std::thread::id> ids;
    exec.pool().Run([&](uint32_t) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids;
  };
  const auto first = collect();
  const auto second = collect();
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(first, second);
}

TEST(ExecutorTest, RepeatedRunsAgreeAndReportDispatchTime) {
  const Relation r = MakeDenseUniqueRelation(4096, 91);
  const Relation s = MakeForeignKeyRelation(8000, 4096, 92);
  ChainedHashTable table(r.size(), ChainedHashTable::Options{});
  BuildTableUnsync(r, &table);

  Executor exec(ExecConfig{ExecPolicy::kAmac, SchedulerParams{10, 1, 0}, 4,
                           256});
  uint64_t first_checksum = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<CountChecksumSink> sinks(exec.num_threads());
    const RunStats run = exec.Run(FromOp(s.size(), [&](uint32_t tid) {
      return ProbeOp<true, CountChecksumSink>(table, s, sinks[tid]);
    }));
    CountChecksumSink total;
    for (const auto& sink : sinks) total.Merge(sink);
    if (rep == 0) {
      first_checksum = total.checksum();
    } else {
      EXPECT_EQ(total.checksum(), first_checksum) << "rep " << rep;
    }
    EXPECT_EQ(run.engine.lookups, s.size());
    EXPECT_GT(run.morsels, 0u);
    EXPECT_EQ(run.threads, 4u);
    // The dispatch span covers the measured region by construction.
    EXPECT_GE(run.dispatch_seconds, run.seconds);
  }
}

TEST(ExecutorTest, ZeroThreadConfigDegradesToOne) {
  Executor exec(ExecConfig{ExecPolicy::kSequential, SchedulerParams{}, 0,
                           0});
  EXPECT_EQ(exec.num_threads(), 1u);
  const Relation rel = MakeDenseUniqueRelation(64, 3);
  const RunStats run = exec.Run(Scan(rel));
  EXPECT_EQ(run.outputs, rel.size());
}

TEST(RunStatsTest, RatesAreZeroOnEmptyRuns) {
  const RunStats empty;
  EXPECT_EQ(empty.CyclesPerInput(), 0);
  EXPECT_EQ(empty.Throughput(), 0);

  Executor exec(ExecConfig{ExecPolicy::kAmac, SchedulerParams{4, 1, 0}, 1,
                           0});
  const Relation rel;  // empty
  const RunStats run = exec.Run(Scan(rel));
  EXPECT_EQ(run.inputs, 0u);
  EXPECT_EQ(run.outputs, 0u);
  EXPECT_EQ(run.CyclesPerInput(), 0);
}

}  // namespace
}  // namespace amac
