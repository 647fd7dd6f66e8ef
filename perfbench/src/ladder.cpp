// The layer ladder: one workload per family driven through every layer,
// each rung timed from outside in TSC cycles per input.
//
//   hand       ProbeAmac / ProbeBaseline (probe family only)
//   engine     amac::Run(policy, params, op, n)
//   executor   Executor::RunOp
//   pipeline   Executor::Run(Pipeline)
//   plan       RunPlan(Executor, Plan)
//   scheduler  Submit(QueryScheduler{1 worker}, Plan) + Wait
//   adaptive   RunPlan on a kAdaptive Executor
//
// Every rung of a family must produce the same (rows, checksum); a
// mismatch fails the run.  One untimed pass runs first so calibrator
// priors, the plan's measure fallback and page faults stay out of the
// timed reps, which interleave the rungs rep by rep.
#include <functional>
#include <memory>

#include "common/cycle_timer.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "groupby/agg_table.h"
#include "groupby/groupby_ops.h"
#include "hashtable/chained_table.h"
#include "join/join_ops.h"
#include "join/probe_kernels.h"
#include "plan/plan.h"
#include "server/query_scheduler.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using amac::ExecPolicy;
using amac::Relation;
using amac::RunStats;
using amac::Tuple;

constexpr uint32_t kInflight = 10;

struct Sizes {
  uint64_t table_keys;
  uint64_t probes;
  uint64_t groupby_rows;
  uint64_t groups;
  uint64_t skip_lookups;
  uint32_t reps;
};

Sizes SizesFor(Size size) {
  if (size == Size::kTiny) return Sizes{1 << 12, 1 << 11, 1 << 11, 1 << 8, 1 << 10, 1};
  return Sizes{1 << 22, 1 << 20, 1 << 20, 1 << 18, 1 << 17, 3};
}

/// Probe matches folded as the pipeline's RowSink folds ProbeStage rows
/// (build payload, probe payload), so every probe rung agrees.
struct ProbeRows {
  const Relation* probes;
  amac::RowSink rows;
  void Emit(uint64_t rid, int64_t payload) {
    rows.Emit(Tuple{payload, (*probes)[rid].payload});
  }
};

/// Lookup hits folded as SkipLookupStage emits them: (key, payload).
struct LookupRows {
  const Relation* keys;
  amac::RowSink rows;
  void Emit(uint64_t rid, int64_t payload) {
    rows.Emit(Tuple{(*keys)[rid].key, payload});
  }
};

struct Result {
  uint64_t cycles = 0;
  uint64_t rows = 0;
  uint64_t checksum = 0;
  amac::EngineStats engine;
};

struct Cell {
  std::string family;
  std::string policy;  ///< amac, seq, adaptive
  std::string rung;
  std::function<Result()> run;
  std::vector<double> cycles_per_input;
  amac::EngineStats engine;
};

template <typename Fn>
Result Timed(Fn&& fn) {
  Result r;
  amac::CycleTimer timer;
  fn();
  r.cycles = timer.Elapsed();
  return r;
}

Result FromRun(uint64_t cycles, const RunStats& run) {
  Result r;
  r.cycles = cycles;
  r.rows = run.outputs;
  r.checksum = run.checksum;
  r.engine = run.engine;
  return r;
}

const char* PolicyName(ExecPolicy p) {
  return p == ExecPolicy::kAmac ? "amac" : "seq";
}

}  // namespace

void RunLadder(const Args& args, const amac::SkipList& list, Report& report) {
  const Sizes z = SizesFor(args.size);
  const amac::SchedulerParams params{kInflight, 1, 0};

  const Relation build = amac::MakeDenseUniqueRelation(z.table_keys, args.seed ^ 0x1a);
  const Relation probes =
      amac::MakeForeignKeyRelation(z.probes, z.table_keys, args.seed ^ 0x2b);
  amac::ChainedHashTable table(z.table_keys, amac::ChainedHashTable::Options{});
  for (const Tuple& t : build) table.InsertUnsync(t);
  const Relation gb_input =
      amac::MakeForeignKeyRelation(z.groupby_rows, z.groups, args.seed ^ 0x3c);
  amac::AggregateTable agg(z.groups, amac::AggregateTable::Options{});
  const Relation skip_keys = amac::MakeZipfRelation(
      z.skip_lookups, 2 * list.size(), 0.0, args.seed ^ 0x4d);

  amac::Executor exec_amac(amac::ExecConfig{ExecPolicy::kAmac, params, 1, 0});
  amac::Executor exec_seq(amac::ExecConfig{ExecPolicy::kSequential, params, 1, 0});
  amac::Executor exec_adaptive(
      amac::ExecConfig{ExecPolicy::kAdaptive, params, 1, 0});
  amac::QuerySchedulerOptions sched_options;
  sched_options.num_workers = 1;
  sched_options.max_inflight_queries = 1;
  amac::QueryScheduler sched(sched_options);

  const amac::Plan probe_plan = amac::Plan::Scan(probes).Lookup(table);
  const amac::Plan groupby_plan = amac::Plan::Scan(gb_input).GroupByInto(&agg);
  const amac::Plan skip_plan = amac::Plan::Scan(skip_keys).LookupSkipList(list);

  // Group-by rungs aggregate into the shared table: clear it before the
  // timed call, read it after.
  auto groupby_result = [&](Result r) {
    r.rows = agg.CountGroups();
    r.checksum = agg.Checksum();
    return r;
  };
  auto plan_cell = [&](amac::Executor* exec, const amac::Plan* plan,
                       bool aggregates) {
    return [exec, plan, aggregates, &agg, groupby_result] {
      if (aggregates) agg.Clear();
      amac::CycleTimer timer;
      const RunStats run = amac::RunPlan(*exec, *plan).run;
      const Result r = FromRun(timer.Elapsed(), run);
      return aggregates ? groupby_result(r) : r;
    };
  };
  auto sched_cell = [&](ExecPolicy policy, const amac::Plan* plan,
                        bool aggregates) {
    return [&sched, plan, policy, params, aggregates, &agg, groupby_result] {
      if (aggregates) agg.Clear();
      amac::QueryOptions options;
      options.policy = policy;
      options.params = params;
      amac::CycleTimer timer;
      const RunStats run = sched.Wait(amac::Submit(sched, *plan, options)).run;
      const Result r = FromRun(timer.Elapsed(), run);
      return aggregates ? groupby_result(r) : r;
    };
  };

  std::vector<Cell> cells;
  auto add = [&cells](std::string family, std::string policy, std::string rung,
                      std::function<Result()> run) {
    cells.push_back(Cell{std::move(family), std::move(policy), std::move(rung),
                         std::move(run), {}, {}});
  };
  for (const ExecPolicy policy : {ExecPolicy::kAmac, ExecPolicy::kSequential}) {
    amac::Executor* exec = policy == ExecPolicy::kAmac ? &exec_amac : &exec_seq;
    const std::string pn = PolicyName(policy);

    // ---- probe ----------------------------------------------------------
    add("probe", pn, "hand", [&, policy] {
      ProbeRows sink{&probes, {}};
      Result r = Timed([&] {
        if (policy == ExecPolicy::kAmac) {
          amac::ProbeAmac<true>(table, probes, 0, probes.size(), kInflight, sink);
        } else {
          amac::ProbeBaseline<true>(table, probes, 0, probes.size(), sink);
        }
      });
      r.rows = sink.rows.rows();
      r.checksum = sink.rows.checksum();
      return r;
    });
    add("probe", pn, "engine", [&, policy] {
      ProbeRows sink{&probes, {}};
      amac::ProbeOp<true, ProbeRows> op(table, probes, sink);
      amac::EngineStats engine;
      Result r = Timed([&] { engine = amac::Run(policy, params, op, probes.size()); });
      r.engine = engine;
      r.rows = sink.rows.rows();
      r.checksum = sink.rows.checksum();
      return r;
    });
    add("probe", pn, "executor", [&, exec] {
      ProbeRows sink{&probes, {}};
      amac::CycleTimer timer;
      const RunStats run = exec->RunOp(probes.size(), [&](uint32_t) {
        return amac::ProbeOp<true, ProbeRows>(table, probes, sink);
      });
      Result r = FromRun(timer.Elapsed(), run);
      r.rows = sink.rows.rows();
      r.checksum = sink.rows.checksum();
      return r;
    });
    add("probe", pn, "pipeline", [&, exec] {
      amac::CycleTimer timer;
      const RunStats run = exec->Run(amac::Scan(probes).Then(amac::Probe(table)));
      return FromRun(timer.Elapsed(), run);
    });
    add("probe", pn, "plan", plan_cell(exec, &probe_plan, false));
    add("probe", pn, "scheduler", sched_cell(policy, &probe_plan, false));

    // ---- group-by -------------------------------------------------------
    add("groupby", pn, "engine", [&, policy] {
      agg.Clear();
      amac::GroupByOp<true> op(agg, gb_input);
      amac::EngineStats engine;
      Result r = Timed([&] { engine = amac::Run(policy, params, op, gb_input.size()); });
      r.engine = engine;
      return groupby_result(r);
    });
    add("groupby", pn, "executor", [&, exec] {
      agg.Clear();
      amac::CycleTimer timer;
      const RunStats run = exec->RunOp(gb_input.size(), [&](uint32_t) {
        return amac::GroupByOp<true>(agg, gb_input);
      });
      return groupby_result(FromRun(timer.Elapsed(), run));
    });
    add("groupby", pn, "pipeline", [&, exec] {
      agg.Clear();
      amac::CycleTimer timer;
      const RunStats run =
          exec->Run(amac::Scan(gb_input).Then(amac::Aggregate(agg)));
      return groupby_result(FromRun(timer.Elapsed(), run));
    });
    add("groupby", pn, "plan", plan_cell(exec, &groupby_plan, true));
    add("groupby", pn, "scheduler", sched_cell(policy, &groupby_plan, true));

    // ---- skiplist -------------------------------------------------------
    add("skiplist", pn, "engine", [&, policy] {
      LookupRows sink{&skip_keys, {}};
      amac::SkipSearchOp<LookupRows> op(list, skip_keys, sink);
      amac::EngineStats engine;
      Result r = Timed([&] { engine = amac::Run(policy, params, op, skip_keys.size()); });
      r.engine = engine;
      r.rows = sink.rows.rows();
      r.checksum = sink.rows.checksum();
      return r;
    });
    add("skiplist", pn, "executor", [&, exec] {
      LookupRows sink{&skip_keys, {}};
      amac::CycleTimer timer;
      const RunStats run = exec->RunOp(skip_keys.size(), [&](uint32_t) {
        return amac::SkipSearchOp<LookupRows>(list, skip_keys, sink);
      });
      Result r = FromRun(timer.Elapsed(), run);
      r.rows = sink.rows.rows();
      r.checksum = sink.rows.checksum();
      return r;
    });
    add("skiplist", pn, "pipeline", [&, exec] {
      amac::CycleTimer timer;
      const RunStats run =
          exec->Run(amac::Scan(skip_keys).Then(amac::LookupSkipList(list)));
      return FromRun(timer.Elapsed(), run);
    });
    add("skiplist", pn, "plan", plan_cell(exec, &skip_plan, false));
    add("skiplist", pn, "scheduler", sched_cell(policy, &skip_plan, false));
  }
  add("probe", "adaptive", "plan", plan_cell(&exec_adaptive, &probe_plan, false));
  add("groupby", "adaptive", "plan", plan_cell(&exec_adaptive, &groupby_plan, true));
  add("skiplist", "adaptive", "plan", plan_cell(&exec_adaptive, &skip_plan, false));

  auto inputs_of = [&](const std::string& family) {
    return static_cast<double>(family == "probe"     ? probes.size()
                               : family == "groupby" ? gb_input.size()
                                                     : skip_keys.size());
  };
  // Rep 0 is the untimed warm-up; every rep checks the checksums.
  std::map<std::string, std::pair<uint64_t, uint64_t>> reference;
  uint64_t checked = 0;
  uint64_t mismatched = 0;
  for (uint32_t rep = 0; rep <= z.reps; ++rep) {
    for (Cell& cell : cells) {
      const Result r = cell.run();
      const auto key = std::make_pair(r.rows, r.checksum);
      auto [it, inserted] = reference.emplace(cell.family, key);
      ++checked;
      if (!inserted && it->second != key) {
        ++mismatched;
        report.Fail("ladder checksum mismatch: " + cell.family + "." +
                    cell.policy + "." + cell.rung);
      }
      if (rep == 0) continue;
      cell.cycles_per_input.push_back(static_cast<double>(r.cycles) /
                                      inputs_of(cell.family));
      cell.engine = r.engine;
    }
  }
  report.Count(checked, mismatched);

  for (const Cell& cell : cells) {
    report.Metric("ladder." + cell.family + "." + cell.policy + "." +
                      cell.rung + "_cycles_per_input",
                  Median(cell.cycles_per_input), "cycles");
    if (cell.policy != "amac" || cell.rung != "engine") continue;
    const amac::EngineStats& e = cell.engine;
    const double lookups = static_cast<double>(std::max<uint64_t>(1, e.lookups));
    const std::string prefix = "engine." + cell.family + ".";
    report.Metric(prefix + "steps_per_input", static_cast<double>(e.steps) / lookups, "count");
    report.Metric(prefix + "parks_per_input", static_cast<double>(e.parks) / lookups, "count");
    report.Metric(prefix + "retries", static_cast<double>(e.retries), "count");
    report.Metric(prefix + "noops", static_cast<double>(e.noops), "count");
    report.Metric(prefix + "vec_fallbacks", static_cast<double>(e.vec_fallbacks), "count");
  }
}

}  // namespace perfbench
