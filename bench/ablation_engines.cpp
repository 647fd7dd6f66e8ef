// Ablation (paper §6 "AMAC automation"): what does generalizing AMAC cost?
// Compares, on the same workloads:
//   * the paper's hand-written probe loops (Listing 1 AMAC and the
//     no-prefetch Baseline, join/probe_kernels.h),
//   * the one stage-machine op per structure dispatched through the unified
//     runtime (core/scheduler.h) — Run(policy, params, op, n) — under the
//     sequential, GP, AMAC and coroutine schedules.  The coroutine column
//     wraps the same op in a coroutine frame mechanically, pricing the
//     fully-automated path the paper anticipates ("user-land threads'
//     state maintenance and space overhead").
// Every cell must reproduce its row's first cell bitwise (nonzero exit if
// not).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bst/bst.h"
#include "common/cycle_timer.h"
#include "common/table_printer.h"
#include "core/ops.h"
#include "core/scheduler.h"
#include "join/join_ops.h"
#include "join/probe_kernels.h"
#include "join/sink.h"

namespace amac::bench {
namespace {

/// Min cycles over `reps` runs of `fn(sink)`; the last run's sink is
/// checked against the row's oracle under `column`.
template <typename Fn>
uint64_t MinCycles(uint32_t reps, OracleCheck* oracle, const std::string& row,
                   const char* column, Fn&& fn) {
  uint64_t best = UINT64_MAX;
  CountChecksumSink sink;
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    sink = CountChecksumSink{};
    CycleTimer timer;
    fn(sink);
    best = std::min(best, timer.Elapsed());
  }
  oracle->Check(row, column, sink.matches(), sink.checksum());
  return best;
}

constexpr ExecPolicy kEnginePolicies[] = {
    ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch, ExecPolicy::kAmac,
    ExecPolicy::kCoroutine};

int Run(int argc, char** argv) {
  BenchArgs args;
  args.Define(/*default_scale_log2=*/22);
  args.Parse(argc, argv);
  const uint32_t m = args.inflight;

  PrintHeader("Ablation: hand-written AMAC vs the generic engine",
              "paper §6 framework discussion; join probe and BST search; "
              "engine columns dispatch one op through Run(policy, ...)");

  OracleCheck oracle;
  TablePrinter table("engine-implementation ablation: cycles per lookup",
                     {"workload", "hand Baseline", "hand AMAC",
                      "engine Sequential", "engine GP", "engine AMAC",
                      "engine coro"});

  // Hash join probe, uniform and skewed, first-match semantics (paper
  // Listing 1).  GP stages = 1 for hash chains.
  for (double z : {0.0, 1.0}) {
    const PreparedJoin prepared = PrepareJoin(args.scale, args.scale, z, z, 51);
    const Relation& s = prepared.s;
    const ChainedHashTable& ht = *prepared.table;
    const double n = static_cast<double>(s.size());
    const std::string label = "join probe z=" + TablePrinter::Fmt(z, 1);
    constexpr bool kEarly = true;
    std::vector<std::string> row{label};
    row.push_back(TablePrinter::Fmt(
        MinCycles(args.reps, &oracle, label, "hand Baseline",
                  [&](CountChecksumSink& sink) {
                    ProbeBaseline<kEarly>(ht, s, 0, s.size(), sink);
                  }) / n, 1));
    row.push_back(TablePrinter::Fmt(
        MinCycles(args.reps, &oracle, label, "hand AMAC",
                  [&](CountChecksumSink& sink) {
                    ProbeAmac<kEarly>(ht, s, 0, s.size(), m, sink);
                  }) / n, 1));
    for (ExecPolicy policy : kEnginePolicies) {
      row.push_back(TablePrinter::Fmt(
          MinCycles(args.reps, &oracle, label, ExecPolicyName(policy),
                    [&](CountChecksumSink& sink) {
                      ProbeOp<kEarly, CountChecksumSink> op(ht, s, sink);
                      amac::Run(policy, SchedulerParams{m, 1}, op, s.size());
                    }) / n, 1));
    }
    table.AddRow(row);
  }

  {  // BST search: no hand-written kernel, engine columns only.
    const uint64_t n = args.scale;  // must exceed the LLC
    const Relation rel = MakeDenseUniqueRelation(n, 52);
    const BinarySearchTree tree = BuildBst(rel);
    const Relation probe = MakeForeignKeyRelation(n, n, 53);
    const double dn = static_cast<double>(n);
    std::vector<std::string> row{"BST search", "-", "-"};
    for (ExecPolicy policy : kEnginePolicies) {
      // GP provisions 24 descent stages (~avg depth); the others ignore it.
      const SchedulerParams params{m, 24};
      row.push_back(TablePrinter::Fmt(
          MinCycles(args.reps, &oracle, "BST search", ExecPolicyName(policy),
                    [&](CountChecksumSink& sink) {
                      BstSearchOp<CountChecksumSink> op(tree, probe, sink);
                      amac::Run(policy, params, op, n);
                    }) / dn, 1));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "reading: the engine's AMAC should sit within ~10%% of hand-written "
      "AMAC; the coroutine column carries frame-allocation overhead per "
      "lookup (the cost §6 anticipates) but stays well ahead of the "
      "baseline.\n");
  return oracle.ok() ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
