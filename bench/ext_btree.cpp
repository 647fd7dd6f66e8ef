// Extension (paper §2.1.2 context): the engines on a *balanced, wide-node*
// index — a bulk-loaded B+-tree with 4-cache-line nodes.  Every lookup
// performs exactly `height` dependent node visits, so this is the fully
// regular regime where GP/SPP were designed to shine; contrasted with
// fig10_bst it isolates how much of AMAC's edge comes from irregularity
// and how much from schedule efficiency.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "btree/btree.h"
#include "btree/btree_ops.h"
#include "common/cycle_timer.h"
#include "common/table_printer.h"
#include "core/scheduler.h"
#include "join/sink.h"

namespace amac::bench {
namespace {

/// Min-cycles run of one policy over the one BTreeSearchOp stage machine;
/// outputs/checksum are the matches (kSequential is the no-prefetch
/// Baseline column and the oracle).
RunStats Measure(const BTree& tree, const Relation& probe, ExecPolicy policy,
                 uint32_t m, uint32_t reps) {
  const SchedulerParams params{m, tree.height()};
  RunStats best;
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    CountChecksumSink sink;
    BTreeSearchOp<CountChecksumSink> op(tree, probe, sink);
    CycleTimer timer;
    amac::Run(policy, params, op, probe.size());
    RunStats run;
    run.cycles = timer.Elapsed();
    run.outputs = sink.matches();
    run.checksum = sink.checksum();
    if (rep == 0 || run.cycles < best.cycles) best = run;
  }
  return best;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.Define(/*default_scale_log2=*/23);
  args.Parse(argc, argv);

  PrintHeader("Extension: B+-tree index search (regular traversals)",
              "bulk-loaded, 256B nodes, exactly height() accesses per "
              "lookup; compare against fig10_bst");

  OracleCheck oracle;
  TablePrinter table("B+-tree search: cycles per lookup",
                     {"keys (log2)", "height", "Baseline", "GP", "SPP",
                      "AMAC"});
  for (int log2 = 17; log2 <= args.flags.GetInt("scale_log2"); log2 += 3) {
    const uint64_t n = uint64_t{1} << log2;
    const Relation rel = MakeDenseUniqueRelation(n, 211);
    const BTree tree(rel);
    const Relation probe = MakeForeignKeyRelation(n, n, 212);
    std::vector<std::string> row{std::to_string(log2),
                                 std::to_string(tree.height())};
    for (ExecPolicy policy : kPaperPolicies) {
      const RunStats run =
          Measure(tree, probe, policy, args.inflight, args.reps);
      oracle.Check("btree 2^" + std::to_string(log2), SeriesName(policy),
                   run.outputs, run.checksum);
      row.push_back(TablePrinter::Fmt(
          static_cast<double>(run.cycles) / static_cast<double>(n), 1));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "reading: with fully regular traversals GP/SPP recover much of "
      "AMAC's fig10 advantage (no wasted stages, no bailouts) — evidence "
      "that AMAC's edge on the BST is its irregularity handling, as the "
      "paper argues.\n");
  return oracle.ok() ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
