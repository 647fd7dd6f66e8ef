// Figure 11: skip list search and insert cycles per output tuple across
// list sizes (paper: 2^16, 2^21, 2^25 elements).  Search runs the one
// SkipSearchOp stage machine and insert the one SkipInsertOp under every
// policy; Baseline is the kSequential schedule and the oracle the other
// columns must reproduce bitwise (nonzero exit if not): search matches,
// and the built list's (key, payload) contents.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"

namespace amac::bench {
namespace {

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineInt("stages", 24,
                       "provisioned search steps for GP/SPP before bailout");
  args.Define(/*default_scale_log2=*/22);
  args.Parse(argc, argv);

  PrintHeader("Figure 11 (skip list search & insert, Xeon x5670)",
              "Pugh latched skip list; unique keys; AMAC insert keeps the "
              "~0.5KB pred/succ vector per in-flight lookup");

  std::vector<int> sizes = {14, 16, args.flags.GetInt("scale_log2") >= 18
                                        ? static_cast<int>(
                                              args.flags.GetInt("scale_log2"))
                                        : 18};
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  const uint32_t stages = static_cast<uint32_t>(args.flags.GetInt("stages"));

  // The skip list ops carry no vector kernel (the per-lookup pred/succ
  // vector defeats lane-structured state); the VecAMAC column therefore
  // measures the documented scalar-schedule fallback — it should track
  // AMAC, and the column exists to keep the figure set's policy axis
  // uniform with fig05/fig10.
  TablePrinter search_table(
      "Fig 11 search: cycles per output tuple",
      {"elements (log2)", "Baseline", "GP", "SPP", "AMAC", "VecAMAC"});
  TablePrinter insert_table(
      "Fig 11 insert: cycles per output tuple",
      {"elements (log2)", "Baseline", "GP", "SPP", "AMAC", "VecAMAC"});

  OracleCheck oracle;
  for (int log2 : sizes) {
    const uint64_t n = uint64_t{1} << log2;
    const Relation rel = MakeDenseUniqueRelation(n, 29);
    const Relation probe = MakeForeignKeyRelation(n, n, 30);

    // Search: one pre-built list probed by every engine.
    const auto list_owner = BuildSkipList(rel, 31);
    SkipList& list = *list_owner;
    std::vector<std::string> search_row{std::to_string(log2)};
    std::vector<std::string> insert_row{std::to_string(log2)};
    Executor exec(ExecConfig{ExecPolicy::kAmac,
                             SchedulerParams{args.inflight, stages, 0}, 1,
                             0});
    constexpr ExecPolicy kFig11Policies[] = {
        ExecPolicy::kSequential,        ExecPolicy::kGroupPrefetch,
        ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac,
        ExecPolicy::kVectorizedAmac};
    for (ExecPolicy policy : kFig11Policies) {
      exec.set_policy(policy);
      RunStats best;
      for (uint32_t rep = 0; rep < args.reps; ++rep) {
        const RunStats run = RunSkipListSearch(exec, list, probe);
        if (rep == 0 || run.cycles < best.cycles) best = run;
      }
      oracle.Check("search 2^" + std::to_string(log2), SeriesName(policy),
                   best.outputs, best.checksum);
      search_row.push_back(TablePrinter::Fmt(best.CyclesPerInput(), 1));

      // Insert: build a fresh list from scratch per measurement.
      RunStats best_insert;
      for (uint32_t rep = 0; rep < args.reps; ++rep) {
        SkipList fresh(n);
        const RunStats run =
            RunSkipListInsert(exec, &fresh, rel, /*seed=*/100 + rep);
        if (rep == 0) {
          oracle.Check("insert 2^" + std::to_string(log2),
                       SeriesName(policy), fresh.size(), fresh.Checksum());
        }
        if (rep == 0 || run.cycles < best_insert.cycles) {
          best_insert = run;
        }
      }
      insert_row.push_back(
          TablePrinter::Fmt(best_insert.CyclesPerInput(), 1));
    }
    search_table.AddRow(search_row);
    insert_table.AddRow(insert_row);
  }
  search_table.Print();
  insert_table.Print();
  std::printf(
      "expected shape: search - AMAC ~1.9x avg over Baseline, GP/SPP only "
      "~1.15-1.2x (per-level irregularity); insert - gains compressed (CPU-"
      "bound splice): AMAC ~1.4x, GP/SPP ~1.1-1.2x.\n");
  return oracle.ok() ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
