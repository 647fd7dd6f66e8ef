// Figure 9: group-by cycles per output tuple for a small (2^17-class) and a
// big (2^27-class) input relation, under uniform, Zipf(0.5) and Zipf(1)
// key distributions, with all six aggregate functions applied per match.
// Every column runs the one GroupByOp stage machine; Baseline is its
// kSequential schedule and the oracle the other columns must reproduce
// bitwise (nonzero exit if not).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/pipeline.h"
#include "groupby/groupby.h"

namespace amac::bench {
namespace {

Relation MakeInput(uint64_t tuples, double theta, uint64_t seed) {
  if (theta == 0.0) {
    // Paper: uniform keys, each appearing exactly three times.
    return MakeGroupByInput(tuples / 3, 3, seed);
  }
  return MakeZipfRelation(tuples, tuples / 3, theta, seed);
}

void RunOne(const char* title, uint64_t tuples, const BenchArgs& args,
            OracleCheck* oracle) {
  const double kThetas[] = {0.0, 0.5, 1.0};
  TablePrinter table(std::string(title) + " - cycles per input tuple",
                     {"skew", "Baseline", "GP", "SPP", "AMAC", "groups"});
  Executor exec(ExecConfig{ExecPolicy::kAmac,
                           SchedulerParams{args.inflight, 1, 0}, 1, 0});
  for (double theta : kThetas) {
    const Relation input =
        MakeInput(tuples, theta, static_cast<uint64_t>(19 + theta * 10));
    std::vector<std::string> row{
        theta == 0.0 ? "uniform" : ("Zipf(" + TablePrinter::Fmt(theta, 1) +
                                    ")")};
    uint64_t groups = 0;
    for (ExecPolicy policy : kPaperPolicies) {
      exec.set_policy(policy);
      RunStats best;
      for (uint32_t rep = 0; rep < args.reps; ++rep) {
        AggregateTable agg(tuples / 3 * 2, AggregateTable::Options{});
        const RunStats run = RunGroupBy(exec, input, &agg);
        if (rep == 0 || run.cycles < best.cycles) best = run;
      }
      oracle->Check(std::string(title) + " " + row[0], SeriesName(policy),
                    best.outputs, best.checksum);
      groups = best.outputs;
      row.push_back(TablePrinter::Fmt(best.CyclesPerInput(), 1));
    }
    row.push_back(TablePrinter::Fmt(groups));
    table.AddRow(row);
  }
  table.Print();
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineInt("small_scale_log2", 13,
                       "log2 input size of the small case (paper: 17)");
  args.Define(/*default_scale_log2=*/23);
  args.Parse(argc, argv);

  PrintHeader("Figure 9 (group-by, Xeon x5670)",
              "six aggregates (count/sum/min/max/avg/sumsq) applied per "
              "match; latch per bucket");

  OracleCheck oracle;
  RunOne("Fig 9 small input (2^17-class)",
         uint64_t{1} << args.flags.GetInt("small_scale_log2"), args, &oracle);
  RunOne("Fig 9 big input (2^27-class)", args.scale, args, &oracle);
  std::printf(
      "expected shape: small+skewed - GP/SPP at or below Baseline, AMAC "
      "~1.6x better; big - all prefetchers win ~2-2.6x, AMAC best.\n");
  return oracle.ok() ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
