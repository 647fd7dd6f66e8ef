// Index-join scenario (paper §4): probe a binary search tree index once per
// outer tuple — "resembling a join scenario with using an index".  Shows
// how the same AMAC pattern applies beyond hash tables, and how the gain
// grows with index depth: one BstSearchOp stage machine, run once with the
// sequential schedule and once with AMAC.
#include <cstdio>

#include "bst/bst.h"
#include "common/cycle_timer.h"
#include "common/flags.h"
#include "core/ops.h"
#include "core/scheduler.h"
#include "join/sink.h"
#include "relation/relation.h"

int main(int argc, char** argv) {
  using namespace amac;

  Flags flags;
  flags.DefineInt("scale_log2", 20, "index size (log2 nodes)");
  flags.DefineInt("inflight", 10, "in-flight descents");
  flags.Parse(argc, argv);
  const uint64_t n = uint64_t{1} << flags.GetInt("scale_log2");
  const uint32_t m = static_cast<uint32_t>(flags.GetInt("inflight"));

  const Relation rows = MakeDenseUniqueRelation(n, 5);
  const BinarySearchTree index = BuildBst(rows);
  const BstStats shape = index.ComputeStats();
  std::printf("index: %llu nodes, height %llu, avg depth %.1f\n",
              static_cast<unsigned long long>(shape.num_nodes),
              static_cast<unsigned long long>(shape.height),
              shape.avg_depth);

  const Relation outer = MakeForeignKeyRelation(n, n, 6);

  // Times one schedule of the lookup op over every outer tuple.
  auto timed = [&](ExecPolicy policy, CountChecksumSink& sink) {
    BstSearchOp<CountChecksumSink> op(index, outer, sink);
    CycleTimer timer;
    Run(policy, SchedulerParams{m, 1}, op, outer.size());
    return timer.Elapsed();
  };
  CountChecksumSink base_sink;
  const uint64_t base_cycles = timed(ExecPolicy::kSequential, base_sink);
  CountChecksumSink amac_sink;
  const uint64_t amac_cycles = timed(ExecPolicy::kAmac, amac_sink);

  std::printf("baseline: %.1f cycles/lookup, %llu matches\n",
              static_cast<double>(base_cycles) / outer.size(),
              static_cast<unsigned long long>(base_sink.matches()));
  std::printf("AMAC(M=%u): %.1f cycles/lookup, %llu matches, speedup %.2fx\n",
              m, static_cast<double>(amac_cycles) / outer.size(),
              static_cast<unsigned long long>(amac_sink.matches()),
              static_cast<double>(base_cycles) /
                  static_cast<double>(amac_cycles));
  if (base_sink.checksum() != amac_sink.checksum()) {
    std::fprintf(stderr, "checksum mismatch!\n");
    return 1;
  }
  return 0;
}
