#include "groupby/groupby.h"

#include "groupby/groupby_ops.h"

namespace amac {

RunStats RunGroupBy(Executor& exec, const Relation& input,
                    AggregateTable* table) {
  RunStats run;
  if (exec.num_threads() <= 1) {
    // Only one writer: the latches need no atomics.
    run = exec.Run(FromOp(input.size(), [&](uint32_t) {
      return GroupByOp<false>(*table, input);
    }));
  } else {
    run = exec.Run(FromOp(input.size(), [&](uint32_t) {
      return GroupByOp<true>(*table, input);
    }));
  }
  run.outputs = table->CountGroups();
  run.checksum = table->Checksum();
  return run;
}

}  // namespace amac
