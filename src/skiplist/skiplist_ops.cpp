#include "skiplist/skiplist_ops.h"

#include <vector>

#include "epoch/epoch.h"
#include "join/sink.h"
#include "skiplist/skiplist_write_ops.h"

namespace amac {

RunStats RunSkipListSearch(Executor& exec, const SkipList& list,
                           const Relation& probe) {
  std::vector<CountChecksumSink> sinks(exec.num_threads());
  RunStats run = exec.Run(FromOp(probe.size(), [&](uint32_t tid) {
    return SkipSearchOp<CountChecksumSink>(list, probe, sinks[tid]);
  }));
  CountChecksumSink total;
  for (const auto& sink : sinks) total.Merge(sink);
  run.outputs = total.matches();
  run.checksum = total.checksum();
  return run;
}

RunStats RunSkipListInsert(Executor& exec, SkipList* list,
                           const Relation& input, uint64_t seed) {
  std::vector<int64_t> keys(input.size());
  std::vector<int64_t> payloads(input.size());
  for (uint64_t i = 0; i < input.size(); ++i) {
    keys[i] = input[i].key;
    payloads[i] = input[i].payload;
  }
  // Inserts retire nothing; the manager only backs each op's epoch guard.
  // Every op is gone once Run returns, before the manager is destroyed.
  EpochManager epochs;
  const uint64_t before = list->size();
  RunStats run;
  if (exec.num_threads() <= 1) {
    // Only one writer: the latches need no atomics.
    run = exec.Run(FromOp(input.size(), [&](uint32_t) {
      return BasicSkipInsertOp<false>(*list, &epochs, keys.data(),
                                      payloads.data(), seed);
    }));
  } else {
    run = exec.Run(FromOp(input.size(), [&](uint32_t tid) {
      return SkipInsertOp(*list, &epochs, keys.data(), payloads.data(),
                          seed + tid);
    }));
  }
  run.outputs = list->size() - before;
  return run;
}

}  // namespace amac
