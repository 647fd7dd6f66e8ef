// Skip list operation drivers: search and bulk insert through the unified
// runtime under any execution policy, single- or multi-threaded, plus the
// search stage machine (SkipSearchOp / SkipLookupStage) they run.
#pragma once

#include <cstdint>

#include "core/engine.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "relation/relation.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_search.h"

namespace amac {

/// Probe `list` with every key of `probe` under the executor's policy
/// (generic SkipSearchOp through the unified runtime; morsel-driven when
/// the executor is multi-threaded).  The returned RunStats carry
/// inputs = |probe|, outputs = matches, and the match checksum.
RunStats RunSkipListSearch(Executor& exec, const SkipList& list,
                           const Relation& probe);

/// Insert every tuple of `input` into `list` (which is typically empty:
/// the paper's insert workload "builds a skip list from scratch") under
/// the executor's policy: the staged SkipInsertOp (skiplist_write_ops.h)
/// through the unified runtime, morsel-driven when multi-threaded.  Tower
/// heights come from an Rng seeded `seed` (plus the slot id on
/// multi-threaded runs).  Duplicate keys are skipped.  The returned
/// RunStats carry inputs = |input| and outputs = new elements.
RunStats RunSkipListInsert(Executor& exec, SkipList* list,
                           const Relation& input, uint64_t seed = 7);

/// Skip list search as a generic-engine operation: one Step() is one
/// candidate-node visit (SkipSearchStep), so every ExecPolicy in
/// core/scheduler.h — and the morsel-driven parallel driver — can run
/// searches without skiplist-specific scheduling code.
template <typename Sink>
class SkipSearchOp {
 public:
  struct State {
    SkipCursor cursor;
    int64_t key;
    uint64_t rid;
  };

  SkipSearchOp(const SkipList& list, const Relation& probe, Sink& sink)
      : list_(list), probe_(probe), sink_(sink) {}

  void Start(State& st, uint64_t idx) {
    st.cursor = SkipStartCursor(list_);
    st.key = probe_[idx].key;
    st.rid = idx;
  }

  StepStatus Step(State& st) {
    return SkipSearchStep(st.cursor, st.key, st.rid, sink_)
               ? StepStatus::kDone
               : StepStatus::kParked;
  }

 private:
  const SkipList& list_;
  const Relation& probe_;
  Sink& sink_;
};

/// Pipeline stage (core/pipeline.h): skip list point lookup on the input
/// row's key; a hit emits Tuple{input key, node payload}.
class SkipLookupStage {
 public:
  struct State {
    SkipCursor cursor;
    int64_t key;
  };

  explicit SkipLookupStage(const SkipList& list) : list_(&list) {}

  void Start(State& st, const Tuple& in) {
    st.key = in.key;
    st.cursor = SkipStartCursor(*list_);
  }

  template <typename EmitFn>
  StepStatus Step(State& st, EmitFn&& emit) {
    detail::KeyedEmitSink<EmitFn> sink{emit, st.key};
    return SkipSearchStep(st.cursor, st.key, 0, sink) ? StepStatus::kDone
                                                      : StepStatus::kParked;
  }

 private:
  const SkipList* list_;
};

inline SkipLookupStage LookupSkipList(const SkipList& list) {
  return SkipLookupStage(list);
}

}  // namespace amac
