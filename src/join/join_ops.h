// Hash join build and probe as unified-runtime operations.
//
// These are the join's only traversals: the join driver (hash_join.cpp),
// the Pipeline/Plan layers and the benches feed them to Run(ExecPolicy,
// ...) and the morsel-driven parallel driver, so every schedule
// (sequential, GP, SPP, AMAC, coroutine, vectorized) and any thread count
// run them without join-specific scheduling code.  The hand-written
// Baseline/AMAC probe loops in probe_kernels.h remain only as the paper's
// Listing 1 reference the runtime is priced against.
#pragma once

#include <cstdint>

#include "common/prefetch.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "hashtable/chained_table.h"
#include "hashtable/vec_probe.h"
#include "relation/relation.h"

namespace amac {

/// Pipeline stage (core/pipeline.h): chained-table probe fed by upstream
/// rows.  The input row's key probes the table; every match emits
/// Tuple{build payload, input payload} downstream — the probe-side value is
/// carried through the join instead of materializing an intermediate, so a
/// hit can flow straight into an AggregateStage insert.  Start hashes and
/// prefetches the bucket header; each Step visits one chain node (emit
/// matches, prefetch the next node).  With kEarlyExit the walk stops at the
/// first match (unique build keys).
template <bool kEarlyExit>
class ProbeStage {
 public:
  struct State {
    const BucketNode* ptr;
    int64_t key;
    int64_t carry;
  };

  explicit ProbeStage(const ChainedHashTable& table) : table_(&table) {}

  void Start(State& st, const Tuple& in) {
    st.key = in.key;
    st.carry = in.payload;
    st.ptr = table_->BucketForKey(st.key);
    Prefetch(st.ptr);
  }

  template <typename Emit>
  StepStatus Step(State& st, Emit&& emit) {
    const BucketNode* node = st.ptr;
    for (uint32_t i = 0; i < node->count; ++i) {
      if (node->tuples[i].key == st.key) {
        emit(Tuple{node->tuples[i].payload, st.carry});
        if constexpr (kEarlyExit) return StepStatus::kDone;
      }
    }
    if (node->next == nullptr) return StepStatus::kDone;
    Prefetch(node->next);
    st.ptr = node->next;
    return StepStatus::kParked;
  }

 private:
  const ChainedHashTable* table_;
};

template <bool kEarlyExit = true>
ProbeStage<kEarlyExit> Probe(const ChainedHashTable& table) {
  return ProbeStage<kEarlyExit>(table);
}

/// The same probe as an engine Operation: a thin adapter over ProbeStage
/// carrying the probe input index, so matches reach a join sink as
/// (rid, build payload).  One walk implementation serves both paths.
template <bool kEarlyExit, typename Sink>
class ProbeOp {
 public:
  using State = typename ProbeStage<kEarlyExit>::State;

  ProbeOp(const ChainedHashTable& table, const Relation& probe, Sink& sink)
      : stage_(table), table_(&table), probe_(probe), sink_(sink) {}

  void Start(State& st, uint64_t idx) {
    stage_.Start(st, Tuple{probe_[idx].key, static_cast<int64_t>(idx)});
  }

  StepStatus Step(State& st) {
    return stage_.Step(st, [this](const Tuple& row) {
      sink_.Emit(static_cast<uint64_t>(row.payload), row.key);
    });
  }

  // Vector interface (core/vector_engine.h): up to 8 chain walks per slot.
  // StartVec hashes all lanes through the 8-wide Mix64 (common/simd.h);
  // each StepVec advances every active lane one node via the gather kernel
  // (hashtable/vec_probe.h).  Emissions are identical to the scalar path:
  // (rid, build payload), chain order per lane.
  static constexpr uint32_t kVecLanes = kSimdLanes;
  struct VecState {
    const BucketNode* ptr[kSimdLanes];
    int64_t key[kSimdLanes];
    uint64_t rid[kSimdLanes];
    uint32_t active;
  };

  void StartVec(VecState& st, uint64_t base_idx, uint32_t n) {
    AMAC_DCHECK(n >= 1 && n <= kSimdLanes);
    int64_t keys[kSimdLanes];
    for (uint32_t i = 0; i < n; ++i) keys[i] = probe_[base_idx + i].key;
    for (uint32_t i = n; i < kSimdLanes; ++i) keys[i] = keys[n - 1];
    uint64_t bucket[kSimdLanes];
    HashToBucket8(table_->hash_kind(), keys, table_->bucket_mask(), bucket);
    const BucketNode* buckets = table_->buckets();
    for (uint32_t i = 0; i < n; ++i) {
      st.key[i] = keys[i];
      st.rid[i] = base_idx + i;
      st.ptr[i] = buckets + bucket[i];
      Prefetch(st.ptr[i]);
    }
    st.active = n == kSimdLanes ? 0xffu : (1u << n) - 1;
  }

  void RefillLane(VecState& st, uint32_t lane, uint64_t idx) {
    st.key[lane] = probe_[idx].key;
    st.rid[lane] = idx;
    st.ptr[lane] = table_->BucketForKey(st.key[lane]);
    Prefetch(st.ptr[lane]);
    st.active |= 1u << lane;
  }

  uint32_t StepVec(VecState& st) {
    st.active = VecChainStep<kEarlyExit>(
        st.ptr, st.key, st.active,
        [this, &st](uint32_t lane, int64_t payload) {
          sink_.Emit(st.rid[lane], payload);
        },
        /*allow_simd=*/!table_->has_sentinel_key());
    return st.active;
  }

 private:
  ProbeStage<kEarlyExit> stage_;
  const ChainedHashTable* table_;
  const Relation& probe_;
  Sink& sink_;
};

/// Build-side insert with the production O(1) header-eviction discipline:
/// Start hashes and prefetches the bucket header with write intent; Step
/// performs the insert.  With kSync the latch is try-acquired — a held
/// latch parks the insert with kRetry and the scheduler tours the other
/// in-flight slots (§3.2's coarse-grained latch spin).
///
/// `ids` (optional) indirects input index -> tuple index, so the
/// partitioned parallel build can run a thread's owned-tuple list through
/// any policy without copying tuples.  Because the insert is a single Step,
/// every schedule (including the coroutine interleaver) completes inserts
/// in input order, which makes the partitioned build's per-bucket chains
/// bitwise-identical to a sequential build.
template <bool kSync>
class BuildOp {
 public:
  struct State {
    BucketNode* head;
    Tuple tuple;
  };

  BuildOp(ChainedHashTable& table, const Relation& build,
          const uint64_t* ids = nullptr)
      : table_(table), build_(build), ids_(ids) {}

  void Start(State& st, uint64_t idx) {
    st.tuple = build_[ids_ != nullptr ? ids_[idx] : idx];
    st.head = table_.BucketForKey(st.tuple.key);
    PrefetchWrite(st.head);
  }

  StepStatus Step(State& st) {
    if constexpr (kSync) {
      if (!st.head->latch.TryAcquire()) return StepStatus::kRetry;
      table_.InsertInto(st.head, st.tuple);
      st.head->latch.Release();
    } else {
      table_.InsertInto(st.head, st.tuple);
    }
    return StepStatus::kDone;
  }

 private:
  ChainedHashTable& table_;
  const Relation& build_;
  const uint64_t* ids_;
};

}  // namespace amac
