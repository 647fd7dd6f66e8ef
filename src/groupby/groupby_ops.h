// Group-by aggregation as a generic-engine operation (core/scheduler.h):
// the one group-by traversal every policy, layer and bench runs.
//
// The stage machine is the paper's AMAC group-by (Table 1 column 3): a
// try-latch stage that parks with kRetry on conflict, then a latched chain
// walk with one node visit per Step — the §3.1 "extra intermediate stage"
// that keeps a parked lookup from re-acquiring its own latch.  With kSync
// = true the same op runs under the morsel-driven parallel driver against
// a shared AggregateTable; aggregation is order-independent, so any policy
// × thread count combination produces an identical table.
// GroupByBaseline at the end is the plain loop the tests compare against.
#pragma once

#include <cstdint>

#include "common/prefetch.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "groupby/agg_table.h"
#include "groupby/vec_groupby.h"
#include "relation/relation.h"

namespace amac {

namespace detail {

/// Walk + update/append in one go, for GroupByBaseline.  The caller is
/// the only writer of the table.
inline void UpdateOrInsert(AggregateTable& table, GroupNode* head,
                           int64_t key, int64_t payload) {
  if (!head->used) {
    head->used = 1;
    head->key = key;
    head->count = 0;
    head->Accumulate(payload);
    return;
  }
  GroupNode* node = head;
  while (true) {
    if (node->key == key) {
      node->Accumulate(payload);
      return;
    }
    if (node->next == nullptr) break;
    node = node->next;
  }
  GroupNode* fresh = table.AllocNode();
  fresh->used = 1;
  fresh->key = key;
  fresh->count = 0;
  fresh->Accumulate(payload);
  // O(1) push-front behind the header; chain order is irrelevant.
  fresh->next = head->next;
  head->next = fresh;
}

}  // namespace detail

template <bool kSync>
class GroupByOp {
 public:
  struct State {
    GroupNode* head;  ///< bucket header (owns the latch)
    GroupNode* ptr;   ///< chain walk position while the latch is held
    int64_t key;
    int64_t payload;
    bool latched;
  };

  GroupByOp(AggregateTable& table, const Relation& input)
      : table_(table), input_(&input) {}

  /// Row-driven construction (AggregateStage): inputs arrive via StartRow,
  /// so no backing relation exists.
  explicit GroupByOp(AggregateTable& table)
      : table_(table), input_(nullptr) {}

  void Start(State& st, uint64_t idx) {
    AMAC_DCHECK(input_ != nullptr);
    StartRow(st, (*input_)[idx]);
  }

  void StartRow(State& st, const Tuple& in) {
    st.key = in.key;
    st.payload = in.payload;
    st.head = table_.HeadForKey(st.key);
    st.ptr = nullptr;
    st.latched = false;
    PrefetchWrite(st.head);
  }

  StepStatus Step(State& st) {
    if (!st.latched) {
      // Single try-acquire; on failure the scheduler parks the lookup and
      // tours the other in-flight slots (§3.2: no per-lookup spinning).
      if (!TryAcquireLatch<kSync>(st.head->latch)) return StepStatus::kRetry;
      st.latched = true;
      st.ptr = st.head;
    }
    GroupNode* node = st.ptr;
    if (node->used && node->key == st.key) {
      node->Accumulate(st.payload);
      Unlatch(st);
      return StepStatus::kDone;
    }
    if (node->used && node->next != nullptr) {
      Prefetch(node->next);
      st.ptr = node->next;  // stay in the walk stage, latch held
      return StepStatus::kParked;
    }
    // End of chain: create the group (only a header can be unused).
    if (!node->used) {
      AMAC_DCHECK(node == st.head);
      node->used = 1;
      node->key = st.key;
      node->count = 0;
      node->Accumulate(st.payload);
    } else {
      GroupNode* fresh = table_.AllocNode();
      fresh->used = 1;
      fresh->key = st.key;
      fresh->count = 0;
      fresh->Accumulate(st.payload);
      fresh->next = st.head->next;
      st.head->next = fresh;
    }
    Unlatch(st);
    return StepStatus::kDone;
  }

  // Vector interface (core/vector_engine.h).  StartVec hashes all lanes
  // through the 8-wide kernel (common/simd.h); each StepVec try-latches
  // unlatched lanes scalar (a failed acquire just leaves the lane active —
  // the vector-schedule analogue of kRetry; no deadlock, since every latch
  // holder makes progress each step), then advances all latched walkers
  // one node via the gathered kernel (groupby/vec_groupby.h).  Matches and
  // chain-end inserts mutate scalar under the held latch, so the resulting
  // table is bitwise-identical to the scalar schedules'.  Lanes probing
  // the sentinel key run the exact scalar classification instead of the
  // gather (the key compare alone cannot tell them from unused nodes).
  static constexpr uint32_t kVecLanes = kSimdLanes;
  struct VecState {
    GroupNode* head[kSimdLanes];  ///< bucket headers (own the latches)
    GroupNode* ptr[kSimdLanes];   ///< walk positions while latched
    int64_t key[kSimdLanes];
    int64_t payload[kSimdLanes];
    uint32_t active;
    uint32_t latched;
  };

  void StartVec(VecState& st, uint64_t base_idx, uint32_t n) {
    AMAC_DCHECK(input_ != nullptr);
    AMAC_DCHECK(n >= 1 && n <= kSimdLanes);
    int64_t keys[kSimdLanes];
    for (uint32_t i = 0; i < n; ++i) keys[i] = (*input_)[base_idx + i].key;
    for (uint32_t i = n; i < kSimdLanes; ++i) keys[i] = keys[n - 1];
    uint64_t bucket[kSimdLanes];
    HashToBucket8(table_.hash_kind(), keys, table_.bucket_mask(), bucket);
    GroupNode* buckets = table_.buckets();
    for (uint32_t i = 0; i < n; ++i) {
      st.key[i] = keys[i];
      st.payload[i] = (*input_)[base_idx + i].payload;
      st.head[i] = buckets + bucket[i];
      st.ptr[i] = nullptr;
      PrefetchWrite(st.head[i]);
    }
    st.active = n == kSimdLanes ? 0xffu : (1u << n) - 1;
    st.latched = 0;
  }

  void RefillLane(VecState& st, uint32_t lane, uint64_t idx) {
    const Tuple& in = (*input_)[idx];
    st.key[lane] = in.key;
    st.payload[lane] = in.payload;
    st.head[lane] = table_.HeadForKey(in.key);
    st.ptr[lane] = nullptr;
    PrefetchWrite(st.head[lane]);
    st.active |= 1u << lane;
    st.latched &= ~(1u << lane);
  }

  uint32_t StepVec(VecState& st) {
    // Stage 1 per lane: one try-acquire, as the scalar Step does.  Lanes
    // that fail stay active-unlatched and retry on the next tour.
    uint32_t unlatched = st.active & ~st.latched;
    while (unlatched != 0) {
      const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(unlatched));
      unlatched &= unlatched - 1;
      if (TryAcquireLatch<kSync>(st.head[lane]->latch)) {
        st.latched |= 1u << lane;
        st.ptr[lane] = st.head[lane];
      }
    }
    // Stage 2: gathered walk over every latched lane with a gather-safe
    // (non-sentinel) key; sentinel-probing lanes classify scalar.
    uint32_t walkers = st.active & st.latched;
    uint32_t scalar_lanes = 0;
    uint32_t pending = walkers;
    while (pending != 0) {
      const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(pending));
      pending &= pending - 1;
      if (st.key[lane] == GroupNode::kEmptyGroupKey) {
        scalar_lanes |= 1u << lane;
      }
    }
    walkers &= ~scalar_lanes;
    VecGroupMasks masks;
    if (walkers != 0) {
      masks = VecGroupWalkStep(st.ptr, st.key, walkers);
    }
    while (scalar_lanes != 0) {
      const uint32_t lane =
          static_cast<uint32_t>(__builtin_ctz(scalar_lanes));
      scalar_lanes &= scalar_lanes - 1;
      const GroupNode* node = st.ptr[lane];
      const uint32_t bit = 1u << lane;
      if (node->used && node->key == st.key[lane]) {
        masks.match |= bit;
      } else if (node->used && node->next != nullptr) {
        st.ptr[lane] = node->next;
        PrefetchWrite(node->next);
        masks.advanced |= bit;
      }
      walkers |= bit;  // classified: retire/advance below with the rest
    }
    // Matches accumulate in place; chain-end lanes insert — both scalar,
    // latch held, exactly the scalar Step's mutation code.
    uint32_t finish = walkers & ~masks.advanced;
    while (finish != 0) {
      const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(finish));
      finish &= finish - 1;
      GroupNode* node = st.ptr[lane];
      if (masks.match & (1u << lane)) {
        node->Accumulate(st.payload[lane]);
      } else if (!node->used) {
        AMAC_DCHECK(node == st.head[lane]);
        node->used = 1;
        node->key = st.key[lane];
        node->count = 0;
        node->Accumulate(st.payload[lane]);
      } else {
        GroupNode* fresh = table_.AllocNode();
        fresh->used = 1;
        fresh->key = st.key[lane];
        fresh->count = 0;
        fresh->Accumulate(st.payload[lane]);
        fresh->next = st.head[lane]->next;
        st.head[lane]->next = fresh;
      }
      ReleaseLatch<kSync>(st.head[lane]->latch);
      st.latched &= ~(1u << lane);
      st.active &= ~(1u << lane);
    }
    return st.active;
  }

 private:
  void Unlatch(State& st) {
    ReleaseLatch<kSync>(st.head->latch);
    st.latched = false;
  }

  AggregateTable& table_;
  const Relation* input_;
};

/// Pipeline stage (core/pipeline.h): group-by insert fed by upstream rows
/// (in.key groups, in.payload accumulates).  Terminal — emits nothing; the
/// result is the AggregateTable itself.  kSync = true latches buckets, the
/// correct default whenever the Executor may run multi-threaded;
/// aggregation is commutative, so results are schedule- and
/// thread-count-independent either way.
template <bool kSync = true>
class AggregateStage {
 public:
  using State = typename GroupByOp<kSync>::State;

  explicit AggregateStage(AggregateTable& table) : op_(table) {}

  void Start(State& st, const Tuple& in) { op_.StartRow(st, in); }

  template <typename Emit>
  StepStatus Step(State& st, Emit&&) {
    return op_.Step(st);
  }

 private:
  GroupByOp<kSync> op_;
};

template <bool kSync = true>
AggregateStage<kSync> Aggregate(AggregateTable& table) {
  return AggregateStage<kSync>(table);
}

/// The no-prefetch, single-threaded aggregation loop over [begin, end):
/// the test reference GroupByOp's tables are checked against.
inline void GroupByBaseline(const Relation& input, uint64_t begin,
                            uint64_t end, AggregateTable& table) {
  for (uint64_t i = begin; i < end; ++i) {
    detail::UpdateOrInsert(table, table.HeadForKey(input[i].key),
                           input[i].key, input[i].payload);
  }
}

}  // namespace amac
