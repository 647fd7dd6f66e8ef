// Ready-made operations for the generic engine (core/engine.h).
//
// BstLookupStage / BstSearchOp are the BST's one traversal: every policy,
// layer and bench runs them.  HashBuildOp additionally demonstrates the
// full Table 1 "Hash Join Build" stage machine with chain walking and
// latch retry — the generic form the paper tabulates.
#pragma once

#include <cstdint>

#include "bst/bst.h"
#include "bst/bst_search.h"
#include "common/prefetch.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "hashtable/chained_table.h"
#include "relation/relation.h"

namespace amac {

// The production hash probe op lives with the join layer: ProbeOp in
// join/join_ops.h (core stays independent of join).

/// Pipeline stage (core/pipeline.h): BST point lookup on the input row's
/// key; a hit emits Tuple{input key, node payload}.
class BstLookupStage {
 public:
  struct State {
    const BstNode* ptr;
    int64_t key;
  };

  explicit BstLookupStage(const BinarySearchTree& tree) : tree_(&tree) {}

  void Start(State& st, const Tuple& in) {
    st.key = in.key;
    st.ptr = tree_->root();
    Prefetch(st.ptr);
  }

  template <typename Emit>
  StepStatus Step(State& st, Emit&& emit) {
    const BstNode* node = st.ptr;
    if (node == nullptr) return StepStatus::kDone;
    if (node->key == st.key) {
      emit(Tuple{st.key, node->payload});
      return StepStatus::kDone;
    }
    const BstNode* child = st.key < node->key ? node->left : node->right;
    if (child == nullptr) return StepStatus::kDone;
    Prefetch(child);
    st.ptr = child;
    return StepStatus::kParked;
  }

 private:
  const BinarySearchTree* tree_;
};

inline BstLookupStage LookupBst(const BinarySearchTree& tree) {
  return BstLookupStage(tree);
}

/// BST search as an engine operation: a thin adapter over BstLookupStage
/// carrying the probe input index, so a hit reaches the sink as
/// (rid, payload).  One descent implementation serves both paths.
template <typename Sink>
class BstSearchOp {
 public:
  struct State {
    BstLookupStage::State inner;
    uint64_t rid;
  };

  BstSearchOp(const BinarySearchTree& tree, const Relation& probe, Sink& sink)
      : stage_(tree), tree_(&tree), probe_(probe), sink_(sink) {}

  void Start(State& st, uint64_t idx) {
    st.rid = idx;
    stage_.Start(st.inner, probe_[idx]);
  }

  StepStatus Step(State& st) {
    return stage_.Step(st.inner, [this, &st](const Tuple& row) {
      sink_.Emit(st.rid, row.payload);
    });
  }

  // Vector interface (core/vector_engine.h): up to 8 descents per slot,
  // advanced level-by-level through the gathered kernel (bst/bst_search.h).
  // An empty tree starts zero lanes — the same no-emission outcome as the
  // scalar descent, reached without touching a null root.
  static constexpr uint32_t kVecLanes = kSimdLanes;
  struct VecState {
    const BstNode* ptr[kSimdLanes];
    int64_t key[kSimdLanes];
    uint64_t rid[kSimdLanes];
    uint32_t active;
  };

  void StartVec(VecState& st, uint64_t base_idx, uint32_t n) {
    AMAC_DCHECK(n >= 1 && n <= kSimdLanes);
    const BstNode* root = tree_->root();
    if (root == nullptr) {
      st.active = 0;
      return;
    }
    Prefetch(root);
    for (uint32_t i = 0; i < n; ++i) {
      st.key[i] = probe_[base_idx + i].key;
      st.rid[i] = base_idx + i;
      st.ptr[i] = root;
    }
    st.active = n == kSimdLanes ? 0xffu : (1u << n) - 1;
  }

  void RefillLane(VecState& st, uint32_t lane, uint64_t idx) {
    st.key[lane] = probe_[idx].key;
    st.rid[lane] = idx;
    st.ptr[lane] = tree_->root();
    Prefetch(st.ptr[lane]);
    st.active |= 1u << lane;
  }

  uint32_t StepVec(VecState& st) {
    st.active = VecBstStep(st.ptr, st.key, st.active,
                           [this, &st](uint32_t lane, int64_t payload) {
                             sink_.Emit(st.rid[lane], payload);
                           });
    return st.active;
  }

 private:
  BstLookupStage stage_;
  const BinarySearchTree* tree_;
  const Relation& probe_;
  Sink& sink_;
};

/// Hash join build as the *generic* Table 1 stage machine: walk the chain
/// to its tail and append (allocating a node when the tail is full), with a
/// try-latch on the bucket header that parks the insert on conflict.  This
/// is the textbook form from the paper's Table 1 — the production build
/// (join_ops.h BuildOp) uses the O(1) header-eviction discipline instead (see
/// DESIGN.md), so this op exists to exercise kRetry and multi-stage builds.
template <bool kSync>
class HashBuildOp {
 public:
  struct State {
    BucketNode* head;  ///< latch owner
    BucketNode* ptr;   ///< chain walk position (latch held once walking)
    Tuple tuple;
    bool latched;
  };

  HashBuildOp(ChainedHashTable& table, const Relation& build)
      : table_(table), build_(build) {}

  void Start(State& st, uint64_t idx) {
    st.tuple = build_[idx];
    st.head = table_.BucketForKey(st.tuple.key);
    st.ptr = st.head;
    st.latched = false;
    table_.NoteInsertedKey(st.tuple.key);
    PrefetchWrite(st.head);
  }

  StepStatus Step(State& st) {
    if (!st.latched) {
      if (!TryAcquireLatch<kSync>(st.head->latch)) return StepStatus::kRetry;
      st.latched = true;
      st.ptr = st.head;
    }
    BucketNode* node = st.ptr;
    if (node->count < BucketNode::kTuplesPerNode) {
      node->tuples[node->count++] = st.tuple;
      Unlatch(st);
      return StepStatus::kDone;
    }
    if (node->next != nullptr) {
      PrefetchWrite(node->next);
      st.ptr = node->next;  // tail walk continues, latch held
      return StepStatus::kParked;
    }
    BucketNode* fresh = table_.AllocOverflowNode();
    fresh->tuples[0] = st.tuple;
    fresh->count = 1;
    node->next = fresh;
    Unlatch(st);
    return StepStatus::kDone;
  }

 private:
  void Unlatch(State& st) {
    ReleaseLatch<kSync>(st.head->latch);
    st.latched = false;
  }

  ChainedHashTable& table_;
  const Relation& build_;
};

}  // namespace amac
