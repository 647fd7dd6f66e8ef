// B+-tree search as a generic-engine operation (core/scheduler.h).
//
// One Step() is one node visit (VisitBTreeNode in btree_search.h), so
// every ExecPolicy (and the parallel driver) runs it without
// btree-specific scheduling code.
#pragma once

#include <cstdint>

#include "btree/btree.h"
#include "btree/btree_search.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "relation/relation.h"

namespace amac {

template <typename Sink>
class BTreeSearchOp {
 public:
  struct State {
    const BTreeNode* ptr;
    int64_t key;
    uint64_t rid;
  };

  BTreeSearchOp(const BTree& tree, const Relation& probe, Sink& sink)
      : tree_(tree), probe_(probe), sink_(sink) {}

  void Start(State& st, uint64_t idx) {
    st.key = probe_[idx].key;
    st.rid = idx;
    st.ptr = tree_.root();
    PrefetchBTreeNode(st.ptr);
  }

  StepStatus Step(State& st) {
    const BTreeNode* next = nullptr;
    if (VisitBTreeNode(st.ptr, st.key, st.rid, sink_, &next)) {
      return StepStatus::kDone;
    }
    PrefetchBTreeNode(next);
    st.ptr = next;
    return StepStatus::kParked;
  }

  // Vector interface (core/vector_engine.h): up to 8 descents per slot.
  // Each StepVec visits one node per active lane with the SIMD multi-key
  // node compares (VisitBTreeNodeSimd) — the tree is balanced, so lanes of
  // one vector retire together and whole-vector restarts dominate.
  static constexpr uint32_t kVecLanes = kSimdLanes;
  struct VecState {
    const BTreeNode* ptr[kSimdLanes];
    int64_t key[kSimdLanes];
    uint64_t rid[kSimdLanes];
    uint32_t active;
  };

  void StartVec(VecState& st, uint64_t base_idx, uint32_t n) {
    AMAC_DCHECK(n >= 1 && n <= kSimdLanes);
    const BTreeNode* root = tree_.root();
    PrefetchBTreeNode(root);
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
    st.ptr[lane] = tree_.root();
    PrefetchBTreeNode(st.ptr[lane]);
    st.active |= 1u << lane;
  }

  uint32_t StepVec(VecState& st) {
    uint32_t pending = st.active;
    while (pending != 0) {
      const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(pending));
      pending &= pending - 1;
      const BTreeNode* next = nullptr;
      if (VisitBTreeNodeSimd(st.ptr[lane], st.key[lane], st.rid[lane],
                             sink_, &next)) {
        st.active &= ~(1u << lane);
      } else {
        PrefetchBTreeNode(next);
        st.ptr[lane] = next;
      }
    }
    return st.active;
  }

 private:
  const BTree& tree_;
  const Relation& probe_;
  Sink& sink_;
};

/// Pipeline stage (core/pipeline.h): B+-tree point lookup on the input
/// row's key; a hit emits Tuple{input key, indexed payload}.
class BTreeLookupStage {
 public:
  struct State {
    const BTreeNode* ptr;
    int64_t key;
  };

  explicit BTreeLookupStage(const BTree& tree) : tree_(&tree) {}

  void Start(State& st, const Tuple& in) {
    st.key = in.key;
    st.ptr = tree_->root();
    PrefetchBTreeNode(st.ptr);
  }

  template <typename EmitFn>
  StepStatus Step(State& st, EmitFn&& emit) {
    detail::KeyedEmitSink<EmitFn> sink{emit, st.key};
    const BTreeNode* next = nullptr;
    if (VisitBTreeNode(st.ptr, st.key, 0, sink, &next)) {
      return StepStatus::kDone;
    }
    PrefetchBTreeNode(next);
    st.ptr = next;
    return StepStatus::kParked;
  }

 private:
  const BTree* tree_;
};

inline BTreeLookupStage LookupBTree(const BTree& tree) {
  return BTreeLookupStage(tree);
}

}  // namespace amac
