// Cache-conscious B+-tree index.
//
// The paper's tree-search discussion (§2.1.2) spans both binary trees and
// the cache-optimized index trees of [10, 16, 23]; SPP "has also been
// applied to balanced search trees [16]".  This module provides that
// balanced, wide-node counterpart to src/bst: 256-byte nodes (4 cache
// lines) holding up to 15 keys, bulk-loaded bottom-up, so a lookup touches
// ~log_16(n) nodes instead of ~1.39*log_2(n) — fewer but fatter dependent
// accesses, which shifts the GP/SPP/AMAC trade-offs (bench/ext_btree).
//
// Read-only after bulk load (index-probe workloads, like the paper's BST
// experiment); lookups run as BTreeSearchOp (btree_ops.h) under any
// ExecPolicy.
#pragma once

#include <cstdint>

#include "common/aligned.h"
#include "common/macros.h"
#include "relation/relation.h"

namespace amac {

/// Node layout: 4 cache lines.  Inner nodes route by key; leaves store
/// payloads and are forward-linked for scans.
struct alignas(4 * kCacheLineSize) BTreeNode {
  static constexpr uint32_t kMaxKeys = 15;

  uint16_t count = 0;
  uint16_t is_leaf = 0;
  uint8_t pad[4] = {};
  int64_t keys[kMaxKeys] = {};
  union {
    BTreeNode* children[kMaxKeys + 1];  ///< inner: child[i] covers keys < keys[i]
    struct {
      int64_t payloads[kMaxKeys];
      BTreeNode* next_leaf;
    } leaf;
  };

  BTreeNode() : leaf{{}, nullptr} {}

  /// Index of the first key >= `key` (linear scan: count is small and the
  /// node is resident once prefetched).
  uint32_t LowerBound(int64_t key) const {
    uint32_t i = 0;
    while (i < count && keys[i] < key) ++i;
    return i;
  }
};
static_assert(sizeof(BTreeNode) == 4 * kCacheLineSize);

struct BTreeStats {
  uint64_t num_keys = 0;
  uint64_t num_leaves = 0;
  uint64_t num_inner = 0;
  uint32_t height = 0;  ///< nodes on a root-to-leaf path
};

/// Bulk-loaded, read-only B+-tree.
class BTree {
 public:
  /// Build from `rel` (keys need not be sorted or unique; duplicates keep
  /// the first payload encountered after sorting).
  explicit BTree(const Relation& rel);

  const BTreeNode* root() const { return root_; }
  uint32_t height() const { return height_; }

  /// Reference search used by tests; returns nullptr when absent.
  const int64_t* Find(int64_t key) const;

  BTreeStats ComputeStats() const;

 private:
  BTreeNode* AllocNode();

  AlignedBuffer<BTreeNode> pool_;
  uint64_t used_ = 0;
  BTreeNode* root_ = nullptr;
  BTreeNode* first_leaf_ = nullptr;
  uint32_t height_ = 0;
  uint64_t num_keys_ = 0;
  uint64_t num_leaves_ = 0;
};

}  // namespace amac
