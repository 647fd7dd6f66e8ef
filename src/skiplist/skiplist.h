// Pugh-style concurrent skip list (paper §4: "we adopt the concurrent pugh
// skip list implementation from ASCYLIB [11]").
//
// Nodes have a geometric tower height (p = 1/2, capped at kMaxLevel) and a
// per-node latch guarding updates to that node's forward pointers.  Inserts
// follow Pugh's lock-validate-advance protocol level by level, bottom-up;
// the list supports concurrent inserts.  Searches are wait-free against a
// quiesced list; search-during-insert linearizability is *not* claimed
// (benchmarks never mix the phases, matching the paper's methodology).
//
// Nodes are variable-size (24-byte header + 8 bytes per level), each padded
// to a 64-byte boundary, bump-allocated from one slab: the "larger memory
// space" §4 mentions versus the other structures.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/aligned.h"
#include "common/latch.h"
#include "common/macros.h"
#include "common/rng.h"
#include "relation/relation.h"

namespace amac {

class EpochGuard;

struct SkipNode {
  int64_t key;
  int64_t payload;
  Latch latch;      ///< guards this node's next[] entries
  uint8_t height;   ///< tower height, 1..kMaxLevel
  /// Erase marker: set (under this node's latch) before the tower is
  /// unlinked, cleared never.  Splices that latched a predecessor must
  /// re-walk when they find it deleted — its next[] entries are dying.
  uint8_t deleted;
  /// Insert-in-progress marker: set at allocation, cleared after the last
  /// level is spliced.  EraseSync waits for it so an unlink covers every
  /// level the insert will touch — otherwise a slow insert could re-link a
  /// removed node through its upper levels ("resurrection").
  uint8_t linking;
  uint8_t pad[4] = {};
  SkipNode* next[1];  ///< flexible tail: `height` forward pointers

  static constexpr std::size_t HeaderBytes() { return 24; }
  static std::size_t BytesForHeight(uint32_t h) {
    const std::size_t raw = HeaderBytes() + sizeof(SkipNode*) * h;
    return (raw + kCacheLineSize - 1) / kCacheLineSize * kCacheLineSize;
  }
};

/// Publication store for a splice: later acquire-loads of this pointer see
/// the fully initialized node (its own next[] entries were written first).
inline void StoreNextRelease(SkipNode* pred, uint32_t level, SkipNode* node) {
  std::atomic_ref<SkipNode*>(pred->next[level])
      .store(node, std::memory_order_release);
}

/// Acquire-load used by insert-phase searches that run concurrently with
/// splices.  (Read-only search kernels on a quiesced list use plain loads.)
inline SkipNode* LoadNextAcquire(const SkipNode* n, uint32_t level) {
  return std::atomic_ref<SkipNode*>(const_cast<SkipNode*>(n)->next[level])
      .load(std::memory_order_acquire);
}

// The erase-phase flags are written under latches but read latch-free
// (predecessor checks, the linking wait), so they go through atomic_ref.
inline bool SkipNodeDeleted(const SkipNode* n) {
  return std::atomic_ref<const uint8_t>(n->deleted)
             .load(std::memory_order_acquire) != 0;
}
inline void SetSkipNodeDeleted(SkipNode* n) {
  std::atomic_ref<uint8_t>(n->deleted).store(1, std::memory_order_release);
}
inline bool SkipNodeLinking(const SkipNode* n) {
  return std::atomic_ref<const uint8_t>(n->linking)
             .load(std::memory_order_acquire) != 0;
}
inline void ClearSkipNodeLinking(SkipNode* n) {
  std::atomic_ref<uint8_t>(n->linking).store(0, std::memory_order_release);
}

class SkipList {
 public:
  static constexpr uint32_t kMaxLevel = 20;

  /// `expected_elems` sizes the node slab (checked at allocation time).
  explicit SkipList(uint64_t expected_elems);

  SkipNode* head() { return head_; }
  const SkipNode* head() const { return head_; }

  /// Geometric tower height: P(h >= k) = 2^-(k-1), capped at kMaxLevel.
  static uint32_t RandomHeight(Rng& rng);

  /// Bump-allocate and initialize a node (thread-safe).
  SkipNode* AllocNode(uint32_t height, int64_t key, int64_t payload);

  /// Reference single-threaded insert. Returns false on duplicate key.
  bool InsertUnsync(int64_t key, int64_t payload, Rng& rng);

  /// Reference concurrent insert (Pugh latched splice, spinning).
  /// Returns false on duplicate key.  Safe against concurrent InsertSync
  /// AND EraseSync: deleted predecessors are re-walked, and an insert that
  /// finds its key mid-erase waits for the unlink and then proceeds (the
  /// erase linearizes first).
  bool InsertSync(int64_t key, int64_t payload, Rng& rng);

  /// Concurrent erase (latched, spinning): mark deleted under the victim's
  /// latch, unlink every level top-down (predecessor latches are only ever
  /// taken for keys strictly below the held victim's key, so the wait-for
  /// graph is acyclic), then epoch-retire the node through `guard` — it
  /// recycles onto the height-bucketed free list after the grace period.
  /// The caller must hold `guard` pinned for the whole call.  Returns
  /// false when the key is absent (or already being erased).
  bool EraseSync(int64_t key, EpochGuard& guard);

  /// Epoch deleter: pushes the node back onto the free list (`ctx` is the
  /// SkipList).  Exposed for tests.
  static void RecycleNode(void* obj, void* ctx);

  uint64_t recycled_nodes() const {
    return recycled_.load(std::memory_order_relaxed);
  }

  /// Reference search.
  const SkipNode* Find(int64_t key) const;

  /// Level-0 traversal (keys ascend). Not safe during concurrent inserts.
  void ForEach(const std::function<void(const SkipNode&)>& fn) const;

  uint64_t size() const { return num_elems_.load(std::memory_order_relaxed); }

  /// Bump the element count after a successful staged splice
  /// (SkipInsertOp links nodes directly).
  void AddElems(uint64_t n) {
    num_elems_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Order-independent checksum over (key, payload); equal contents =>
  /// equal checksum regardless of tower heights.
  uint64_t Checksum() const;

  struct Stats {
    uint64_t num_elems = 0;
    uint64_t slab_bytes_used = 0;
    double avg_height = 0;
    uint32_t max_height = 0;
  };
  Stats ComputeStats() const;

 private:
  friend class SkipListTestPeer;

  AlignedBuffer<uint8_t> slab_;
  std::atomic<uint64_t> slab_used_{0};
  std::atomic<uint64_t> num_elems_{0};
  SkipNode* head_ = nullptr;

  // Height-bucketed free lists fed by epoch reclamation; AllocNode prefers
  // them over fresh slab bytes (a node's tower height is fixed at birth).
  std::mutex free_mu_;
  std::vector<std::vector<SkipNode*>> free_by_height_;  ///< by free_mu_
  std::atomic<uint64_t> free_count_{0};
  std::atomic<uint64_t> recycled_{0};
};

/// Fill preds/succs for `key` (search-phase of an insert): preds[l] is the
/// rightmost node at level l with key < `key`; succs[l] = preds[l]->next[l].
void FindPredecessors(SkipList& list, int64_t key,
                      SkipNode* preds[SkipList::kMaxLevel],
                      SkipNode* succs[SkipList::kMaxLevel]);

/// Latch-free re-walk for one level: the rightmost node at `level` with
/// key < `key`.  Splice/unlink loops fall back to this when a cached
/// predecessor turns out deleted.
SkipNode* FindPredAtLevel(SkipList& list, int64_t key, uint32_t level);

}  // namespace amac
