// Skip list search step (paper Table 1 col 5 describes insert; search is
// its prefix without the splice): the one stage SkipSearchOp and
// SkipLookupStage (skiplist_ops.h) run under any ExecPolicy, plus the
// no-prefetch reference loop the tests check them against.
//
// A search stage visits one *candidate node* (one dependent memory access).
// Level descents that need no new node (null / overshoot candidates) happen
// inside the same stage — the paper's observation that "the traversal at
// each skip list level terminates after an arbitrary number of node
// traversals" is precisely the irregularity that hurts GP/SPP here.
//
// Tall towers span multiple cache lines, so prefetching a candidate touches
// both its header line and the line holding the forward pointer at the
// current level.
#pragma once

#include <cstdint>

#include "common/prefetch.h"
#include "relation/relation.h"
#include "skiplist/skiplist.h"

namespace amac {

/// Prefetch the lines of `n` needed to (a) compare its key and (b) read its
/// forward pointer at `level`.
inline void PrefetchSkipNode(const SkipNode* n, int32_t level) {
  Prefetch(n);
  const char* slot = reinterpret_cast<const char*>(n) +
                     SkipNode::HeaderBytes() +
                     sizeof(SkipNode*) * static_cast<uint32_t>(level);
  Prefetch(slot);
}

/// Per-lookup cursor: `cur` is resident; the candidate `cur->next[level]`
/// has been prefetched.
struct SkipCursor {
  const SkipNode* cur;
  int32_t level;
};

/// Advance one memory access.  Returns true when the lookup completed
/// (match emitted or key absent); false when it parked on a new prefetch.
template <typename Sink>
inline bool SkipSearchStep(SkipCursor& c, int64_t key, uint64_t rid,
                           Sink& sink) {
  while (true) {
    const SkipNode* cand = c.cur->next[c.level];
    if (cand != nullptr && cand->key < key) {
      // Move right: `cand` just arrived in cache; park on its successor.
      c.cur = cand;
      const SkipNode* nxt = cand->next[c.level];
      if (nxt != nullptr) {
        PrefetchSkipNode(nxt, c.level);
        return false;
      }
      continue;  // chain ends: descend without a new memory access
    }
    if (cand != nullptr && cand->key == key) {
      sink.Emit(rid, cand->payload);
      return true;
    }
    // Candidate overshoots (or null): descend.
    if (c.level == 0) return true;  // key absent
    --c.level;
    const SkipNode* nxt = c.cur->next[c.level];
    if (nxt != nullptr && nxt != cand) {
      PrefetchSkipNode(nxt, c.level);
      return false;
    }
    // Lower-level candidate is the same node (already cached) or null:
    // keep descending inside this stage.
  }
}

/// Initial cursor for a lookup (head is permanently hot).
inline SkipCursor SkipStartCursor(const SkipList& list) {
  return SkipCursor{list.head(),
                    static_cast<int32_t>(SkipList::kMaxLevel) - 1};
}

/// The no-prefetch lookup loop over [begin, end): the test reference the
/// SkipSearchOp stage machine (skiplist_ops.h) is checked against.
template <typename Sink>
void SkipSearchBaseline(const SkipList& list, const Relation& probe,
                        uint64_t begin, uint64_t end, Sink& sink) {
  for (uint64_t i = begin; i < end; ++i) {
    const SkipNode* match = list.Find(probe[i].key);
    if (match != nullptr) sink.Emit(i, match->payload);
  }
}

}  // namespace amac
