// Chained hash table with cache-line buckets, reproducing the layout the
// paper adopts from Balkesen et al. [4, 5]:
//
//   "Each hash table bucket contains a 1-byte latch for synchronization,
//    two 16-byte tuples and an 8-byte pointer to the next hash table node
//    to be used in the case of collisions."
//   "The first hash table node is clustered with the bucket header."
//
// The bucket header array and all overflow nodes are 64-byte aligned; a
// bucket header and an overflow node share the same BucketNode layout so a
// chain walk is uniform.  The execution engines (baseline / GP / SPP / AMAC)
// operate directly on this layout, so it is deliberately an open struct with
// documented invariants rather than an encapsulated container.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/hash.h"
#include "common/latch.h"
#include "common/macros.h"
#include "common/stats.h"
#include "relation/relation.h"

namespace amac {

/// One cache line of the chain: up to two tuples plus the next pointer.
///
/// Slot invariant: every tuple slot with index >= count holds
/// kEmptySlotKey.  The table's insert paths maintain it (construction,
/// Clear, AllocOverflowNode, and the header-eviction discipline), and the
/// vectorized probe (hashtable/vec_probe.h) relies on it to compare both
/// key slots unconditionally instead of gathering the header for `count` —
/// an unused slot can never equal a probe key.  The one collision —
/// a *stored* key equal to kEmptySlotKey — sets
/// ChainedHashTable::has_sentinel_key() and routes that table's probes
/// through the scalar walk.
struct AMAC_CACHE_ALIGNED BucketNode {
  static constexpr uint32_t kTuplesPerNode = 2;
  /// Key value marking an unused tuple slot (INT64_MIN).
  static constexpr int64_t kEmptySlotKey = INT64_MIN;

  Latch latch;            ///< 1-byte latch (meaningful on bucket headers)
  uint8_t count = 0;      ///< tuples used in this node (0..2)
  uint8_t pad[6] = {};    ///< explicit padding for layout clarity
  Tuple tuples[kTuplesPerNode] = {};
  BucketNode* next = nullptr;  ///< overflow chain
};
static_assert(sizeof(BucketNode) == kCacheLineSize,
              "bucket must occupy exactly one cache line");

/// Aggregate shape of the chains, used by tests and to report workload
/// irregularity (paper §2.2.2: "1% of the hash table buckets ... contain
/// 19% of the total build tuples" at Zipf 0.75).
struct ChainStats {
  uint64_t num_buckets = 0;
  uint64_t used_buckets = 0;
  uint64_t total_tuples = 0;
  uint64_t total_nodes = 0;    ///< used headers + overflow nodes
  uint64_t max_chain_nodes = 0;
  double avg_nodes_per_used_bucket = 0;
  Histogram chain_length_hist{256};
  /// Fraction of all tuples living in the 1% most populated buckets.
  double top1pct_tuple_share = 0;
};

/// The chained table: bucket header array + bump-allocated overflow pool.
class ChainedHashTable {
 public:
  struct Options {
    /// Buckets are sized so the *expected* number of chain nodes per used
    /// bucket under a uniform dense key distribution equals this value.
    /// 1.0 gives the Balkesen no-partitioning layout (2 tuple slots per
    /// key-pair); 2.0 (= 4 tuples/bucket) reproduces the Fig. 3 motivation
    /// setup of "exactly four nodes per bucket" when combined with
    /// `target_nodes_per_bucket = 2` and key duplication.
    double target_nodes_per_bucket = 1.0;
    HashKind hash_kind = HashKind::kMurmur;
    /// Overflow pool capacity in nodes; 0 = auto (worst case: all tuples
    /// collide into one chain).
    uint64_t overflow_capacity = 0;
  };

  ChainedHashTable(uint64_t expected_tuples, Options options);

  /// Non-synchronized insert (single-threaded build).
  void InsertUnsync(const Tuple& t);

  /// Latched insert (multi-threaded build); spins on the bucket latch.
  void InsertSync(const Tuple& t);

  /// Reset to empty (keeps the allocations).
  void Clear();

  uint64_t BucketIndex(int64_t key) const {
    return hash_kind_ == HashKind::kMurmur
               ? HashToBucket<HashKind::kMurmur>(static_cast<uint64_t>(key),
                                                 bucket_mask_)
               : HashToBucket<HashKind::kRadix>(static_cast<uint64_t>(key),
                                                bucket_mask_);
  }

  BucketNode* BucketForKey(int64_t key) {
    return &buckets_[BucketIndex(key)];
  }
  const BucketNode* BucketForKey(int64_t key) const {
    return &buckets_[BucketIndex(key)];
  }

  /// Allocate one overflow node (thread-safe bump allocation).
  BucketNode* AllocOverflowNode();

  /// Balkesen-style O(1) insert of `t` into the chain headed by `head`
  /// (its bucket): tuples always land in the header node; when it is full
  /// its contents are evicted into a fresh overflow node linked right
  /// behind the header.  The caller holds head's latch or is the only
  /// writer.  Inline so the staged build (join_ops.h BuildOp) inlines it.
  void InsertInto(BucketNode* head, const Tuple& t) {
    if (head->count == BucketNode::kTuplesPerNode) {
      BucketNode* spill = AllocOverflowNode();
      spill->count = head->count;
      spill->tuples[0] = head->tuples[0];
      spill->tuples[1] = head->tuples[1];
      spill->next = head->next;
      head->next = spill;
      head->count = 0;
      // Slot invariant: the append below refills slot 0; slot 1 would keep
      // the evicted tuple's key as a ghost the sentinel-compare probe could
      // match ahead of its spilled copy.
      head->tuples[1].key = BucketNode::kEmptySlotKey;
    }
    head->tuples[head->count++] = t;
    NoteInsertedKey(t.key);
  }

  /// Record that `key` was stored in the table.  A stored key equal to
  /// BucketNode::kEmptySlotKey would be indistinguishable from an unused
  /// slot under the vectorized probe's sentinel compares, so it flips
  /// has_sentinel_key() and the probes fall back to the scalar walk
  /// (bitwise-identical results, no gathers).  Insert paths that write
  /// tuples without InsertInto (core/ops.h HashBuildOp) must call this.
  void NoteInsertedKey(int64_t key) {
    if (AMAC_UNLIKELY(key == BucketNode::kEmptySlotKey) &&
        !has_sentinel_key_.load(std::memory_order_relaxed)) {
      has_sentinel_key_.store(true, std::memory_order_relaxed);
    }
  }

  /// True iff some stored key equals BucketNode::kEmptySlotKey, making the
  /// sentinel-based vector probe unsafe for this table.
  bool has_sentinel_key() const {
    return has_sentinel_key_.load(std::memory_order_relaxed);
  }

  uint64_t num_buckets() const { return buckets_.size(); }
  uint64_t bucket_mask() const { return bucket_mask_; }
  HashKind hash_kind() const { return hash_kind_; }
  BucketNode* buckets() { return buckets_.data(); }
  const BucketNode* buckets() const { return buckets_.data(); }
  uint64_t overflow_nodes_used() const {
    return pool_next_.load(std::memory_order_relaxed);
  }

  /// Walk every chain and gather shape statistics (not a hot path).
  ChainStats ComputeStats() const;

  /// Reference probe used by tests: returns payloads of all tuples whose
  /// key matches, in chain order.
  void FindAll(int64_t key, std::vector<int64_t>* payloads) const;

  /// Walk bucket `bucket_index`'s chain in probe order, appending every
  /// stored tuple.  Used by tests to assert that the partitioned parallel
  /// build produces bit-identical chains to a sequential build.
  void CollectChain(uint64_t bucket_index, std::vector<Tuple>* out) const;

 private:
  AlignedBuffer<BucketNode> buckets_;
  AlignedBuffer<BucketNode> overflow_pool_;
  std::atomic<uint64_t> pool_next_{0};
  std::atomic<bool> has_sentinel_key_{false};
  uint64_t bucket_mask_ = 0;
  HashKind hash_kind_;
};

/// Build the table from a relation, single-threaded (the baseline build;
/// the staged build is BuildOp in join/join_ops.h).
void BuildTableUnsync(const Relation& build, ChainedHashTable* table);

/// Latched parallel build on `num_threads` threads.
void BuildTableParallel(const Relation& build, uint32_t num_threads,
                        ChainedHashTable* table);

}  // namespace amac
