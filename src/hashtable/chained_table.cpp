#include "hashtable/chained_table.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace amac {

ChainedHashTable::ChainedHashTable(uint64_t expected_tuples, Options options)
    : hash_kind_(options.hash_kind) {
  AMAC_CHECK(expected_tuples > 0);
  AMAC_CHECK(options.target_nodes_per_bucket > 0);
  const double tuples_per_bucket =
      options.target_nodes_per_bucket * BucketNode::kTuplesPerNode;
  uint64_t nbuckets = NextPow2(static_cast<uint64_t>(
      static_cast<double>(expected_tuples) / tuples_per_bucket + 0.5));
  nbuckets = std::max<uint64_t>(nbuckets, 1);
  buckets_ = AlignedBuffer<BucketNode>(nbuckets);
  bucket_mask_ = nbuckets - 1;
  for (BucketNode& b : buckets_) {
    b.tuples[0].key = BucketNode::kEmptySlotKey;
    b.tuples[1].key = BucketNode::kEmptySlotKey;
  }

  uint64_t pool_cap = options.overflow_capacity;
  if (pool_cap == 0) {
    // Worst case: every tuple collides into a single chain; the header
    // absorbs 2 tuples and each overflow node another 2.
    pool_cap = expected_tuples / BucketNode::kTuplesPerNode + 2;
  }
  overflow_pool_ = AlignedBuffer<BucketNode>(pool_cap);
}

void ChainedHashTable::Clear() {
  for (BucketNode& b : buckets_) {
    b.count = 0;
    b.tuples[0].key = BucketNode::kEmptySlotKey;
    b.tuples[1].key = BucketNode::kEmptySlotKey;
    b.next = nullptr;
  }
  pool_next_.store(0, std::memory_order_relaxed);
  has_sentinel_key_.store(false, std::memory_order_relaxed);
}

BucketNode* ChainedHashTable::AllocOverflowNode() {
  const uint64_t idx = pool_next_.fetch_add(1, std::memory_order_relaxed);
  AMAC_CHECK_MSG(idx < overflow_pool_.size(), "overflow pool exhausted");
  BucketNode* node = &overflow_pool_[idx];
  node->count = 0;
  node->tuples[0].key = BucketNode::kEmptySlotKey;
  node->tuples[1].key = BucketNode::kEmptySlotKey;
  node->next = nullptr;
  return node;
}

void ChainedHashTable::InsertUnsync(const Tuple& t) {
  InsertInto(BucketForKey(t.key), t);
}

void ChainedHashTable::InsertSync(const Tuple& t) {
  BucketNode* head = BucketForKey(t.key);
  LatchGuard guard(head->latch);
  InsertInto(head, t);
}

ChainStats ChainedHashTable::ComputeStats() const {
  ChainStats stats;
  stats.num_buckets = buckets_.size();
  std::vector<uint64_t> tuples_per_bucket;
  tuples_per_bucket.reserve(buckets_.size());
  for (const BucketNode& head : buckets_) {
    uint64_t nodes = 0;
    uint64_t tuples = 0;
    for (const BucketNode* n = &head; n != nullptr; n = n->next) {
      if (n->count == 0 && n == &head && head.next == nullptr) break;
      ++nodes;
      tuples += n->count;
    }
    tuples_per_bucket.push_back(tuples);
    if (nodes == 0) continue;
    ++stats.used_buckets;
    stats.total_nodes += nodes;
    stats.total_tuples += tuples;
    stats.max_chain_nodes = std::max(stats.max_chain_nodes, nodes);
    stats.chain_length_hist.Add(nodes);
  }
  if (stats.used_buckets > 0) {
    stats.avg_nodes_per_used_bucket =
        static_cast<double>(stats.total_nodes) /
        static_cast<double>(stats.used_buckets);
  }
  if (stats.total_tuples > 0) {
    std::sort(tuples_per_bucket.begin(), tuples_per_bucket.end(),
              std::greater<uint64_t>());
    const uint64_t top = std::max<uint64_t>(tuples_per_bucket.size() / 100, 1);
    uint64_t in_top = 0;
    for (uint64_t i = 0; i < top; ++i) in_top += tuples_per_bucket[i];
    stats.top1pct_tuple_share =
        static_cast<double>(in_top) / static_cast<double>(stats.total_tuples);
  }
  return stats;
}

void ChainedHashTable::FindAll(int64_t key,
                               std::vector<int64_t>* payloads) const {
  for (const BucketNode* n = BucketForKey(key); n != nullptr; n = n->next) {
    for (uint32_t i = 0; i < n->count; ++i) {
      if (n->tuples[i].key == key) payloads->push_back(n->tuples[i].payload);
    }
  }
}

void ChainedHashTable::CollectChain(uint64_t bucket_index,
                                    std::vector<Tuple>* out) const {
  AMAC_CHECK(bucket_index < buckets_.size());
  for (const BucketNode* n = &buckets_[bucket_index]; n != nullptr;
       n = n->next) {
    for (uint32_t i = 0; i < n->count; ++i) out->push_back(n->tuples[i]);
  }
}

void BuildTableUnsync(const Relation& build, ChainedHashTable* table) {
  for (const Tuple& t : build) table->InsertUnsync(t);
}

void BuildTableParallel(const Relation& build, uint32_t num_threads,
                        ChainedHashTable* table) {
  ParallelFor(num_threads, [&](uint32_t tid) {
    const Range r = PartitionRange(build.size(), num_threads, tid);
    for (uint64_t i = r.begin; i < r.end; ++i) table->InsertSync(build[i]);
  });
}

}  // namespace amac
