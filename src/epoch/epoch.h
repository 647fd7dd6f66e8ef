// Epoch-based memory reclamation for the concurrent write path.
//
// The read-optimized structures (hashtable/, skiplist/) keep readers fully
// latch-free: a reader walking a chain holds raw node pointers with no
// reference count, so a writer that unlinks a node must not free it while
// any reader might still dereference it.  Epochs solve this with three
// counters instead of per-node bookkeeping:
//
//   * A global epoch `e` advances by one whenever every *pinned*
//     participant has caught up to it (quiescence).
//   * Every reader/writer pins the current epoch for the duration of its
//     structure accesses (an `EpochGuard`).  A pinned participant is always
//     in epoch e or e-1 — never older — because pinning re-reads the global
//     after publishing the pin.
//   * A node retired (unlinked) in epoch r cannot be referenced by guards
//     pinned in epochs > r (it was unreachable before they pinned), so it
//     is free to reclaim once the global reaches r + 2: at that point every
//     guard still pinned is in {r+1, r+2}-or-later.
//
// Design choices, deliberately different from a classic thread-local EBR:
//
//   * Participants are pool slots, NOT thread_locals.  A query's operation
//     (and its guard) migrates across ThreadPool workers between morsels —
//     the serving layer's whole point — so pinning must follow the guard,
//     not the OS thread.  A guard acquires a participant slot on
//     construction and releases it on destruction; slots are cache-line
//     sized and scanned linearly on advance (max_participants is small).
//   * Retire lists are per-participant and unsynchronized: only the guard
//     holding the slot appends.  Reclamation is batched — every
//     `retire_batch` retirements the guard tries to advance the epoch and
//     sweeps its own list.  Whatever is still unreclaimable when the guard
//     dies moves to a mutex-guarded orphan list on the manager, swept by
//     later guards, by the ThreadPool idle hook
//     (ThreadPool::SetIdleTask -> EpochManager::AdvanceAndReclaim), which
//     drives quiescence from workers that have run out of tasks, and by
//     the last live guard's release: with nothing pinned, two advances
//     free every orphan, so retirements never outlive the last guard.
//
// Lifetime rule: deleters typically push nodes back onto the owning
// structure's free list, so the structure must outlive every pending
// retirement.  Drain (ReclaimAll after all guards released) before
// destroying the structure; the benches and tests all follow this order.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/macros.h"

namespace amac {

class EpochGuard;

/// Shared reclamation domain: one per concurrent structure family (the
/// benches use one per workload).  All methods are thread-safe.
class EpochManager {
 public:
  struct Options {
    /// Guard slots available concurrently; a guard construction beyond
    /// this aborts (sized far above any scheduler's slot count).
    uint32_t max_participants = 256;
    /// Retirements a guard accumulates before it attempts an epoch
    /// advance + local sweep (the "epoch advance interval" knob).
    uint32_t retire_batch = 64;
  };

  EpochManager();  ///< default Options
  explicit EpochManager(Options options);
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  uint64_t current_epoch() const {
    return global_.load(std::memory_order_acquire);
  }

  /// Advance the global epoch iff every pinned participant has caught up
  /// to it; true when the epoch moved.
  bool TryAdvance();

  /// The ThreadPool idle hook: try to advance, then sweep the orphan list.
  /// Cheap when there is nothing to do (one atomic load + short scans).
  void AdvanceAndReclaim();

  /// Free every orphaned retirement regardless of epoch.  Only legal when
  /// no guard exists (checked): this is the drain step benches/tests call
  /// after the last query completed, before tearing down structures.
  void ReclaimAll();

  // Leak accounting: after ReclaimAll, retired() == reclaimed() or nodes
  // leaked (the ext_ycsb gate).
  uint64_t retired() const {
    return retired_.load(std::memory_order_relaxed);
  }
  uint64_t reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  uint64_t advances() const {
    return advances_.load(std::memory_order_relaxed);
  }
  /// Live guard count (racy snapshot; observability/tests).
  uint32_t active_guards() const {
    return live_guards_.load(std::memory_order_acquire);
  }
  const Options& options() const { return options_; }

 private:
  friend class EpochGuard;

  /// One deferred free: the object, how to free it, and when it became
  /// unreachable.
  struct Retiree {
    void* obj;
    void (*deleter)(void* obj, void* ctx);
    void* ctx;
    uint64_t epoch;
  };

  /// One guard slot.  `epoch` == 0 means unpinned; `used` claims the slot.
  /// The retire list is touched only by the guard holding the slot.
  struct AMAC_CACHE_ALIGNED Participant {
    std::atomic<uint64_t> epoch{0};
    std::atomic<bool> used{false};
    std::vector<Retiree> retirees;
  };

  Participant* AcquireParticipant();
  /// True when `p` was the last live guard's slot.
  bool ReleaseParticipant(Participant* p);
  /// Free list entries with epoch <= global - 2; returns survivors in
  /// place.  Caller owns `list` exclusively.
  void SweepList(std::vector<Retiree>* list);
  void SweepOrphans();
  /// With no guard pinned: advance twice (every orphan's grace period
  /// ends) and sweep the orphan list.  No-op while the list is empty.
  void DrainOrphans();

  Options options_;
  std::atomic<uint64_t> global_{2};  ///< starts at 2 so epoch-2 never wraps
  std::vector<Participant> participants_;
  std::mutex orphan_mu_;
  std::vector<Retiree> orphans_;  ///< guarded by orphan_mu_
  std::atomic<uint64_t> retired_{0};
  std::atomic<uint64_t> reclaimed_{0};
  std::atomic<uint64_t> advances_{0};
  std::atomic<uint32_t> live_guards_{0};
};

/// RAII pin on the current epoch.  While a guard lives, nothing retired at
/// or after its pinned epoch is freed, so raw pointers read from the
/// protected structure stay dereferenceable.  Movable (operations holding
/// a guard are moved into scheduler slots), not copyable.
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager* manager);
  ~EpochGuard();

  EpochGuard(EpochGuard&& other) noexcept;
  EpochGuard& operator=(EpochGuard&& other) noexcept;
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

  /// Re-pin to the current global epoch if it moved (one relaxed load on
  /// the fast path).  Operations call this in Start() so a long-lived
  /// guard never holds the epoch back by more than one in-flight morsel.
  void Refresh();

  /// Defer `deleter(obj, ctx)` until every epoch pinned now (or earlier)
  /// has been released.  Batches: every retire_batch calls the guard tries
  /// to advance the epoch and free its eligible backlog.
  void Retire(void* obj, void (*deleter)(void* obj, void* ctx), void* ctx);

  uint64_t pinned_epoch() const {
    return participant_->epoch.load(std::memory_order_relaxed);
  }

  EpochManager* manager() const { return manager_; }

 private:
  void Pin();
  void Release();

  EpochManager* manager_ = nullptr;
  EpochManager::Participant* participant_ = nullptr;
};

}  // namespace amac
