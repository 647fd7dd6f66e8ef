// Thread team primitives: per-call fork-join (ParallelFor), a persistent
// fork-join team with a task queue (ThreadPool), and the morsel cursor.
//
// Benchmarks need "run this closure on T threads, each knowing its id, and
// join"; the serving layer additionally needs "run these queued tasks on
// whichever worker is free" so morsels from different queries can
// interleave on one shared team.  Both modes share ThreadPool's workers.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"

namespace amac {

/// Run `fn(thread_id)` on `num_threads` std::threads and join them all.
void ParallelFor(uint32_t num_threads,
                 const std::function<void(uint32_t)>& fn);

/// Persistent thread team: `size() - 1` workers are spawned once and parked
/// on a condition variable; every Run() reuses them, so the per-call
/// std::thread spawn/join cost of ParallelFor (hundreds of microseconds for
/// a wide team) is paid once per pool instead of once per phase.  The core
/// Executor owns one of these across Run() calls.
///
/// Thread id 0 is the calling thread — a pool of size 1 runs entirely
/// inline, keeping the single-threaded path identical to a plain call.
/// Run() is fork-join (returns after every thread finished) and is NOT
/// reentrant: calling Run() from inside a pool closure deadlocks.
///
/// Beyond fork-join, the same workers drain a FIFO *task queue*
/// (Submit/TryRunTask): the serving layer (server/query_scheduler.h)
/// enqueues one task per in-flight morsel so lookups from different
/// queries interleave on one shared team, and any thread — worker or a
/// client blocked in Wait() — can help drain the queue.  Fork-join Run()
/// and queued tasks may coexist: a worker finishes its current task before
/// joining a fork-join generation.  Do not call Run() while tasks that
/// take long are queued if the closure uses spin barriers.
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t size() const { return num_threads_; }

  /// Run `fn(tid)` for every tid in [0, size()); tid 0 executes on the
  /// caller.  Returns once all threads completed the closure.
  void Run(const std::function<void(uint32_t)>& fn);

  /// Enqueue a task for any free worker.  Tasks run in FIFO order (the
  /// interleaving discipline: a resubmitted morsel task goes to the back,
  /// so concurrent queries round-robin).  With size() == 1 there are no
  /// workers; tasks only run when some thread calls TryRunTask().
  void Submit(std::function<void()> task);

  /// Pop and run one queued task on the calling thread; false when the
  /// queue was empty.  Lets client threads blocked on a result help drain
  /// the queue instead of idling (work-conserving Wait()).
  bool TryRunTask();

  /// Tasks currently queued (racy snapshot; observability only).
  uint64_t queued_tasks() const;

  /// Install (or clear, with an empty function) a closure every worker runs
  /// once each time it runs out of work: after a task or fork-join closure,
  /// before parking.  Installing it wakes no one, and a worker that has
  /// done no work since its last run does not run it again, so the hook
  /// never fires on an idle pool.  The epoch subsystem hooks
  /// EpochManager::AdvanceAndReclaim here so quiescence advances and
  /// orphaned retirements drain from workers between queries.  The closure
  /// must be cheap, must not touch the pool, and must tolerate concurrent
  /// invocation from several workers.
  void SetIdleTask(std::function<void()> task);

 private:
  void WorkerLoop(uint32_t tid);

  const uint32_t num_threads_;
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(uint32_t)>* fn_ = nullptr;  ///< guarded by mu_
  uint64_t generation_ = 0;                            ///< guarded by mu_
  uint32_t pending_ = 0;                               ///< guarded by mu_
  std::deque<std::function<void()>> tasks_;            ///< guarded by mu_
  std::function<void()> idle_;                         ///< guarded by mu_
  bool stop_ = false;                                  ///< guarded by mu_
};

/// Split [0, total) into `parts` contiguous ranges; returns [begin, end) of
/// range `index`. Remainder elements go to the leading ranges so sizes
/// differ by at most one.
struct Range {
  uint64_t begin;
  uint64_t end;
  uint64_t size() const { return end - begin; }
};
Range PartitionRange(uint64_t total, uint32_t parts, uint32_t index);

/// Atomic work-stealing cursor over [0, total): threads claim fixed-size
/// morsels until the input is exhausted.  Unlike PartitionRange's static
/// split, stragglers (skewed chains, latch contention) cannot leave other
/// threads idle — the morsel-driven parallelism the parallel driver uses.
class MorselCursor {
 public:
  MorselCursor(uint64_t total, uint64_t morsel_size)
      : total_(total), morsel_(morsel_size) {
    AMAC_CHECK(morsel_size >= 1);
  }

  /// Claim the next unclaimed morsel; false once the input is exhausted.
  bool Next(Range* out) {
    const uint64_t begin =
        next_.fetch_add(morsel_, std::memory_order_relaxed);
    if (begin >= total_) return false;
    out->begin = begin;
    out->end = std::min(total_, begin + morsel_);
    return true;
  }

  uint64_t total() const { return total_; }
  uint64_t morsel_size() const { return morsel_; }

 private:
  std::atomic<uint64_t> next_{0};
  const uint64_t total_;
  const uint64_t morsel_;
};

}  // namespace amac
