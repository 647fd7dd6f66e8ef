#include "common/thread_pool.h"

namespace amac {

void ParallelFor(uint32_t num_threads,
                 const std::function<void(uint32_t)>& fn) {
  AMAC_CHECK(num_threads > 0);
  if (num_threads == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&fn, t] { fn(t); });
  }
  for (auto& th : threads) th.join();
}

ThreadPool::ThreadPool(uint32_t num_threads)
    : num_threads_(std::max(1u, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (uint32_t t = 1; t < num_threads_; ++t) {
    workers_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(uint32_t tid) {
  uint64_t seen = 0;
  bool worked = false;  // ran a closure or task since the last idle hook
  for (;;) {
    const std::function<void(uint32_t)>* fn = nullptr;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto ready = [&] {
        return stop_ || generation_ != seen || !tasks_.empty();
      };
      // Each time the worker runs out of work, run the idle hook once
      // (outside the lock — it may take other locks), then block until the
      // next notify.  A worker that did no work since its last hook run (a
      // fresh or spuriously woken one) parks without running it.
      while (!ready()) {
        if (worked && idle_) {
          worked = false;
          std::function<void()> idle = idle_;
          lock.unlock();
          idle();
          lock.lock();
          if (ready()) break;
        }
        work_cv_.wait(lock);
      }
      if (stop_) return;
      if (generation_ != seen) {
        // Fork-join generations take precedence: a Run() caller is blocked
        // synchronously while queued tasks have asynchronous waiters.
        seen = generation_;
        fn = fn_;
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    worked = true;
    if (fn != nullptr) {
      (*fn)(tid);
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    } else {
      task();
    }
  }
}

void ThreadPool::Run(const std::function<void(uint32_t)>& fn) {
  if (num_threads_ == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    pending_ = num_threads_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  fn(0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool ThreadPool::TryRunTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::SetIdleTask(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  idle_ = std::move(task);
}

uint64_t ThreadPool::queued_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

Range PartitionRange(uint64_t total, uint32_t parts, uint32_t index) {
  AMAC_CHECK(parts > 0 && index < parts);
  const uint64_t base = total / parts;
  const uint64_t extra = total % parts;
  const uint64_t begin =
      static_cast<uint64_t>(index) * base + (index < extra ? index : extra);
  const uint64_t len = base + (index < extra ? 1 : 0);
  return Range{begin, begin + len};
}

}  // namespace amac
