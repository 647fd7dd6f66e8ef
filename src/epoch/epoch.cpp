#include "epoch/epoch.h"

#include <utility>

#include "common/latch.h"

namespace amac {

EpochManager::EpochManager() : EpochManager(Options{}) {}

EpochManager::EpochManager(Options options)
    : options_(options),
      participants_(std::max(1u, options.max_participants)) {
  options_.max_participants = static_cast<uint32_t>(participants_.size());
  options_.retire_batch = std::max(1u, options_.retire_batch);
}

EpochManager::~EpochManager() {
  // Guards must not outlive the manager; retirements left behind are freed
  // here so a drained-but-not-ReclaimAll'd manager does not leak.
  AMAC_CHECK(active_guards() == 0);
  ReclaimAll();
}

bool EpochManager::TryAdvance() {
  const uint64_t e = global_.load(std::memory_order_seq_cst);
  for (const Participant& p : participants_) {
    if (!p.used.load(std::memory_order_acquire)) continue;
    const uint64_t pinned = p.epoch.load(std::memory_order_acquire);
    // A pinned participant behind the current epoch blocks the advance
    // (it may still hold pointers retired in e - 1).
    if (pinned != 0 && pinned != e) return false;
  }
  uint64_t expected = e;
  if (global_.compare_exchange_strong(expected, e + 1,
                                      std::memory_order_seq_cst)) {
    advances_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;  // another thread advanced first; its progress counts
}

void EpochManager::SweepList(std::vector<Retiree>* list) {
  if (list->empty()) return;
  const uint64_t global = global_.load(std::memory_order_acquire);
  size_t kept = 0;
  for (Retiree& r : *list) {
    if (r.epoch + 2 <= global) {
      r.deleter(r.obj, r.ctx);
      reclaimed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      (*list)[kept++] = r;
    }
  }
  list->resize(kept);
}

void EpochManager::SweepOrphans() {
  std::lock_guard<std::mutex> lock(orphan_mu_);
  SweepList(&orphans_);
}

void EpochManager::DrainOrphans() {
  std::lock_guard<std::mutex> lock(orphan_mu_);
  if (orphans_.empty()) return;
  TryAdvance();
  TryAdvance();
  SweepList(&orphans_);
}

void EpochManager::AdvanceAndReclaim() {
  TryAdvance();
  SweepOrphans();
}

void EpochManager::ReclaimAll() {
  AMAC_CHECK_MSG(active_guards() == 0,
                 "ReclaimAll with a live EpochGuard would free in-use nodes");
  std::lock_guard<std::mutex> lock(orphan_mu_);
  for (const Retiree& r : orphans_) {
    r.deleter(r.obj, r.ctx);
    reclaimed_.fetch_add(1, std::memory_order_relaxed);
  }
  orphans_.clear();
}

EpochManager::Participant* EpochManager::AcquireParticipant() {
  for (uint64_t rounds = 0;; ++rounds) {
    for (Participant& p : participants_) {
      bool expected = false;
      if (!p.used.load(std::memory_order_relaxed) &&
          p.used.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
        live_guards_.fetch_add(1, std::memory_order_acq_rel);
        return &p;
      }
    }
    // All slots claimed: guards churn fast (one per query slot), so spin
    // rather than abort — sized generously, this path is cold.  But a
    // caller LEAKING guards turns this spin into a silent livelock, so
    // after an implausible number of full-table scans, abort loudly with
    // the diagnosis instead of wedging the process.
    AMAC_CHECK_MSG(rounds < (uint64_t{1} << 32),
                   "EpochManager participant table exhausted for too long: "
                   "some component is holding EpochGuards indefinitely "
                   "(leak), or max_participants is far too small for the "
                   "number of concurrently live guards");
    Latch::CpuRelax();
  }
}

bool EpochManager::ReleaseParticipant(Participant* p) {
  p->epoch.store(0, std::memory_order_release);
  p->used.store(false, std::memory_order_release);
  return live_guards_.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

EpochGuard::EpochGuard(EpochManager* manager) : manager_(manager) {
  AMAC_CHECK(manager_ != nullptr);
  participant_ = manager_->AcquireParticipant();
  Pin();
}

EpochGuard::EpochGuard(EpochGuard&& other) noexcept
    : manager_(std::exchange(other.manager_, nullptr)),
      participant_(std::exchange(other.participant_, nullptr)) {}

EpochGuard& EpochGuard::operator=(EpochGuard&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = std::exchange(other.manager_, nullptr);
    participant_ = std::exchange(other.participant_, nullptr);
  }
  return *this;
}

EpochGuard::~EpochGuard() { Release(); }

void EpochGuard::Pin() {
  // Publish-then-verify: after storing the pin, the global may already
  // have moved past it (an advancing thread scanned before our store).
  // Re-reading and re-publishing until they agree guarantees the pin is
  // never more than one epoch behind any advance that observed it.
  for (;;) {
    const uint64_t e = manager_->global_.load(std::memory_order_seq_cst);
    participant_->epoch.store(e, std::memory_order_seq_cst);
    if (manager_->global_.load(std::memory_order_seq_cst) == e) break;
  }
  // Fence-pair with Retire()'s fence: a guard whose pin-verify load saw
  // epoch >= r + 1 is guaranteed to also see every unlink sequenced before
  // a Retire tagged r (the unlinker's fence precedes its tag load, which
  // precedes the r -> r+1 advance, which precedes this pin's verify load
  // in the seq_cst order) — so only guards pinned at r itself can hold
  // pointers to epoch-r retirees, and they block the advance to r + 2.
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void EpochGuard::Refresh() {
  if (participant_ == nullptr) return;
  const uint64_t e = manager_->global_.load(std::memory_order_relaxed);
  if (e != participant_->epoch.load(std::memory_order_relaxed)) Pin();
}

void EpochGuard::Retire(void* obj, void (*deleter)(void*, void*),
                        void* ctx) {
  AMAC_CHECK(participant_ != nullptr);
  // See Pin(): the fence orders the caller's unlink stores before the
  // epoch tag in the seq_cst order, making them visible to every guard
  // that pins a later epoch.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const uint64_t e = manager_->global_.load(std::memory_order_seq_cst);
  participant_->retirees.push_back(
      EpochManager::Retiree{obj, deleter, ctx, e});
  manager_->retired_.fetch_add(1, std::memory_order_relaxed);
  if (participant_->retirees.size() >= manager_->options_.retire_batch) {
    manager_->TryAdvance();
    manager_->SweepList(&participant_->retirees);
  }
}

void EpochGuard::Release() {
  if (participant_ == nullptr) return;
  // Final sweep of the local backlog; whatever the epoch has not caught up
  // with yet is handed to the manager's orphan list for later guards (or
  // the idle hook / ReclaimAll) to free.
  manager_->TryAdvance();
  manager_->SweepList(&participant_->retirees);
  if (!participant_->retirees.empty()) {
    std::lock_guard<std::mutex> lock(manager_->orphan_mu_);
    for (const EpochManager::Retiree& r : participant_->retirees) {
      manager_->orphans_.push_back(r);
    }
  }
  participant_->retirees.clear();
  // The last guard out leaves nothing pinned: drain the orphans now, so a
  // domain that goes idle never keeps retirements waiting for a later
  // guard or idle hook that may not come.
  if (manager_->ReleaseParticipant(participant_)) manager_->DrainOrphans();
  participant_ = nullptr;
  manager_ = nullptr;
}

}  // namespace amac
