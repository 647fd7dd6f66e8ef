// One-byte test-and-set latch, matching the paper's data-structure layout
// ("each hash table bucket contains a 1-byte latch").
//
// Two acquisition modes mirror §3.2:
//  * TryAcquire(): single atomic exchange, never spins.  AMAC uses this —
//    on failure the lookup is parked in its circular-buffer slot and the
//    engine moves on to the next in-flight lookup ("we still spin on the
//    latch but at a coarser granularity").
//  * Acquire(): spin until acquired. Baseline/GP/SPP use this.
//
// Single-threaded runs can use the *Unsync variants which elide atomics
// (paper: "for single-threaded runs ... no need for an atomic instruction").
#pragma once

#include <atomic>
#include <cstdint>

#include "common/macros.h"

namespace amac {

class Latch {
 public:
  Latch() = default;

  /// One atomic exchange; returns true iff the latch was free.
  bool TryAcquire() {
    return state_.exchange(1, std::memory_order_acquire) == 0;
  }

  /// Spin (with pause) until acquired.
  void Acquire() {
    while (!TryAcquire()) {
      while (state_.load(std::memory_order_relaxed) != 0) CpuRelax();
    }
  }

  void Release() { state_.store(0, std::memory_order_release); }

  bool IsHeld() const { return state_.load(std::memory_order_relaxed) != 0; }

  /// Non-atomic variants for single-threaded execution.
  bool TryAcquireUnsync() {
    auto* raw = reinterpret_cast<uint8_t*>(&state_);
    if (*raw != 0) return false;
    *raw = 1;
    return true;
  }
  void ReleaseUnsync() { *reinterpret_cast<uint8_t*>(&state_) = 0; }

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

 private:
  std::atomic<uint8_t> state_{0};
};

static_assert(sizeof(Latch) == 1, "latch must stay a single byte");

/// Latch::TryAcquire when kSync, else TryAcquireUnsync: for code templated
/// on whether other threads share the latch.
template <bool kSync>
inline bool TryAcquireLatch(Latch& latch) {
  return kSync ? latch.TryAcquire() : latch.TryAcquireUnsync();
}

/// Latch::Release when kSync, else ReleaseUnsync.
template <bool kSync>
inline void ReleaseLatch(Latch& latch) {
  if constexpr (kSync) {
    latch.Release();
  } else {
    latch.ReleaseUnsync();
  }
}

/// RAII guard for the spinning Acquire() mode.
class LatchGuard {
 public:
  explicit LatchGuard(Latch& latch) : latch_(latch) { latch_.Acquire(); }
  ~LatchGuard() { latch_.Release(); }
  LatchGuard(const LatchGuard&) = delete;
  LatchGuard& operator=(const LatchGuard&) = delete;

 private:
  Latch& latch_;
};

}  // namespace amac
