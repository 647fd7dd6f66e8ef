// Unified policy-based execution runtime.
//
// The engine schedules in core/engine.h (sequential, GP, SPP, AMAC) and the
// coroutine interleaver in coro/ are the same abstraction — "run N inputs
// through a resumable operation, differing only in when each input's next
// stage executes" — but historically were five disconnected entry points
// that every bench wired up by hand.  This header collapses them behind one
// runtime-selectable dispatcher:
//
//   SchedulerParams params{.inflight = 10, .stages = 4};
//   EngineStats stats = Run(ExecPolicy::kAmac, params, op, num_inputs);
//
// Any operation satisfying the engine.h Operation concept works with every
// policy, including kCoroutine: a generic adapter wraps the stage machine in
// a C++20 coroutine frame and lets the interleaver do the scheduling, so
// layers get the §6 "coroutine framework" for free without writing co_await
// code.  The parallel driver (core/parallel_driver.h) shards any policy
// across threads with morsel-driven work stealing.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/engine.h"
#include "core/vector_engine.h"
#include "coro/interleaver.h"
#include "coro/task.h"

namespace amac {

/// The schedules a workload can be executed with, selectable at runtime.
/// kSequential..kAmac map onto the engine.h schedules (and onto the
/// paper's Baseline/GP/SPP/AMAC); kCoroutine runs the same operation
/// through the coro/ interleaver (§6's framework direction).  kVectorized
/// and kVectorizedAmac are the SIMD schedules (core/vector_engine.h):
/// batch-gather vectorization and interleaved multi-vectorization; ops
/// without a vector interface run them as their scheduling-equivalent
/// scalar schedule (sequential / AMAC).  kAdaptive is not a schedule of
/// its own: it asks the runtime to *measure and choose* among the static
/// schedules per query (src/adaptive/), so it is only meaningful on the
/// morselized paths (Executor / QueryScheduler).
enum class ExecPolicy : uint8_t {
  kSequential,
  kGroupPrefetch,
  kSoftwarePipelined,
  kAmac,
  kCoroutine,
  kVectorized,
  kVectorizedAmac,
  kAdaptive,
};

/// The seven concrete (static) schedules — the candidate set kAdaptive
/// chooses from, and what every differential/oracle loop iterates.
inline constexpr ExecPolicy kAllExecPolicies[] = {
    ExecPolicy::kSequential,        ExecPolicy::kGroupPrefetch,
    ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac,
    ExecPolicy::kCoroutine,         ExecPolicy::kVectorized,
    ExecPolicy::kVectorizedAmac,
};

inline constexpr size_t kNumStaticExecPolicies =
    sizeof(kAllExecPolicies) / sizeof(kAllExecPolicies[0]);
static_assert(static_cast<size_t>(ExecPolicy::kAdaptive) ==
                  kNumStaticExecPolicies,
              "static policies must be dense below kAdaptive");

/// Dense index of a *static* policy (array slots in per-policy counters);
/// kAdaptive has no slot — it always resolves to a static schedule first.
inline size_t StaticExecPolicyIndex(ExecPolicy policy) {
  AMAC_DCHECK(policy != ExecPolicy::kAdaptive);
  return static_cast<size_t>(policy);
}

inline const char* ExecPolicyName(ExecPolicy policy) {
  switch (policy) {
    case ExecPolicy::kSequential: return "Sequential";
    case ExecPolicy::kGroupPrefetch: return "GP";
    case ExecPolicy::kSoftwarePipelined: return "SPP";
    case ExecPolicy::kAmac: return "AMAC";
    case ExecPolicy::kCoroutine: return "Coroutine";
    case ExecPolicy::kVectorized: return "Vectorized";
    case ExecPolicy::kVectorizedAmac: return "VecAMAC";
    case ExecPolicy::kAdaptive: return "Adaptive";
  }
  return "?";
}

/// Tuning knobs shared by every policy.  `inflight` is the paper's M (AMAC
/// slot count, GP group size, SPP window, coroutine width); `stages` is the
/// paper's N (provisioned staged passes for GP, pipeline stages for SPP;
/// ignored by the dynamic schedules).
struct SchedulerParams {
  uint32_t inflight = 10;
  uint32_t stages = 1;
  /// Explicit SPP prefetch distance; 0 derives it from inflight/stages.
  uint32_t spp_distance = 0;

  /// SPP prefetch distance: the override when set, otherwise derived the
  /// way every driver in the repo does.
  uint32_t SppDistance() const {
    if (spp_distance > 0) return spp_distance;
    return std::max<uint32_t>(1, inflight / std::max(1u, stages));
  }
};

/// Re-bases an operation's [0, n) input indices onto a global range, so an
/// unmodified op (which indexes the full input) can run over a sub-range —
/// a morsel in the parallel driver, or a thread's static partition in the
/// phase drivers.  Part of the runtime's public contract.
template <typename Op>
class OffsetOp : public VecTypesOf<Op> {
 public:
  using State = typename Op::State;

  OffsetOp(Op& op, uint64_t base) : op_(op), base_(base) {}

  void Start(State& st, uint64_t idx) { op_.Start(st, base_ + idx); }
  StepStatus Step(State& st) { return op_.Step(st); }

  // Vector-interface forwarding, instantiated only for ops that have one
  // (VecTypesOf re-exports VecState/kVecLanes in that case), so re-based
  // morsels run the vector schedules too.
  template <typename O = Op, std::enable_if_t<kHasVectorExec<O>, int> = 0>
  void StartVec(typename O::VecState& st, uint64_t base_idx, uint32_t n) {
    op_.StartVec(st, base_ + base_idx, n);
  }
  template <typename O = Op, std::enable_if_t<kHasVectorExec<O>, int> = 0>
  void RefillLane(typename O::VecState& st, uint32_t lane, uint64_t idx) {
    op_.RefillLane(st, lane, base_ + idx);
  }
  template <typename O = Op, std::enable_if_t<kHasVectorExec<O>, int> = 0>
  uint32_t StepVec(typename O::VecState& st) {
    return op_.StepVec(st);
  }

 private:
  Op& op_;
  uint64_t base_;
};

namespace detail {

/// Generic coroutine adapter: the operation's stage machine driven from
/// inside a coroutine frame.  Start()'s prefetch is followed by one
/// suspension, then each Step() suspends on kParked/kRetry — the schedule
/// a hand-written co_await-per-access lookup would have, but derived
/// mechanically from the same Op the other policies run.
template <typename Op>
coro::Task OpTask(Op& op, uint64_t idx, EngineStats& stats) {
  typename Op::State state;
  op.Start(state, idx);
  co_await coro::YieldAwait{};
  while (true) {
    ++stats.steps;
    const StepStatus st = op.Step(state);
    if (st == StepStatus::kDone) co_return;
    if (st == StepStatus::kRetry) {
      ++stats.retries;
    } else {
      ++stats.parks;
    }
    co_await coro::YieldAwait{};
  }
}

template <typename Op>
EngineStats RunCoroutineSchedule(Op& op, uint64_t num_inputs,
                                 uint32_t width) {
  EngineStats stats;
  stats.lookups = num_inputs;
  coro::Interleave(
      [&](uint64_t idx) { return OpTask(op, idx, stats); }, num_inputs,
      width);
  return stats;
}

}  // namespace detail

/// Single entry point subsuming RunSequential / RunGroupPrefetch /
/// RunSoftwarePipelined / RunAmac / coro::Interleave.  Zero inflight/stages
/// are tolerated degenerate values (clamped to 1, matching SppDistance()'s
/// guards) rather than aborting in the schedule preconditions.
template <typename Op>
EngineStats Run(ExecPolicy policy, const SchedulerParams& params, Op& op,
                uint64_t num_inputs) {
  const uint32_t inflight = std::max(1u, params.inflight);
  const uint32_t stages = std::max(1u, params.stages);
  switch (policy) {
    case ExecPolicy::kSequential:
      return RunSequential(op, num_inputs);
    case ExecPolicy::kGroupPrefetch:
      return RunGroupPrefetch(op, num_inputs, inflight, stages);
    case ExecPolicy::kSoftwarePipelined:
      return RunSoftwarePipelined(op, num_inputs, stages,
                                  params.SppDistance());
    case ExecPolicy::kAmac:
      return RunAmac(op, num_inputs, inflight);
    case ExecPolicy::kCoroutine:
      return detail::RunCoroutineSchedule(op, num_inputs, inflight);
    case ExecPolicy::kVectorized:
      // Ops without a vector interface run the scheduling-equivalent
      // scalar schedule: batch SIMD with no interleaving degenerates to
      // the sequential order (identical results, no SIMD speedup).  The
      // fallback is counted so downstream JSON never implies vector
      // execution that did not happen.
      if constexpr (kHasVectorExec<Op>) {
        return RunVectorized(op, num_inputs);
      } else {
        EngineStats stats = RunSequential(op, num_inputs);
        stats.vec_fallbacks = num_inputs;
        return stats;
      }
    case ExecPolicy::kVectorizedAmac:
      if constexpr (kHasVectorExec<Op>) {
        return RunVectorizedAmac(op, num_inputs, inflight);
      } else {
        EngineStats stats = RunAmac(op, num_inputs, inflight);
        stats.vec_fallbacks = num_inputs;
        return stats;
      }
    case ExecPolicy::kAdaptive:
      // Adaptive selection needs a morsel stream to measure against
      // (src/adaptive/governor.h drives it per morsel from the Executor /
      // QueryScheduler paths).  A one-shot Run() call has nothing to
      // calibrate on, so it degrades to the paper's overall-best static
      // schedule with the caller's knobs.
      return RunAmac(op, num_inputs, inflight);
  }
  AMAC_CHECK(false);
  return EngineStats{};
}

}  // namespace amac
