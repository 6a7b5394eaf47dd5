//===- support/Budget.h - Resource budgets for exact solvers ----*- C++ -*-===//
///
/// \file
/// The paper's algorithms are exact and worst-case exponential
/// (Fourier-Motzkin doubles constraints per elimination in the worst case;
/// the partition fixpoint is bounded only by dimension growth). A
/// ResourceBudget bounds that work so the pipeline degrades to a
/// conservative answer instead of hanging: dependence tests answer
/// "dependence assumed", partition solves fall back to the trivial
/// (sequential / replicated) decomposition.
///
/// A budget is plumbed by pointer; nullptr everywhere means unlimited.
/// Limits of 0 also mean unlimited, so a default-constructed budget with
/// only one knob set constrains exactly that resource. Counters live in
/// the budget itself: one budget instance caps one pipeline run
/// cumulatively across all its solver invocations.
///
/// Thread-safety: the consumed counters are atomics, so one budget may be
/// charged from several threads without data races. The supervised
/// driver (support/Supervisor.h) hands each task its own *copy* (fresh
/// step counters) so that which task degrades cannot depend on the tasks
/// before it; the wall-clock Deadline is an absolute time point and is
/// therefore shared by value across those copies. Arm the deadline
/// (setDeadlineIn) before making copies, never concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_BUDGET_H
#define ALP_SUPPORT_BUDGET_H

#include "support/Status.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

namespace alp {

/// Work limits plus consumed-so-far counters. Copyable; copying resets
/// nothing, so copy before a run if you want fresh counters.
struct ResourceBudget {
  /// Maximum live constraints in any one Fourier-Motzkin system (caps the
  /// per-elimination quadratic blowup). 0 = unlimited.
  uint64_t MaxFMConstraints = 0;
  /// Cumulative FM elimination steps (lower x upper pair combinations).
  /// 0 = unlimited.
  uint64_t MaxEliminationSteps = 0;
  /// Cumulative solver worklist iterations (partition fixpoint updates,
  /// orientation propagation). 0 = unlimited.
  uint64_t MaxSolverIterations = 0;
  /// Absolute wall-clock deadline. Unset = none.
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  /// Cooperative cancellation token (nullptr = none): the supervised
  /// driver points task-budget copies at one flag so a task that
  /// is past its deadline, or a shutting-down supervisor, can stop every
  /// in-flight solver at its next budget charge. Checked wherever the
  /// deadline is.
  const std::atomic<bool> *CancelFlag = nullptr;

  /// Consumed counters (atomic: see the thread-safety note above).
  std::atomic<uint64_t> UsedEliminationSteps{0};
  std::atomic<uint64_t> UsedSolverIterations{0};

  ResourceBudget() = default;
  ResourceBudget(const ResourceBudget &O)
      : MaxFMConstraints(O.MaxFMConstraints),
        MaxEliminationSteps(O.MaxEliminationSteps),
        MaxSolverIterations(O.MaxSolverIterations), Deadline(O.Deadline),
        CancelFlag(O.CancelFlag),
        UsedEliminationSteps(
            O.UsedEliminationSteps.load(std::memory_order_relaxed)),
        UsedSolverIterations(
            O.UsedSolverIterations.load(std::memory_order_relaxed)) {}
  ResourceBudget &operator=(const ResourceBudget &O) {
    MaxFMConstraints = O.MaxFMConstraints;
    MaxEliminationSteps = O.MaxEliminationSteps;
    MaxSolverIterations = O.MaxSolverIterations;
    Deadline = O.Deadline;
    CancelFlag = O.CancelFlag;
    UsedEliminationSteps.store(
        O.UsedEliminationSteps.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    UsedSolverIterations.store(
        O.UsedSolverIterations.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  /// A budget sized for interactive use: generous enough that every
  /// realistic affine nest fits, small enough that adversarial systems
  /// give up in well under a second.
  static ResourceBudget defaults() {
    ResourceBudget B;
    B.MaxFMConstraints = 4096;
    B.MaxEliminationSteps = 1u << 22;
    B.MaxSolverIterations = 1u << 20;
    return B;
  }

  /// Arms the wall-clock deadline \p Limit from now.
  void setDeadlineIn(std::chrono::milliseconds Limit) {
    Deadline = std::chrono::steady_clock::now() + Limit;
  }

  /// Charges \p N elimination steps; BudgetExceeded once the total passes
  /// the limit (or the deadline has passed).
  Status chargeEliminationSteps(uint64_t N) {
    uint64_t Total =
        UsedEliminationSteps.fetch_add(N, std::memory_order_relaxed) + N;
    if (MaxEliminationSteps && Total > MaxEliminationSteps)
      return Status::error(StatusCode::BudgetExceeded,
                           "Fourier-Motzkin elimination step limit (" +
                               std::to_string(MaxEliminationSteps) +
                               ") exhausted");
    return checkDeadline();
  }

  /// Charges one solver worklist iteration.
  Status chargeSolverIteration() {
    uint64_t Total =
        UsedSolverIterations.fetch_add(1, std::memory_order_relaxed) + 1;
    if (MaxSolverIterations && Total > MaxSolverIterations)
      return Status::error(StatusCode::BudgetExceeded,
                           "solver iteration limit (" +
                               std::to_string(MaxSolverIterations) +
                               ") exhausted");
    return checkDeadline();
  }

  /// Checks a constraint-system size against MaxFMConstraints.
  Status checkConstraintCount(uint64_t Count) const {
    if (MaxFMConstraints && Count > MaxFMConstraints)
      return Status::error(StatusCode::BudgetExceeded,
                           "constraint count " + std::to_string(Count) +
                               " exceeds limit " +
                               std::to_string(MaxFMConstraints));
    return Status::ok();
  }

  /// BudgetExceeded once the wall-clock deadline has passed or the
  /// cancellation token was raised.
  Status checkDeadline() const {
    if (CancelFlag && CancelFlag->load(std::memory_order_relaxed))
      return Status::error(StatusCode::BudgetExceeded, "task cancelled");
    if (Deadline && std::chrono::steady_clock::now() > *Deadline)
      return Status::error(StatusCode::BudgetExceeded,
                           "wall-clock deadline exceeded");
    return Status::ok();
  }

  /// A copy with fresh consumed counters and every finite limit scaled by
  /// \p Factor (floored at 1): the supervised driver retries a failed
  /// task on such a degraded budget so a retry is strictly cheaper than
  /// the attempt that failed. Unlimited (0) knobs stay unlimited.
  ResourceBudget degradedCopy(double Factor) const {
    ResourceBudget B(*this);
    B.UsedEliminationSteps.store(0, std::memory_order_relaxed);
    B.UsedSolverIterations.store(0, std::memory_order_relaxed);
    auto Scale = [Factor](uint64_t Limit) -> uint64_t {
      if (!Limit)
        return 0;
      auto Scaled = static_cast<uint64_t>(static_cast<double>(Limit) * Factor);
      return Scaled ? Scaled : 1;
    };
    B.MaxFMConstraints = Scale(MaxFMConstraints);
    B.MaxEliminationSteps = Scale(MaxEliminationSteps);
    B.MaxSolverIterations = Scale(MaxSolverIterations);
    return B;
  }
};

} // namespace alp

#endif // ALP_SUPPORT_BUDGET_H
