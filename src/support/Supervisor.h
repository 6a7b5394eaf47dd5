//===- support/Supervisor.h - Supervised task driver ------------*- C++ -*-===//
///
/// \file
/// The defense layer between a driver and its tasks. Inside one compile
/// the Supervisor runs the per-nest and per-batch tasks serially (no
/// pool); the batch session runs its per-program compiles under one on
/// its pool, where ThreadPool::parallelFor guarantees every index runs and
/// captures what it throws. The Supervisor adds policy on top:
///
///  * per-task deadlines — each attempt runs on a budget copy whose
///    wall-clock deadline is the tighter of the pipeline deadline and
///    `TaskDeadlineMs`, so one pathological task cannot stall the run;
///  * cooperative cancellation — every task budget points at the
///    supervisor's cancel flag (ResourceBudget::CancelFlag); raising it
///    stops all in-flight solvers at their next budget charge;
///  * exception capture with structured Status propagation — a task that
///    throws (AlpException, bad_alloc, anything) yields an error Status,
///    never unwinds past the supervisor, and is never swallowed;
///  * bounded retry with a degraded budget — a failed task is retried up
///    to `MaxAttempts` times, each retry on a budget whose finite limits
///    shrink by `RetryBudgetFactor`, before it is marked degraded;
///  * a deterministic ledger — outcomes are merged in index order, so
///    the degradation report and the supervisor counters
///    (driver.tasks_retried / driver.tasks_degraded /
///    driver.deadline_hits) do not depend on scheduling.
///
/// Determinism caveat: deadlines and cancellation are wall-clock facts.
/// With `TaskDeadlineMs = 0` and no cancellation (the default), outcomes
/// are pure functions of the per-task budget limits and therefore
/// deterministic; an armed deadline trades that for boundedness,
/// exactly like DriverOptions::DeadlineMs always has.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_SUPERVISOR_H
#define ALP_SUPPORT_SUPERVISOR_H

#include "support/Budget.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <functional>
#include <string>
#include <vector>

namespace alp {

/// What happened to one supervised task after all attempts.
struct SupervisedOutcome {
  /// Ok if some attempt completed; otherwise the last attempt's failure.
  Status Result;
  /// Attempts actually made (>= 1).
  unsigned Attempts = 0;
  /// The last failure hit the per-task deadline or the cancel flag.
  bool DeadlineHit = false;

  bool ok() const { return Result.isOk(); }
  bool retried() const { return Attempts > 1; }
  /// Every attempt failed: the caller must substitute its stage's
  /// conservative fallback for this index.
  bool degraded() const { return !Result.isOk(); }
};

/// Supervision policy. Defaults supervise without changing behavior: one
/// retry, no per-task deadline, budget limits halved on retry.
struct SupervisorOptions {
  /// Total attempts per task (first run + retries); min 1.
  unsigned MaxAttempts = 2;
  /// Per-attempt wall-clock deadline in milliseconds; 0 = none. Never
  /// extends a deadline already armed on the budget template.
  uint64_t TaskDeadlineMs = 0;
  /// Finite budget limits are scaled by this per retry (attempt k runs
  /// on Factor^k of the template's limits).
  double RetryBudgetFactor = 0.5;
  /// Sink for the supervisor counters; may be empty.
  TraceContext Observe;
};

/// Runs homogeneous index tasks under the supervision policy above.
class Supervisor {
public:
  /// A task: index -> Status, on a supervisor-owned budget copy. The
  /// budget pointer is never null and carries the task deadline and the
  /// cancel flag; tasks should pass it to every solver they invoke.
  using Task = std::function<Status(size_t, ResourceBudget *)>;

  /// \p Pool may be null (tasks then run serially in index order, same
  /// semantics). \p BudgetTemplate may be null (tasks run on an unlimited
  /// budget that still carries deadline + cancellation).
  Supervisor(ThreadPool *Pool, const ResourceBudget *BudgetTemplate,
             SupervisorOptions Opts = {});

  /// Runs tasks 0..N-1, each attempted per the policy, and returns one
  /// outcome per index. Also publishes, into Observe:
  ///   driver.tasks_supervised  — N
  ///   driver.tasks_retried     — tasks with Attempts > 1
  ///   driver.tasks_degraded    — tasks whose every attempt failed
  ///   driver.deadline_hits     — tasks whose last failure was the
  ///                              deadline / cancellation
  std::vector<SupervisedOutcome> run(size_t N, const Task &T);

  /// Raises the cooperative cancel flag: every in-flight task budget
  /// reports BudgetExceeded ("task cancelled") at its next charge, and no
  /// further retries start.
  void requestCancel() { Cancel.store(true, std::memory_order_relaxed); }
  bool cancelRequested() const {
    return Cancel.load(std::memory_order_relaxed);
  }

  /// One deterministic ledger line for a non-clean outcome ("" for a
  /// first-attempt success): "<what> after N attempt(s): <status>".
  static std::string describe(const SupervisedOutcome &O, size_t Index);

private:
  SupervisedOutcome runOne(size_t I, const Task &T) const;

  ThreadPool *Pool;
  const ResourceBudget *BudgetTemplate;
  SupervisorOptions Opts;
  std::atomic<bool> Cancel{false};
};

} // namespace alp

#endif // ALP_SUPPORT_SUPERVISOR_H
