//===- support/Supervisor.cpp - Supervised task driver --------------------===//

#include "support/Supervisor.h"

#include "support/FailPoint.h"

#include <cmath>

using namespace alp;

namespace {

/// Supervisor-level fault injection: fires once per supervised task
/// attempt, before the task body runs. Exercises the retry / degradation
/// machinery itself rather than any one stage.
FailPoint FpDriverTask("driver.task");

bool looksLikeDeadline(const Status &S) {
  if (S.code() != StatusCode::BudgetExceeded)
    return false;
  const std::string &C = S.context();
  return C.find("deadline") != std::string::npos ||
         C.find("cancelled") != std::string::npos;
}

} // namespace

Supervisor::Supervisor(ThreadPool *Pool, const ResourceBudget *BudgetTemplate,
                       SupervisorOptions Opts)
    : Pool(Pool), BudgetTemplate(BudgetTemplate), Opts(std::move(Opts)) {
  if (this->Opts.MaxAttempts == 0)
    this->Opts.MaxAttempts = 1;
  if (!(this->Opts.RetryBudgetFactor > 0.0) ||
      this->Opts.RetryBudgetFactor > 1.0)
    this->Opts.RetryBudgetFactor = 0.5;
}

SupervisedOutcome Supervisor::runOne(size_t I, const Task &T) const {
  SupervisedOutcome O;
  const ResourceBudget Base =
      BudgetTemplate ? ResourceBudget(*BudgetTemplate) : ResourceBudget();
  for (unsigned Attempt = 0; Attempt < Opts.MaxAttempts; ++Attempt) {
    // The first attempt runs on a plain copy of the template — consumed
    // counters included, exactly like the pre-supervisor per-task copies.
    // Retries run on fresh counters with every finite limit shrunk, so a
    // retry is strictly cheaper than the attempt that failed.
    ResourceBudget B =
        Attempt == 0
            ? Base
            : Base.degradedCopy(
                  std::pow(Opts.RetryBudgetFactor, static_cast<double>(Attempt)));
    if (Opts.TaskDeadlineMs) {
      auto Limit = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(Opts.TaskDeadlineMs);
      // Tighten, never extend, an already-armed pipeline deadline.
      if (!B.Deadline || Limit < *B.Deadline)
        B.Deadline = Limit;
    }
    B.CancelFlag = &Cancel;
    ++O.Attempts;
    Status S;
    try {
      FpDriverTask.evaluateOrThrow(&B);
      S = T(I, &B);
    } catch (...) {
      S = statusFromCurrentException();
    }
    if (S.isOk()) {
      O.Result = Status::ok();
      O.DeadlineHit = false;
      return O;
    }
    O.Result = S;
    O.DeadlineHit = looksLikeDeadline(S);
    // A cancelled supervisor must not burn retries racing the flag.
    if (cancelRequested())
      break;
  }
  return O;
}

std::vector<SupervisedOutcome> Supervisor::run(size_t N, const Task &T) {
  std::vector<SupervisedOutcome> Outcomes(N);
  auto Body = [&](size_t I) { Outcomes[I] = runOne(I, T); };
  // runOne never lets an exception escape, so every per-index Status from
  // the pool is Ok; the interesting results live in Outcomes.
  if (Pool) {
    Pool->parallelForStatus(N, Body);
  } else {
    for (size_t I = 0; I != N; ++I)
      Body(I);
  }

  uint64_t Retried = 0, Degraded = 0, DeadlineHits = 0;
  for (const SupervisedOutcome &O : Outcomes) {
    Retried += O.retried() ? 1 : 0;
    Degraded += O.degraded() ? 1 : 0;
    DeadlineHits += O.DeadlineHit ? 1 : 0;
  }
  // Counters are index-order aggregates, so they are byte-identical for
  // every pool width (see the determinism caveat in the header).
  Opts.Observe.count("driver.tasks_supervised", N);
  Opts.Observe.count("driver.tasks_retried", Retried);
  Opts.Observe.count("driver.tasks_degraded", Degraded);
  Opts.Observe.count("driver.deadline_hits", DeadlineHits);
  return Outcomes;
}

std::string Supervisor::describe(const SupervisedOutcome &O, size_t Index) {
  if (O.ok() && !O.retried())
    return "";
  std::string What = O.ok() ? "recovered" : "degraded";
  std::string Line = "task " + std::to_string(Index) + " " + What + " after " +
                     std::to_string(O.Attempts) + " attempt" +
                     (O.Attempts == 1 ? "" : "s");
  if (!O.ok())
    Line += ": " + O.Result.str();
  return Line;
}
