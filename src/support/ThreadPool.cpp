//===- support/ThreadPool.cpp - Work-queue thread pool ---------------------===//

#include "support/ThreadPool.h"

#include <cassert>

using namespace alp;

/// One parallelFor invocation: a shared index counter the participants
/// drain, per-index failure slots, and a completion latch. Failures are
/// captured twice over: as the original exception_ptr (so parallelFor can
/// rethrow the caller's exact exception type) and as a structured Status
/// (so parallelForStatus and the supervised driver surface every failure
/// in the merged result — nothing is swallowed).
struct ThreadPool::Section {
  const std::function<void(size_t)> *Fn = nullptr;
  size_t N = 0;
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Done{0};
  std::vector<std::exception_ptr> Errors;
  std::vector<Status> Statuses;
  std::mutex DoneMutex;
  std::condition_variable DoneCV;
};

unsigned ThreadPool::hardwareConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::ThreadPool(unsigned Threads) {
  Concurrency = Threads ? Threads : hardwareConcurrency();
  Workers.reserve(Concurrency - 1);
  for (unsigned I = 1; I < Concurrency; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  QueueCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCV.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

namespace {

/// Runs Fn(I), capturing any escaping exception as (exception_ptr,
/// structured Status) at index I. Every failure is recorded — the old
/// bare `catch (...)` that kept only an opaque pointer is gone; unknown
/// exception types still get an explicit "unknown exception" Status.
void runIndex(const std::function<void(size_t)> &Fn, size_t I,
              std::vector<std::exception_ptr> &Errors,
              std::vector<Status> &Statuses) {
  try {
    Fn(I);
  } catch (...) {
    Errors[I] = std::current_exception();
    Statuses[I] = statusFromCurrentException();
  }
}

} // namespace

void ThreadPool::runSection(const std::shared_ptr<Section> &Sec) {
  while (true) {
    size_t I = Sec->Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= Sec->N)
      break;
    runIndex(*Sec->Fn, I, Sec->Errors, Sec->Statuses);
    if (Sec->Done.fetch_add(1, std::memory_order_acq_rel) + 1 == Sec->N) {
      std::lock_guard<std::mutex> Lock(Sec->DoneMutex);
      Sec->DoneCV.notify_all();
    }
  }
}

std::vector<Status>
ThreadPool::parallelForStatus(size_t N,
                              const std::function<void(size_t)> &Fn) {
  std::vector<Status> Statuses(N);
  if (N == 0)
    return Statuses;
  // Nested sections (a task that itself calls parallelFor) run serially:
  // the queue is already saturated with the outer section's work and a
  // blocking inner wait from a worker could deadlock the pool.
  unsigned Expected = ActiveSections.fetch_add(1, std::memory_order_acq_rel);
  bool Parallel = Expected == 0 && !Workers.empty() && N > 1;
  if (!Parallel) {
    ActiveSections.fetch_sub(1, std::memory_order_acq_rel);
    // Same per-index semantics as the parallel path: run every index,
    // capture every failure.
    std::vector<std::exception_ptr> Errors(N);
    for (size_t I = 0; I != N; ++I)
      runIndex(Fn, I, Errors, Statuses);
    return Statuses;
  }

  auto Sec = std::make_shared<Section>();
  Sec->Fn = &Fn;
  Sec->N = N;
  Sec->Errors.resize(N);
  Sec->Statuses.resize(N);
  size_t Runners = std::min<size_t>(Workers.size(), N - 1);
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    for (size_t I = 0; I != Runners; ++I)
      Queue.push_back([this, Sec] { runSection(Sec); });
  }
  QueueCV.notify_all();
  runSection(Sec); // The caller participates.
  {
    std::unique_lock<std::mutex> Lock(Sec->DoneMutex);
    Sec->DoneCV.wait(Lock, [&] {
      return Sec->Done.load(std::memory_order_acquire) == Sec->N;
    });
  }
  ActiveSections.fetch_sub(1, std::memory_order_acq_rel);
  return std::move(Sec->Statuses);
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  // Nested sections run serially (see parallelForStatus).
  unsigned Expected = ActiveSections.fetch_add(1, std::memory_order_acq_rel);
  bool Parallel = Expected == 0 && !Workers.empty() && N > 1;
  if (!Parallel) {
    ActiveSections.fetch_sub(1, std::memory_order_acq_rel);
    // Same per-index semantics as the parallel path: run every index,
    // capture exceptions, rethrow the lowest-index one.
    std::vector<std::exception_ptr> Errors(N);
    std::vector<Status> Statuses(N);
    for (size_t I = 0; I != N; ++I)
      runIndex(Fn, I, Errors, Statuses);
    for (std::exception_ptr &E : Errors)
      if (E)
        std::rethrow_exception(E);
    return;
  }

  auto Sec = std::make_shared<Section>();
  Sec->Fn = &Fn;
  Sec->N = N;
  Sec->Errors.resize(N);
  Sec->Statuses.resize(N);
  size_t Runners = std::min<size_t>(Workers.size(), N - 1);
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    for (size_t I = 0; I != Runners; ++I)
      Queue.push_back([this, Sec] { runSection(Sec); });
  }
  QueueCV.notify_all();
  runSection(Sec); // The caller participates.
  {
    std::unique_lock<std::mutex> Lock(Sec->DoneMutex);
    Sec->DoneCV.wait(Lock, [&] {
      return Sec->Done.load(std::memory_order_acquire) == Sec->N;
    });
  }
  ActiveSections.fetch_sub(1, std::memory_order_acq_rel);
  for (std::exception_ptr &E : Sec->Errors)
    if (E)
      std::rethrow_exception(E);
}
