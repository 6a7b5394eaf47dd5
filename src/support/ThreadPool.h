//===- support/ThreadPool.h - Work-queue thread pool ------------*- C++ -*-===//
///
/// \file
/// A small work-queue thread pool — no external dependencies, just
/// std::thread. The batch session fans independent programs across cores
/// with parallelFor and merges results in deterministic index order, so
/// parallel output is byte-identical to serial output; alpd's connection
/// workers run on one too.
///
/// Determinism contract: parallelFor(N, Fn) invokes Fn exactly once for
/// every index in [0, N); Fn(i) must write only to per-index state (or to
/// internally synchronized shared state whose observable result is
/// order-independent, e.g. the DependenceCache). The pool never reorders
/// the *merge* — callers combine per-index results by index — so the number
/// of worker threads cannot change the answer, only the wall time.
///
/// A pool of concurrency C spawns C-1 workers; the calling thread
/// participates in its own parallelFor sections. Nested parallelFor calls
/// issued while another section is active on the same pool degrade to
/// serial execution in the caller (no deadlock, no oversubscription).
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_THREADPOOL_H
#define ALP_SUPPORT_THREADPOOL_H

#include "support/Status.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alp {

/// A fixed-size work-queue thread pool.
class ThreadPool {
public:
  /// Creates a pool of concurrency \p Threads (calling thread included);
  /// 0 means hardwareConcurrency(). A pool of concurrency 1 spawns no
  /// worker threads: parallelFor then runs serially but with the exact
  /// same per-index task semantics, so results match any thread count.
  explicit ThreadPool(unsigned Threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Concurrency level (workers + the participating caller).
  unsigned threadCount() const { return Concurrency; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardwareConcurrency();

  /// Runs Fn(0..N-1), each index exactly once, fanned across the pool; the
  /// calling thread participates. Blocks until every index has completed.
  /// Exceptions thrown by Fn are captured per index and the lowest-index
  /// one is rethrown after the section completes (deterministic regardless
  /// of scheduling). Nested sections run serially in the caller.
  void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

  /// parallelFor that never throws: every exception Fn(i) leaks is
  /// captured at index i and converted to a structured Status
  /// (statusFromCurrentException — AlpException keeps its payload,
  /// bad_alloc and unknown exceptions get explicit contexts). Returns one
  /// Status per index, Ok where Fn completed; callers surface failures in
  /// their merged result instead of unwinding past it. The supervised
  /// driver (support/Supervisor.h) builds its retry loop on this.
  std::vector<Status> parallelForStatus(size_t N,
                                        const std::function<void(size_t)> &Fn);

private:
  struct Section;

  void workerLoop();
  void runSection(const std::shared_ptr<Section> &Sec);

  unsigned Concurrency = 1;
  std::vector<std::thread> Workers;
  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<std::function<void()>> Queue;
  bool Stopping = false;
  /// Guards against nested sections deadlocking on the shared queue.
  std::atomic<unsigned> ActiveSections{0};
};

} // namespace alp

#endif // ALP_SUPPORT_THREADPOOL_H
