//===- service/Batch.h - Batch compilation API ------------------*- C++ -*-===//
///
/// \file
/// The batch redesign of the single-shot CompileSession surface: a
/// BatchSession takes N CompileRequests and fans them out over one
/// persistent worker pool with shared DecompositionCache access and warm
/// per-worker arena reuse across requests — the follow-on parked by the
/// arena (PR 7) and service (PR 9) work. Both `alpc --batch <dir>` and
/// the alpd BATCH verb answer through this one code path.
///
/// Execution model, per run():
///
///   1. pre-key: every item is parsed and canonically keyed in parallel
///      (a pure function per item);
///   2. resolve, serially in request order: an item whose key is already
///      in the shared cache is a cache hit; an item whose key matches an
///      earlier un-cached item is a dedup hit of that representative;
///      everything else (including parse failures, which have no key)
///      compiles;
///   3. compile: the representatives run under the Supervisor on the
///      session's persistent pool. A compile is single-threaded and runs
///      whole on one worker, whose thread-local arena blocks persist
///      across requests — a warm batch is allocation-free in the linalg
///      steady state (ArenaTest.BatchSteadyStateAllocationFree);
///   4. merge, serially in request order: results land per item, compiled
///      entries are inserted into the shared cache, dedup hits copy their
///      representative's bytes, and the batch.* tallies are published.
///
/// Determinism: the set of compiled programs, every per-item byte, and
/// the aggregate report are pure functions of the requests and the
/// pre-existing cache contents — identical for every Jobs value. The
/// report (schema v2, kind "batch") therefore carries counters but no
/// gauges, spans, or wall times.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SERVICE_BATCH_H
#define ALP_SERVICE_BATCH_H

#include "core/CompileSession.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alp {

class DecompositionCache;

/// A CompileSession run with both CLI streams captured in memory plus the
/// result facts the batch report aggregates. Exported here so the server's
/// single-COMPILE path and the batch path capture identically.
struct CaptureResult {
  int ExitCode = 0;
  std::string Out, Err;
  unsigned LintErrors = 0;   ///< Lint/verify diagnostics of Kind::Error.
  unsigned LintWarnings = 0; ///< ... and Kind::Warning.
  unsigned Degradations = 0; ///< Decomposition degradation-ledger entries.
};

/// Runs the session for \p Req with stdout/stderr captured via
/// open_memstream; never throws past the session's own guarantees.
CaptureResult runSessionCaptured(const CompileRequest &Req);

/// One item's outcome, in request order.
struct BatchItemResult {
  int ExitCode = 0;
  bool CacheHit = false; ///< Served from the shared cache, no compile.
  bool DedupHit = false; ///< Served from an identical earlier batch item.
  std::string Output, Error;
};

struct BatchOptions {
  /// Persistent worker pool width; 0 = one per hardware thread: how many
  /// items are keyed and compiled concurrently.
  unsigned Jobs = 1;
  /// Shared result cache; null runs cache-less (every unique key
  /// compiles; duplicates still dedup within the batch).
  DecompositionCache *Cache = nullptr;
  /// Supervisor attempts per compiled item (first run + retries).
  unsigned MaxAttempts = 1;
  /// Clamp applied to every item's DriverOptions::DeadlineMs (0 = none),
  /// mirroring ServerOptions::RequestDeadlineMs.
  uint64_t RequestDeadlineMs = 0;
};

class BatchSession {
public:
  explicit BatchSession(const BatchOptions &O);

  /// Compiles \p Items, returning one result per request in order.
  /// Callable repeatedly; the aggregate report accumulates across calls
  /// and the pool (with its warm arenas) persists for the session's
  /// lifetime.
  std::vector<BatchItemResult> run(const std::vector<CompileRequest> &Items);

  /// Aggregated pipeline counters from every compiled request plus the
  /// deterministic batch.* tallies (docs/OBSERVABILITY.md).
  const MetricsRegistry &metrics() const { return Agg; }

  /// The jobs-deterministic aggregate stats document (schema v2, kind
  /// "batch"): batch tallies, cache hit rate, a per-item array (file,
  /// exit, serve source, lint findings, degradations), and the aggregated
  /// counters section. No gauges, spans, or wall times by design.
  std::string reportJson() const;

  ThreadPool &pool() { return Pool; }

private:
  BatchOptions Opts;
  ThreadPool Pool;
  MetricsRegistry Agg;

  /// Per-item report rows, accumulated across run() calls.
  struct ItemRow {
    std::string File;
    std::string Family; ///< Serve source: "compile", "cache", "dedup".
    int ExitCode = 0;
    unsigned LintErrors = 0, LintWarnings = 0, Degradations = 0;
  };
  std::vector<ItemRow> Rows;
  uint64_t Requests = 0, CacheHits = 0, DedupHits = 0, Compiles = 0;
};

} // namespace alp

#endif // ALP_SERVICE_BATCH_H
