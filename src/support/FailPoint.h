//===- support/FailPoint.h - Deterministic fault injection ------*- C++ -*-===//
///
/// \file
/// A process-wide registry of named fault-injection sites ("failpoints"),
/// threaded through every pipeline stage so the fail-soft contract of
/// docs/ROBUSTNESS.md can be *exercised* on demand instead of waiting for
/// the fuzzer to stumble into a fault. A disarmed site costs one relaxed
/// atomic load (a global armed count), so the sites stay compiled into
/// release builds.
///
/// Each site is a file-local static FailPoint registered at static-init
/// time; `FailPointRegistry::names()` therefore enumerates the full
/// catalog without executing any pipeline code — the chaos harness
/// (tools/alp_chaos.cpp) sweeps it site by site.
///
/// Activation is a spec string, from `alpc --failpoints=...` or the
/// ALP_FAILPOINTS environment variable (comma-separated specs):
///
///   site:mode[:count[:delay_ms]]
///
///   mode            effect at the site
///   --------------  -----------------------------------------------------
///   throw           throw AlpException(StatusCode::FaultInjected)
///   oom             throw std::bad_alloc
///   status-error    return an error Status (sites that cannot return a
///                   Status throw AlpException instead)
///   budget-exhaust  poison the site's ResourceBudget (consumed counters
///                   jump past every finite limit) and return/throw a
///                   BudgetExceeded status
///   delay           sleep delay_ms (default 20) and continue normally
///
/// `count` caps the number of triggers (0 or absent = every hit).
///
/// Determinism: a single compile is single-threaded, so it consumes
/// triggers in one fixed hit order. Under `alpc --batch --jobs N` with
/// N > 1, programs compile concurrently: an unbounded count still faults
/// every task that reaches the site, so the batch report stays
/// byte-identical for every N, but a bounded count is consumed in a racy
/// cross-program order — use bounded counts with `--jobs 1` there (the
/// chaos harness does).
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_FAILPOINT_H
#define ALP_SUPPORT_FAILPOINT_H

#include "support/Budget.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace alp {

/// Injection behavior of an armed failpoint.
enum class FailPointMode {
  Off,
  Throw,
  Oom,
  StatusError,
  BudgetExhaust,
  Delay,
};

/// Stable identifier of a mode ("throw", "oom", ...), or nullptr for Off.
const char *failPointModeName(FailPointMode Mode);

/// All armable modes, in the order the chaos harness sweeps them.
const std::vector<FailPointMode> &allFailPointModes();

/// One named injection site. Define one per site at namespace scope in
/// the .cpp that contains the site:
///
///   static FailPoint FpSolve("core.partition.solve");
///   ...
///   if (Status S = FpSolve.evaluate(Opts.Budget); !S.isOk())
///     return degradeWith(S);           // Status-aware site
///   FpOther.evaluateOrThrow();         // site with no Status channel
///
class FailPoint {
public:
  /// Registers the site under \p Name (must be a string literal; names
  /// are taxonomy "layer.component.operation", see docs/ROBUSTNESS.md).
  explicit FailPoint(const char *Name);

  const char *name() const { return Name; }

  /// Evaluates the site. Disarmed: returns Ok at the cost of one relaxed
  /// load. Armed: throws (throw/oom modes), sleeps (delay), or returns an
  /// error Status (status-error / budget-exhaust; the latter additionally
  /// poisons \p Budget when non-null).
  Status evaluate(ResourceBudget *Budget = nullptr) {
    if (AnyArmed.load(std::memory_order_relaxed) == 0)
      return Status::ok();
    return evaluateSlow(Budget);
  }

  /// evaluate() for sites with no Status return channel: error statuses
  /// become AlpException (caught by the stage boundary like any other
  /// arithmetic failure).
  void evaluateOrThrow(ResourceBudget *Budget = nullptr) {
    if (AnyArmed.load(std::memory_order_relaxed) == 0)
      return;
    Status S = evaluateSlow(Budget);
    if (!S.isOk())
      throw AlpException(S);
  }

private:
  friend class FailPointRegistry;

  Status evaluateSlow(ResourceBudget *Budget);

  /// Arms/disarms; Remaining < 0 means unlimited triggers.
  void arm(FailPointMode M, int64_t Remaining, uint32_t DelayMs);
  void disarm();

  const char *Name;
  std::atomic<int> Mode{static_cast<int>(FailPointMode::Off)};
  /// Remaining triggers; < 0 = unlimited.
  std::atomic<int64_t> Remaining{-1};
  std::atomic<uint32_t> DelayMs{20};

  /// Process-wide count of armed sites: the disarmed fast path is a
  /// single relaxed load of this.
  static std::atomic<uint64_t> AnyArmed;
};

/// The process-wide site catalog and activation front end.
class FailPointRegistry {
public:
  static FailPointRegistry &instance();

  /// Sorted names of every registered site.
  std::vector<std::string> names() const;

  /// The site named \p Name, or nullptr.
  FailPoint *find(const std::string &Name) const;

  /// Parses and arms one "site:mode[:count[:delay_ms]]" spec. Unknown
  /// site, unknown mode, or a malformed count is an InvalidInput error
  /// (listing the valid choices) and arms nothing.
  Status configure(const std::string &Spec);

  /// Comma-separated list of specs; stops at the first error.
  Status configureList(const std::string &Specs);

  /// Arms from the ALP_FAILPOINTS environment variable; Ok when unset.
  Status configureFromEnv();

  /// Disarms every site (trigger totals are kept).
  void reset();

  /// Process-lifetime count of fired injections (all sites, all modes).
  uint64_t triggeredCount() const;

private:
  friend class FailPoint;
  FailPointRegistry() = default;
  void registerPoint(FailPoint *FP);
  static void noteTriggered();
};

} // namespace alp

#endif // ALP_SUPPORT_FAILPOINT_H
