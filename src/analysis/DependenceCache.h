//===- analysis/DependenceCache.h - Memoized bounds projections -*- C++ -*-===//
///
/// \file
/// An LRU-bounded memoization table for the expensive core of the exact
/// dependence test: Fourier-Motzkin bounds projections of a dependence
/// polyhedron onto one variable. Keys are canonical system keys
/// (linalg/SystemKey.h) plus the projected variable index, so structurally
/// identical systems — ubiquitous in stencil codes where many access pairs
/// share one shape — are solved once and replayed from the cache.
///
/// Budget contract: only *successfully computed* projections are stored.
/// A cache hit replays a result whose elimination steps were already
/// charged when it was first computed, so the hit itself charges nothing —
/// a cached answer never double-charges the ResourceBudget (results that
/// degraded on budget exhaustion or overflow are never cached, because a
/// larger budget could do better on the next attempt).
///
/// Thread-safety: all operations take an internal mutex, so one cache may
/// be shared across threads. Hit/miss counters are kept under the same
/// lock.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_ANALYSIS_DEPENDENCECACHE_H
#define ALP_ANALYSIS_DEPENDENCECACHE_H

#include "linalg/SystemKey.h"
#include "support/Metrics.h"

#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace alp {

/// Hit/miss counters of one cache (monotone; snapshot under the lock).
struct DependenceCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / Total : 0.0;
  }

  /// Publishes this snapshot into \p MR as "dep.cache.raw_*" gauges.
  /// Gauges, not counters: raw traffic varies with thread scheduling
  /// (concurrent workers can both miss one key), unlike the logical
  /// ledger DependenceTierStats publishes (docs/OBSERVABILITY.md).
  void publishTo(MetricsRegistry &MR) const;
};

/// LRU map from (canonical system, variable) to the variable's projected
/// bounds (nullopt bounds = the system is infeasible).
class DependenceCache {
public:
  /// \p Capacity bounds the number of live entries; 0 means unbounded.
  explicit DependenceCache(size_t Capacity = 1 << 12)
      : Capacity(Capacity) {}

  DependenceCache(const DependenceCache &) = delete;
  DependenceCache &operator=(const DependenceCache &) = delete;

  /// Returns the cached projection of \p Var under \p Key, or nullopt on a
  /// miss. The outer optional distinguishes hit/miss; the inner one is the
  /// cached value itself (nullopt = infeasible system).
  std::optional<std::optional<VariableBounds>>
  lookupBounds(const CanonicalSystemKey &Key, unsigned Var);

  /// Stores a successfully computed projection (evicting the least
  /// recently used entry when full).
  void storeBounds(const CanonicalSystemKey &Key, unsigned Var,
                   const std::optional<VariableBounds> &Bounds);

  DependenceCacheStats stats() const;

  /// Drops every entry (counters are kept).
  void clear();

private:
  struct EntryKey {
    CanonicalSystemKey System;
    unsigned Var = 0;

    bool operator==(const EntryKey &RHS) const {
      return Var == RHS.Var && System == RHS.System;
    }
  };
  struct EntryKeyHash {
    size_t operator()(const EntryKey &K) const {
      return static_cast<size_t>(K.System.Hash * 1099511628211ull + K.Var);
    }
  };
  struct Entry {
    EntryKey Key;
    std::optional<VariableBounds> Bounds;
  };

  size_t Capacity;
  mutable std::mutex Mutex;
  /// Most recently used at the front.
  std::list<Entry> Lru;
  std::unordered_map<EntryKey, std::list<Entry>::iterator, EntryKeyHash>
      Index;
  DependenceCacheStats Stats;
};

} // namespace alp

#endif // ALP_ANALYSIS_DEPENDENCECACHE_H
