//===- support/Metrics.h - Unified metrics registry -------------*- C++ -*-===//
///
/// \file
/// The single sink for every counter and gauge the pipeline reports. The
/// bespoke stat structs that grew per subsystem (DependenceTierStats,
/// DependenceCacheStats, SimResult, ResourceBudget's consumed fields)
/// remain as thin snapshot views, but all *reporting* flows through a
/// MetricsRegistry: each struct publishes into it under a documented name
/// taxonomy (docs/OBSERVABILITY.md), and the stats emitters render only
/// the registry.
///
/// Two kinds of metric:
///
///  * counters — monotonic uint64 totals. Every published counter is
///    *deterministic*: adds commute and the instrumented code charges the
///    same totals on every run (per-task budget copies, the merge-order
///    cache ledger), so counter snapshots are byte-identical across runs
///    and across `alpc --batch --jobs` values.
///  * gauges — point-in-time doubles (wall times, cache occupancy, the
///    cache's raw lifetime hit/miss totals). Gauges may legitimately vary
///    run to run or with thread scheduling and are therefore kept out of
///    determinism comparisons.
///
/// Thread-safety: all operations take an internal mutex; concurrent
/// compiles of a batch may publish concurrently. Registries are
/// plumbed by pointer through TraceContext (support/Trace.h); a null
/// registry disables collection at near-zero cost.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_METRICS_H
#define ALP_SUPPORT_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace alp {

/// Named monotonic counters and point-in-time gauges.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Adds \p Delta to the counter \p Name (creating it at zero).
  void add(const std::string &Name, uint64_t Delta = 1);

  /// Sets the gauge \p Name to \p Value (last write wins).
  void setGauge(const std::string &Name, double Value);

  /// Current value of a counter (0 when never touched).
  uint64_t counter(const std::string &Name) const;

  /// Current value of a gauge (0.0 when never touched).
  double gauge(const std::string &Name) const;

  /// Sorted snapshots (std::map iteration order is the name order, so a
  /// rendered snapshot is deterministic).
  std::map<std::string, uint64_t> counters() const;
  std::map<std::string, double> gauges() const;

  /// The counters section as a canonical JSON object — the byte-identical-
  /// across-jobs payload the determinism tests compare.
  std::string renderCountersJson() const;

  /// Drops every counter and gauge.
  void clear();

private:
  mutable std::mutex Mutex;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
};

} // namespace alp

#endif // ALP_SUPPORT_METRICS_H
