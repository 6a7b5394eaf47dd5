//===- support/Trace.h - Hierarchical RAII span tracing ---------*- C++ -*-===//
///
/// \file
/// Where compile time goes: an RAII span tracer in the spirit of LLVM's
/// -ftime-trace TimeProfiler. A TraceSpan measures one pipeline stage (or
/// one per-nest / per-component task inside a stage) on the steady clock;
/// spans are thread-aware — each span records its thread's ordinal, so
/// programs compiled concurrently by `alpc --batch --jobs N` render as
/// separate rows when the trace is loaded into chrome://tracing, while
/// one compile's spans share a row, nested (in time) under their
/// enclosing phase span.
///
/// Cost model: tracing is opt-in by pointer. A null Tracer* makes
/// TraceSpan construction a pointer test and nothing else — no clock
/// read, no allocation, no lock — so instrumentation stays in release
/// builds at near-zero cost (the perf_dependence harness guards the
/// disabled path against regression). Span names are static strings (a
/// fixed taxonomy, documented in docs/OBSERVABILITY.md); the per-instance
/// identity (nest id, component id, processor count) travels in the
/// integer Detail argument, never in a formatted name.
///
/// Emitters: writeChromeTrace renders the Chrome trace-event JSON format
/// (ph:"X" complete events) consumed by chrome://tracing and Perfetto;
/// renderStatsJson renders the versioned machine-readable stats schema
/// unifying the span aggregates with a MetricsRegistry's counters and
/// gauges. Both are exposed on alpc as --trace=<file> and --stats=<file>.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_TRACE_H
#define ALP_SUPPORT_TRACE_H

#include "support/Metrics.h"

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace alp {

/// Version of the stats JSON schema emitted by StatsReport /
/// renderStatsJson. Policy (docs/OBSERVABILITY.md): adding new counters,
/// gauges, or span names is *not* a version bump — consumers must ignore
/// unknown names; renaming or removing a field, or changing a field's
/// meaning or units, bumps this number. v2 = v1 plus a "kind"
/// discriminator in the header and optional producer fields before the
/// counters section (support/StatsReport.h).
inline constexpr unsigned StatsSchemaVersion = 2;

/// Collects timed spans. Create one per pipeline run when tracing is
/// requested; plumb it by pointer (null = tracing disabled).
class Tracer {
public:
  /// One closed span. Times are nanoseconds on the steady clock relative
  /// to the tracer's construction.
  struct Event {
    const char *Name = "";
    uint64_t StartNs = 0;
    uint64_t DurNs = 0;
    uint32_t Tid = 0;    ///< Process-wide thread ordinal (0 = first user).
    int64_t Detail = -1; ///< Instance id (nest, component, ...); -1 none.
  };

  Tracer() : Epoch(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Nanoseconds since the tracer's epoch.
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  /// Snapshot of every closed span, sorted by (StartNs, longest-first) so
  /// parents precede their children.
  std::vector<Event> events() const;

  /// Chrome trace-event JSON ("X" complete events, ts/dur microseconds).
  void writeChromeTrace(std::ostream &OS) const;

  /// Small process-wide ordinal of the calling thread (assigned on first
  /// use; stable for the thread's lifetime).
  static uint32_t currentThreadOrdinal();

private:
  friend class TraceSpan;
  void record(const Event &E);

  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mutex;
  std::vector<Event> Events;
};

/// RAII span: opens on construction, records into the tracer on
/// destruction (or finish()). With a null tracer the whole lifetime is a
/// pointer test — no clock read, no allocation.
class TraceSpan {
public:
  TraceSpan() = default;
  /// \p Name must be a string with static storage duration.
  TraceSpan(Tracer *T, const char *Name, int64_t Detail = -1) {
    if (T) {
      Tr = T;
      Nm = Name;
      Dt = Detail;
      StartNs = T->nowNs();
    }
  }
  TraceSpan(TraceSpan &&O) noexcept
      : Tr(O.Tr), Nm(O.Nm), Dt(O.Dt), StartNs(O.StartNs) {
    O.Tr = nullptr;
  }
  TraceSpan &operator=(TraceSpan &&O) noexcept {
    if (this != &O) {
      finish();
      Tr = O.Tr;
      Nm = O.Nm;
      Dt = O.Dt;
      StartNs = O.StartNs;
      O.Tr = nullptr;
    }
    return *this;
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;
  ~TraceSpan() { finish(); }

  bool active() const { return Tr != nullptr; }

  /// Closes the span now (idempotent).
  void finish() {
    if (!Tr)
      return;
    Tracer::Event E;
    E.Name = Nm;
    E.StartNs = StartNs;
    E.DurNs = Tr->nowNs() - StartNs;
    E.Tid = Tracer::currentThreadOrdinal();
    E.Detail = Dt;
    Tr->record(E);
    Tr = nullptr;
  }

private:
  Tracer *Tr = nullptr;
  const char *Nm = nullptr;
  int64_t Dt = -1;
  uint64_t StartNs = 0;
};

/// The observability handle threaded through option structs: a tracer for
/// spans and a registry for counters/gauges, either or both null. Copied
/// by value (it is two pointers) from DriverOptions down into every
/// sub-stage's options, so library users get observability without
/// globals.
struct TraceContext {
  Tracer *Trace = nullptr;
  MetricsRegistry *Metrics = nullptr;

  bool any() const { return Trace || Metrics; }

  /// Counter add, no-op without a registry.
  void count(const char *Name, uint64_t Delta = 1) const {
    if (Metrics)
      Metrics->add(Name, Delta);
  }
  /// Gauge set, no-op without a registry.
  void gauge(const char *Name, double Value) const {
    if (Metrics)
      Metrics->setGauge(Name, Value);
  }
};

/// Renders the versioned stats JSON: schema header, the registry's
/// counters (deterministic across --jobs) and gauges, and per-name span
/// aggregates (count + total wall milliseconds) from the tracer. Either
/// pointer may be null; the corresponding sections render empty.
std::string renderStatsJson(const MetricsRegistry *Metrics,
                            const Tracer *Trace);

} // namespace alp

#endif // ALP_SUPPORT_TRACE_H
