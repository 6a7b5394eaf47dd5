//===- perfbench/src/Bench.h - Shared benchmark types -----------*- C++ -*-===//
//
// The alp end-to-end benchmark drives three workloads through alp's public
// entry points: compile_corpus (CompileSession::run as
// `alpc --machine=touchstone --emit=spmd --verify`), simulate_corpus (as
// `alpc --simulate`) and serve_mixed (an in-process alpd Server under an
// open-loop load). An untraced run yields the end-to-end metrics; a
// separate traced run times every call into a layer's public function from
// this benchmark's own code and yields the per-layer table.
//
//===----------------------------------------------------------------------===//

#ifndef ALP_PERFBENCH_BENCH_H
#define ALP_PERFBENCH_BENCH_H

#include "core/CompileSession.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// printf into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);

/// The highest percentile of 99.9, 99.5, 99, 98, 95, 90, 80, 75 that has
/// at least ten samples beyond it (50 when none has).
struct Tail {
  double Value = 0;
  double Percentile = 100;
  size_t Samples = 0;
  size_t Beyond = 0; ///< Samples beyond the percentile.
};
Tail tailOf(std::vector<double> V);

//===----------------------------------------------------------------------===//
// Per-layer accounting (traced runs only)
//===----------------------------------------------------------------------===//

struct LayerRow {
  uint64_t Calls = 0;
  double SelfMs = 0;
  std::vector<double> CallMs;
};

/// Layer timings, sub-row self times and counters collected by a traced
/// run. Timings are taken around public calls made from this benchmark.
class Layers {
public:
  void add(const std::string &Name, double Ms, uint64_t Calls = 1);
  void count(const std::string &Name, double Delta) { Counts[Name] += Delta; }
  /// Adds \p O's rows and sub-rows, and its counters when \p WithCounts.
  void merge(const Layers &O, bool WithCounts);

  /// Times one call of \p Fn as a call into layer \p Name.
  template <typename F> decltype(auto) time(const char *Name, F &&Fn) {
    if (!Timing)
      return Fn();
    Timer T{*this, Name, Clock::now()};
    return Fn();
  }

  /// False for an untraced twin run: time() only calls.
  bool Timing = true;

  std::map<std::string, LayerRow> Rows;
  /// Self time of the spans decomposeOrError records under core.decompose.
  std::map<std::string, double> SubSelfMs;
  /// Counters (and loadgen.late_ms_p99), keyed by countNames() entries
  /// or by the base counters the ratios are computed from.
  std::map<std::string, double> Counts;

private:
  struct Timer {
    Layers &L;
    const char *Name;
    Clock::time_point T0;
    ~Timer() { L.add(Name, msBetween(T0, Clock::now())); }
  };
};

/// The layers of the per-layer table, in print order.
const std::vector<std::string> &layerNames();
/// The core.decompose sub-rows (span names decomposeOrError records).
const std::vector<std::string> &decomposeSubRows();
/// Counters and ratios of the per-layer table, in print order.
const std::vector<std::string> &countNames();

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One benchmark input program.
struct Input {
  std::string Name;   ///< Label used in reports and as the diagnostics file.
  std::string Family; ///< Generator family, or paper / template / example.
  std::string Source;
};

/// Reads \p Rel under \p Root; throws std::runtime_error when unreadable.
std::string readRepoFile(const std::string &Root, const std::string &Rel);
/// testdata/<Names>.alp, or every testdata/*.alp when \p Names is empty.
std::vector<Input> paperPrograms(const std::string &Root,
                                 const std::vector<std::string> &Names = {});
/// The five promoted adversarial templates under testdata/gen.
std::vector<Input> promotedTemplates(const std::string &Root);
/// examples/jacobi.alp and examples/trisolve.alp.
std::vector<Input> examplePrograms(const std::string &Root);
/// For the two examples, the stdout `alpc --machine=touchstone --emit=spmd
/// --verify` must print: the testdata/codegen golden plus the verifier's
/// line. Empty for every other input.
std::string goldenStdout(const std::string &Root, const Input &In);
/// Programs [First, First + Count) of the seeded generator corpus.
std::vector<Input> generatedPrograms(uint64_t Seed, uint64_t First,
                                     uint64_t Count);
/// Programs \p Indices of the seeded generator corpus, in that order.
std::vector<Input> generatedPrograms(uint64_t Seed,
                                     const std::vector<uint64_t> &Indices);
/// "family=count, ..." in first-seen order.
std::string composition(const std::vector<Input> &Inputs);

/// Deterministic Fisher-Yates shuffle driven by splitmix64(\p Seed).
void shuffleInPlace(std::vector<size_t> &V, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Compile pipeline
//===----------------------------------------------------------------------===//

/// The bytes and exit code of one compile, as alpc would print them.
struct UnitOutput {
  int Exit = 0;
  std::string Out, Err;
  bool operator==(const UnitOutput &O) const {
    return Exit == O.Exit && Out == O.Out && Err == O.Err;
  }
};

/// CompileSession::run with both streams captured in memory.
UnitOutput runSession(const alp::CompileRequest &Req);

/// Outside vs inside timing of the decomposition driver.
struct DecomposeAgreement {
  double OutsideMs = 0; ///< decomposeOrError timed by the benchmark.
  double SpanMs = 0;    ///< The driver's own driver.decompose spans.
};

/// Replays CompileSession::run's pipeline for \p Req call by call through
/// the layers' public functions, timing each call into \p L. Supports the
/// selections the corpus workloads use (--emit=spmd, --verify, --simulate)
/// and must produce exactly runSession's bytes.
UnitOutput runLayered(const alp::CompileRequest &Req, Layers &L,
                      DecomposeAgreement &A);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Options {
  std::string Root = ".";
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfCheck = false; ///< Tiny inputs, one pass, every check.
  /// serve_mixed only: measure the server's closed-loop capacity and cold
  /// latency on the request mix instead of running the open loop.
  bool Capacity = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one workload run produced.
struct RunReport {
  std::vector<Metric> Metrics; ///< End-to-end (untraced) or per-layer.
  std::vector<std::string> Lines; ///< Human-readable detail, printed first.
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< Units whose output check failed or that errored.
  std::vector<std::string> CheckFailures;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void line(const std::string &L) { Lines.push_back(L); }
  void fail(const std::string &What) { CheckFailures.push_back(What); }
};

/// Gauges how fast the host runs during a measurement. The benchmark
/// shares its machine, and other tenants slow every process on it by up to
/// 40% for minutes at a time; a fixed CPU kernel slows with them. The
/// kernel only runs while the code under test is idle (between units of a
/// one-thread loop, between set-ups, before and after an open loop), so
/// the code's own CPU use never moves the factor. End-to-end times are
/// scaled by reference / median kernel time, so that drift cancels; the
/// raw figures are printed too.
class Calibration {
public:
  /// Runs the kernel once.
  void sample();
  /// Runs the kernel when at least 250 ms have passed since the last run.
  void sampleIfDue();
  /// Samples taken so far.
  size_t size() const { return SampleMs.size(); }
  /// Multiplier that brings times measured while samples [From, To) were
  /// taken to the reference speed (1 when that range is empty).
  double factor(size_t From = 0, size_t To = SIZE_MAX) const;
  /// One line describing the samples and the factor.
  std::string describe() const;

private:
  std::vector<double> SampleMs;
  Clock::time_point Last{};
};

/// Peak resident set of this process in MiB.
double peakRssMb();

/// Appends the layer table rows (calls/self/share/p50/p99, sub-rows,
/// counters) to \p R as per-layer metrics and printable lines.
void reportLayers(const Layers &L, double EndToEndMs, RunReport &R);

RunReport runCorpusWorkload(const Options &O, bool Simulate);
RunReport runServeWorkload(const Options &O);
/// Closed-loop capacity and cold latency of serve_mixed's request mix, from
/// which its offered rate and latency limit are set.
RunReport runServeCapacity(const Options &O);

} // namespace bench

#endif // ALP_PERFBENCH_BENCH_H
