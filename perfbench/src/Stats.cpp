//===- perfbench/src/Stats.cpp - Statistics and the layer table -----------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sys/resource.h>

using namespace bench;

std::string bench::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int N = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string S(N > 0 ? static_cast<size_t>(N) : 0, '\0');
  if (N > 0)
    std::vsnprintf(S.data(), S.size() + 1, Fmt, Args);
  va_end(Args);
  return S;
}

double bench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double bench::median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

Tail bench::tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  // A fixed ladder keeps the reported percentile the same across runs of
  // similar length, so runs compare like with like.
  for (double P : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    double Beyond = std::floor(static_cast<double>(V.size()) * (100 - P) / 100);
    if (Beyond >= 10 || P == 50.0) {
      T.Percentile = P;
      T.Beyond = static_cast<size_t>(Beyond);
      T.Value = quantile(std::move(V), P / 100);
      return T;
    }
  }
  return T;
}

void bench::shuffleInPlace(std::vector<size_t> &V, uint64_t Seed) {
  uint64_t State = Seed;
  auto Next = [&State] {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  };
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Next() % I]);
}

void Layers::add(const std::string &Name, double Ms, uint64_t Calls) {
  LayerRow &R = Rows[Name];
  R.Calls += Calls;
  R.SelfMs += Ms;
  R.CallMs.push_back(Ms);
}

void Layers::merge(const Layers &O, bool WithCounts) {
  for (const auto &[Name, Row] : O.Rows) {
    LayerRow &R = Rows[Name];
    R.Calls += Row.Calls;
    R.SelfMs += Row.SelfMs;
    R.CallMs.insert(R.CallMs.end(), Row.CallMs.begin(), Row.CallMs.end());
  }
  for (const auto &[Name, Ms] : O.SubSelfMs)
    SubSelfMs[Name] += Ms;
  if (WithCounts)
    for (const auto &[Name, N] : O.Counts)
      Counts[Name] += N;
}

const std::vector<std::string> &bench::layerNames() {
  static const std::vector<std::string> Names = {
      "frontend",
      "core.decompose",
      "core.report",
      "analysis.schedule_verify",
      "analysis.decomp_verify",
      "codegen.plan_comm",
      "codegen.emit_spmd",
      "machine.sim_setup",
      "machine.sim_run",
      "service.flags",
      "service.key",
      "service.cache",
      "service.compile",
      "service.batch",
      "service.transport",
  };
  return Names;
}

const std::vector<std::string> &bench::decomposeSubRows() {
  static const std::vector<std::string> Names = {
      "driver.local_phase",     "dep.exact",
      "dynamic.initial_solves", "dynamic.join_loop",
      "partition.solve",        "orient.solve",
      "driver.displacement",    "driver.projection",
      "driver.replication_resolve",
  };
  return Names;
}

const std::vector<std::string> &bench::countNames() {
  static const std::vector<std::string> Names = {
      "ir.nests",
      "ir.accesses",
      "dep.pairs",
      "dep.exact_share",
      "dynamic.joins_attempted",
      "dynamic.join_keep_ratio",
      "comm.messages",
      "comm.elements",
      "spmd.bytes",
      "sim.remote_lines",
      "sim.messages",
      "service.cache.lookups",
      "service.cache.hit_ratio",
      "service.cache.inserts",
      "service.cache.evictions",
      "service.batch.items",
      "service.batch.dedup_ratio",
      "loadgen.late_ms_p99",
  };
  return Names;
}

namespace {

/// The kernel's time on an uncontended core of the reference box (a
/// 4-core Intel Xeon at 2.1 GHz), where it takes 0.93-1.0 ms.
constexpr double ReferenceKernelMs = 1.0;

/// Keeps the kernel's result observable so it is not optimized away.
volatile uint64_t KernelSink = 0;

/// Fixed work shaped like the compiler's: node allocation, pointer chasing
/// in an ordered map, and 64-bit integer division.
double calibrationKernelMs() {
  auto T0 = Clock::now();
  std::map<uint64_t, uint64_t> M;
  uint64_t X = 0x2545f4914f6cdd1dULL, Acc = 0;
  for (unsigned I = 0; I != 4000; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    M[X % 3000] += I;
    Acc += M.lower_bound((X >> 17) % 3000)->second;
    uint64_t A = X | 1, B = (X >> 11) | 1;
    while (B) {
      uint64_t T = A % B;
      A = B;
      B = T;
    }
    Acc += A;
  }
  KernelSink = Acc;
  return msBetween(T0, Clock::now());
}

} // namespace

void Calibration::sample() {
  SampleMs.push_back(calibrationKernelMs());
  Last = Clock::now();
}

void Calibration::sampleIfDue() {
  if (msBetween(Last, Clock::now()) >= 250)
    sample();
}

double Calibration::factor(size_t From, size_t To) const {
  To = std::min(To, SampleMs.size());
  if (From >= To)
    return 1.0;
  return ReferenceKernelMs /
         median(std::vector<double>(SampleMs.begin() + From,
                                    SampleMs.begin() + To));
}

std::string Calibration::describe() const {
  return format("calibration: kernel median %.4f ms over %zu samples "
                "(reference %.3f ms); times scaled by %.4f",
                SampleMs.empty() ? 0.0 : median(SampleMs), SampleMs.size(),
                ReferenceKernelMs, factor());
}

double bench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

namespace {

double ratio(const std::map<std::string, double> &C, const char *Num,
             const char *Den) {
  auto N = C.find(Num), D = C.find(Den);
  if (N == C.end() || D == C.end() || D->second == 0)
    return 0;
  return N->second / D->second;
}

double countOf(const std::map<std::string, double> &C, const std::string &K) {
  auto It = C.find(K);
  return It == C.end() ? 0 : It->second;
}

} // namespace

void bench::reportLayers(const Layers &L, double EndToEndMs, RunReport &R) {
  auto Share = [&](double Ms) { return EndToEndMs > 0 ? Ms / EndToEndMs : 0; };
  R.line(format("%-28s %8s %10s %7s %9s %9s", "layer", "calls", "self_ms",
                "share", "p50_ms", "p99_ms"));
  for (const std::string &Name : layerNames()) {
    LayerRow Row;
    if (auto It = L.Rows.find(Name); It != L.Rows.end())
      Row = It->second;
    double P50 = quantile(Row.CallMs, 0.5), P99 = quantile(Row.CallMs, 0.99);
    R.line(format("%-28s %8llu %10.2f %6.2f%% %9.4f %9.4f", Name.c_str(),
                  static_cast<unsigned long long>(Row.Calls), Row.SelfMs,
                  100 * Share(Row.SelfMs), P50, P99));
    R.metric(Name + ".calls", static_cast<double>(Row.Calls), "count");
    R.metric(Name + ".self_ms", Row.SelfMs, "ms");
    R.metric(Name + ".share", Share(Row.SelfMs), "share");
    R.metric(Name + ".p50_ms", P50, "ms");
    R.metric(Name + ".p99_ms", P99, "ms");
    if (Name != "core.decompose")
      continue;
    for (const std::string &Sub : decomposeSubRows()) {
      double Ms = countOf(L.SubSelfMs, Sub);
      R.line(format("  %-26s %8s %10.2f %6.2f%%", Sub.c_str(), "", Ms,
                    100 * Share(Ms)));
      R.metric("core.decompose." + Sub + ".self_ms", Ms, "ms");
      R.metric("core.decompose." + Sub + ".share", Share(Ms), "share");
    }
  }

  std::map<std::string, double> C = L.Counts;
  C["dep.exact_share"] = ratio(C, "dep.tier2_exact_tested", "dep.pairs");
  C["dynamic.join_keep_ratio"] =
      ratio(C, "dynamic.joins_kept", "dynamic.joins_attempted");
  C["service.cache.hit_ratio"] =
      ratio(C, "service.cache.hits", "service.cache.lookups");
  C["service.batch.dedup_ratio"] =
      ratio(C, "service.batch.dedups", "service.batch.items");
  auto UnitOf = [](const std::string &Name) -> std::string {
    if (Name.find("ratio") != std::string::npos ||
        Name.find("share") != std::string::npos)
      return "share";
    if (Name == "loadgen.late_ms_p99")
      return "ms";
    return Name == "spmd.bytes" ? "bytes" : "count";
  };
  for (const std::string &Name : countNames()) {
    std::string Unit = UnitOf(Name);
    R.line(format("%-28s %14.6g %s", Name.c_str(), countOf(C, Name),
                  Unit.c_str()));
    R.metric(Name, countOf(C, Name), Unit);
  }
}
