//===- bench/perf_dependence.cpp - Dependence analysis throughput ----------===//
//
// Performance benchmark P2: wall time of dependence analysis on a large
// synthetic nest under the four tier/memoization configurations (plus a
// traced run) and the Rational integer fast path. Hand-rolled
// harness (steady_clock, mean/p50/p99) — no external benchmark library —
// that emits machine-readable results to BENCH_dependence.json.
//
//   perf_dependence [--smoke] [--out <file>]
//
// The headline number is speedup_tiered_memoized_vs_baseline: the full
// configuration against uncached exact Fourier-Motzkin on every pair. The
// harness also cross-checks that every configuration produces
// byte-identical dependence sets; "results_identical" in
// the JSON is the result of that check, and a mismatch exits nonzero.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Dependence.h"
#include "linalg/Rational.h"
#include "support/ThreadPool.h"
#include "support/StatsReport.h"
#include "support/Trace.h"

#include <cstring>
#include <string>

using namespace alp;
using namespace alp::bench;

namespace {

/// The largest synthetic nest: a depth-4 loop whose body holds
///  - \p Stencils same-shape unit-distance stencil statements, each on its
///    own array (identical dependence polyhedra up to array identity: the
///    canonical-key cache collapses their tier-2 projections);
///  - \p GcdKilled stride-2 statements (G[2*i] vs G[2*i+1]: tier 0 proves
///    independence by divisibility);
///  - \p BanerjeeKilled statements whose read offset exceeds the loop
///    extent (B[i] vs B[i + 3N]: tier 1 proves independence by ranges).
std::string synthSource(unsigned Stencils, unsigned GcdKilled,
                        unsigned BanerjeeKilled) {
  // Literal loop bounds (no `param`): the Banerjee tier conservatively
  // skips symbolic bounds, so constants keep all three tiers in play.
  std::string Src = "program synth;\n";
  for (unsigned S = 0; S != Stencils; ++S)
    Src += "array A" + std::to_string(S) + "[14, 14, 14, 14];\n";
  for (unsigned G = 0; G != GcdKilled; ++G)
    Src += "array G" + std::to_string(G) + "[28];\n";
  for (unsigned B = 0; B != BanerjeeKilled; ++B)
    Src += "array B" + std::to_string(B) + "[52];\n";
  Src += "for i0 = 1 to 12 {\n for i1 = 1 to 12 {\n  for i2 = 1 to 12 {\n"
         "   for i3 = 1 to 12 {\n";
  for (unsigned S = 0; S != Stencils; ++S) {
    std::string A = "A" + std::to_string(S);
    Src += "    " + A + "[i0, i1, i2, i3] = f(" + A +
           "[i0 - 1, i1, i2, i3], " + A + "[i0, i1 - 1, i2, i3], " + A +
           "[i0, i1, i2 - 1, i3], " + A + "[i0, i1, i2, i3 - 1]) @cost(4);\n";
  }
  for (unsigned G = 0; G != GcdKilled; ++G) {
    std::string A = "G" + std::to_string(G);
    Src += "    " + A + "[2 * i0] = f(" + A + "[2 * i0 + 1]) @cost(2);\n";
  }
  for (unsigned B = 0; B != BanerjeeKilled; ++B) {
    std::string A = "B" + std::to_string(B);
    Src += "    " + A + "[i0] = f(" + A + "[i0 + 36]) @cost(2);\n";
  }
  Src += "   }\n  }\n }\n}\n";
  return Src;
}

/// Canonical dump of a dependence set for identity checks.
std::string depsFingerprint(const std::vector<Dependence> &Deps) {
  std::string S;
  for (const Dependence &D : Deps) {
    S += D.str();
    S += '\n';
  }
  return S;
}

struct ConfigResult {
  std::string Name;
  RepStats Stats;
  DependenceTierStats Tiers;
  std::string Fingerprint;
};

ConfigResult runConfig(const Program &P, const std::string &Name,
                       DependenceOptions Opts, unsigned Reps,
                       unsigned Warmup) {
  ConfigResult R;
  R.Name = Name;
  // Fresh analysis per repetition so the memoized configurations only get
  // within-run cache reuse, not reuse across repetitions.
  R.Stats = timeReps(Reps, Warmup, [&] {
    DependenceAnalysis DA(P, nullptr, Opts);
    auto Deps = DA.analyze(P.nest(0));
    if (Deps.empty())
      reportFatalError("synthetic nest unexpectedly has no dependences");
  });
  DependenceAnalysis DA(P, nullptr, Opts);
  R.Fingerprint = depsFingerprint(DA.analyze(P.nest(0)));
  R.Tiers = DA.tierStats();
  return R;
}

/// Rational fast-path microbenchmark: a multiply-accumulate sweep over
/// integer-valued rationals (Den == 1 everywhere: the fast paths fire on
/// every operation) against the same sweep over proper fractions (the
/// generic gcd-reducing paths). Reports ns per multiply-add.
struct RationalBench {
  double IntNsPerOp = 0;
  double FracNsPerOp = 0;
};

RationalBench benchRational(size_t Elems, unsigned Reps) {
  std::vector<Rational> Ints, Fracs;
  Ints.reserve(Elems);
  Fracs.reserve(Elems);
  for (size_t I = 0; I != Elems; ++I) {
    Ints.push_back(Rational(static_cast<int64_t>(I % 7) - 3));
    Fracs.push_back(Rational(static_cast<int64_t>(I % 7) - 3,
                             static_cast<int64_t>(I % 5) + 2));
  }
  // The accumulated sum is printed by the caller so the loops cannot be
  // optimized away.
  auto Sweep = [](const std::vector<Rational> &Vals) {
    Rational Acc;
    for (const Rational &V : Vals)
      Acc = Acc + V * V;
    return Acc;
  };
  Rational Sink;
  RepStats IntStats = timeReps(Reps, 1, [&] { Sink = Sink + Sweep(Ints); });
  RepStats FracStats = timeReps(Reps, 1, [&] { Sink = Sink + Sweep(Fracs); });
  std::printf("rational sweep checksum: %s\n", Sink.str().c_str());
  RationalBench R;
  R.IntNsPerOp = IntStats.MeanMs * 1e6 / static_cast<double>(Elems);
  R.FracNsPerOp = FracStats.MeanMs * 1e6 / static_cast<double>(Elems);
  return R;
}

std::string tierStatsJson(const DependenceTierStats &T) {
  char Buf[320];
  double HitRate = (T.CacheHits + T.CacheMisses)
                       ? static_cast<double>(T.CacheHits) /
                             static_cast<double>(T.CacheHits + T.CacheMisses)
                       : 0.0;
  std::snprintf(Buf, sizeof(Buf),
                "\"pairs\": %llu, \"gcd_independent\": %llu, "
                "\"banerjee_independent\": %llu, \"exact_tested\": %llu, "
                "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                "\"cache_hit_rate\": %.4f",
                static_cast<unsigned long long>(T.Pairs),
                static_cast<unsigned long long>(T.GcdIndependent),
                static_cast<unsigned long long>(T.BanerjeeIndependent),
                static_cast<unsigned long long>(T.ExactTested),
                static_cast<unsigned long long>(T.CacheHits),
                static_cast<unsigned long long>(T.CacheMisses), HitRate);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  const char *OutPath = "BENCH_dependence.json";
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(argv[I], "--out") && I + 1 < argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <file>]\n", argv[0]);
      return 2;
    }
  }
  unsigned Reps = Smoke ? 3 : 15;
  unsigned Warmup = Smoke ? 0 : 2;

  printHeader("P2: tiered/memoized dependence analysis vs uncached exact");
  Program P = compileOrDie(synthSource(8, 3, 3));

  DependenceOptions Baseline;
  Baseline.TieredTests = false;
  Baseline.Memoize = false;
  DependenceOptions TiersOnly;
  TiersOnly.Memoize = false;
  DependenceOptions MemoOnly;
  MemoOnly.TieredTests = false;
  DependenceOptions Full; // Tiered + memoized.

  std::vector<ConfigResult> Configs;
  Configs.push_back(runConfig(P, "baseline_exact_uncached", Baseline, Reps,
                              Warmup));
  Configs.push_back(runConfig(P, "tiered_only", TiersOnly, Reps, Warmup));
  Configs.push_back(runConfig(P, "memoized_only", MemoOnly, Reps, Warmup));
  Configs.push_back(runConfig(P, "tiered_memoized", Full, Reps, Warmup));

  // Full config with the tracer enabled: quantifies the cost of span
  // collection against the disabled path (the "tiered_memoized" run,
  // whose spans compile in but reduce to a pointer test).
  Tracer Trace;
  MetricsRegistry Metrics;
  DependenceOptions Traced;
  Traced.Trace = &Trace;
  Configs.push_back(runConfig(P, "tiered_memoized_traced", Traced, Reps,
                              Warmup));
  Configs.back().Tiers.publishTo(Metrics);

  bool Identical = true;
  for (const ConfigResult &C : Configs)
    Identical = Identical && C.Fingerprint == Configs.front().Fingerprint;

  double BaselineMean = Configs[0].Stats.MeanMs;
  double FullMean = Configs[3].Stats.MeanMs;
  double Speedup = FullMean > 0 ? BaselineMean / FullMean : 0;
  double TracedMean = Configs[4].Stats.MeanMs;
  double TracingOverhead = FullMean > 0 ? TracedMean / FullMean : 0;

  for (const ConfigResult &C : Configs)
    std::printf("%-28s mean %8.3f ms  p50 %8.3f ms  p99 %8.3f ms\n",
                C.Name.c_str(), C.Stats.MeanMs, C.Stats.P50Ms, C.Stats.P99Ms);
  const DependenceTierStats &FT = Configs[3].Tiers;
  std::printf("tiers (full config): %llu pairs, %llu gcd-independent, "
              "%llu banerjee-independent, %llu exact\n",
              static_cast<unsigned long long>(FT.Pairs),
              static_cast<unsigned long long>(FT.GcdIndependent),
              static_cast<unsigned long long>(FT.BanerjeeIndependent),
              static_cast<unsigned long long>(FT.ExactTested));
  std::printf("cache: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(FT.CacheHits),
              static_cast<unsigned long long>(FT.CacheMisses));
  std::printf("speedup tiered+memoized vs baseline: %.2fx\n", Speedup);
  std::printf("tracing enabled/disabled time ratio: %.3f\n", TracingOverhead);
  std::printf("results identical across configs: %s\n",
              Identical ? "yes" : "NO");

  printHeader("Rational integer fast path (Den == 1) vs proper fractions");
  RationalBench RB = benchRational(Smoke ? 100000 : 1000000, Reps);
  std::printf("integer-valued:   %7.2f ns / multiply-add\n", RB.IntNsPerOp);
  std::printf("proper fractions: %7.2f ns / multiply-add\n", RB.FracNsPerOp);
  std::printf("fast-path advantage: %.2fx\n",
              RB.IntNsPerOp > 0 ? RB.FracNsPerOp / RB.IntNsPerOp : 0);

  ArtifactWriter Out;
  Out.printf("%s", StatsReport::headerOpen("bench_dependence").c_str());
  Out.printf("  \"benchmark\": \"dependence\",\n");
  Out.printf("  \"smoke\": %s,\n", Smoke ? "true" : "false");
  Out.printf("  \"hardware_threads\": %u,\n",
               ThreadPool::hardwareConcurrency());
  Out.printf("  \"configs\": [\n");
  for (size_t I = 0; I != Configs.size(); ++I)
    Out.printf("    {\"name\": \"%s\", %s, %s}%s\n",
                 Configs[I].Name.c_str(),
                 repStatsJson(Configs[I].Stats).c_str(),
                 tierStatsJson(Configs[I].Tiers).c_str(),
                 I + 1 == Configs.size() ? "" : ",");
  Out.printf("  ],\n");
  Out.printf("  \"baseline_mean_ms\": %.6g,\n", BaselineMean);
  Out.printf("  \"tiered_memoized_mean_ms\": %.6g,\n", FullMean);
  Out.printf("  \"speedup_tiered_memoized_vs_baseline\": %.3f,\n",
               Speedup);
  Out.printf("  \"results_identical\": %s,\n",
               Identical ? "true" : "false");
  Out.printf("  \"tracing_overhead_ratio\": %.3f,\n", TracingOverhead);
  // The traced run's counters, gauges, and span aggregates in the same
  // versioned schema alpc --stats emits.
  std::string Stats = renderStatsJson(&Metrics, &Trace);
  while (!Stats.empty() && Stats.back() == '\n')
    Stats.pop_back();
  Out.printf("  \"stats\": %s,\n", Stats.c_str());
  Out.printf(
               "  \"rational_fastpath\": {\"int_den_ns_per_op\": %.3f, "
               "\"frac_den_ns_per_op\": %.3f, \"advantage\": %.3f}\n",
               RB.IntNsPerOp, RB.FracNsPerOp,
               RB.IntNsPerOp > 0 ? RB.FracNsPerOp / RB.IntNsPerOp : 0);
  Out.printf("}\n");
  if (!Out.publish(OutPath))
    return 1;
  std::printf("wrote %s\n", OutPath);

  return Identical ? 0 : 1;
}
