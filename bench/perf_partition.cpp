//===- bench/perf_partition.cpp - Partition fixpoint throughput ------------===//
//
// Performance benchmark P1: scaling of the iterative partition algorithm
// (Figure 2) with the number of loop nests, and the wall time of the full
// (single-threaded) decomposition driver. Hand-rolled harness
// (steady_clock, mean/p50/p99) — no external benchmark library — that
// emits machine-readable results to BENCH_partition.json.
//
//   perf_partition [--smoke] [--out <file>]
//
// The driver section runs the driver twice and cross-checks that both
// runs produce byte-identical decomposition reports and counters;
// "results_identical" and "counters_identical" in the JSON are the
// results of those checks, and a mismatch exits nonzero.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Driver.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "support/StatsReport.h"
#include "support/Trace.h"

#include <cstring>
#include <string>

using namespace alp;
using namespace alp::bench;

namespace {

/// Chain of K nests alternating row/column/transpose access over a pool of
/// arrays: a worst-ish case for the fixpoint (constraints keep flowing).
std::string chainProgram(unsigned K, unsigned NumArrays) {
  std::string Src = "program chain;\nparam N = 255;\n";
  for (unsigned A = 0; A != NumArrays; ++A) {
    Src += "array A" + std::to_string(A) + "[N + 1, N + 1];\n";
  }
  Rng R(42);
  for (unsigned I = 0; I != K; ++I) {
    std::string W = "A" + std::to_string(R.nextBelow(NumArrays));
    std::string Rd = "A" + std::to_string(R.nextBelow(NumArrays));
    switch (R.nextBelow(3)) {
    case 0: // Row recurrence.
      Src += "forall i = 0 to N {\n  for j = 1 to N {\n    " + W +
             "[i, j] = f(" + W + "[i, j - 1], " + Rd +
             "[i, j]) @cost(8);\n  }\n}\n";
      break;
    case 1: // Column recurrence.
      Src += "forall i = 0 to N {\n  for j = 1 to N {\n    " + W +
             "[j, i] = f(" + W + "[j - 1, i], " + Rd +
             "[j, i]) @cost(8);\n  }\n}\n";
      break;
    default: // Transposed copy.
      Src += "forall i = 0 to N {\n  forall j = 0 to N {\n    " + W +
             "[i, j] = f(" + Rd + "[j, i]) @cost(8);\n  }\n}\n";
      break;
    }
  }
  return Src;
}

struct DriverRun {
  RepStats Stats;
  std::string Report;
  std::string CountersJson;
};

/// Times the driver, then runs once more (untimed) with observability on
/// — \p Trace may be null, \p Metrics is caller-owned so main can embed
/// it in the output — and snapshots the counter payload so the harness
/// can assert run-to-run determinism on it.
DriverRun runDriver(const std::string &Src, unsigned Reps, unsigned Warmup,
                    Tracer *Trace, MetricsRegistry &Metrics) {
  MachineParams M;
  DriverOptions Opts;
  DriverRun R;
  // The local phase rewrites the program, so each repetition decomposes a
  // fresh compile; the compile cost is included in the timing.
  R.Stats = timeReps(Reps, Warmup, [&] {
    Program P = compileOrDie(Src);
    Expected<ProgramDecomposition> PD = decomposeOrError(P, M, Opts);
    if (!PD.hasValue())
      reportFatalError("benchmark decomposition failed: " +
                       PD.status().str());
    ProgramDecomposition Result = PD.takeValue();
    if (R.Report.empty())
      R.Report = printDecomposition(P, Result);
  });
  // One observed (untimed) run for the counter payload and spans.
  Opts.Observe = {Trace, &Metrics};
  Program P = compileOrDie(Src);
  Expected<ProgramDecomposition> PD = decomposeOrError(P, M, Opts);
  if (!PD.hasValue())
    reportFatalError("benchmark decomposition failed: " + PD.status().str());
  R.CountersJson = Metrics.renderCountersJson();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  const char *OutPath = "BENCH_partition.json";
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

  printHeader("P1: partition fixpoint scaling");
  std::vector<unsigned> Sizes = {4, 8, 16, 32};
  struct FixpointRow {
    unsigned K;
    RepStats Plain, Blocked;
  };
  std::vector<FixpointRow> Fixpoint;
  for (unsigned K : Sizes) {
    Program P = compileOrDie(chainProgram(K, 4));
    InterferenceGraph IG(P, P.nestsInOrder());
    FixpointRow Row;
    Row.K = K;
    static volatile uint64_t Sink; // Keeps the solves observable.
    Row.Plain = timeReps(Reps, Warmup, [&] {
      PartitionResult R = solvePartitions(IG);
      Sink = Sink + R.totalParallelism();
    });
    Row.Blocked = timeReps(Reps, Warmup, [&] {
      PartitionResult R = solvePartitionsWithBlocks(IG);
      Sink = Sink + R.totalParallelism();
    });
    Fixpoint.push_back(Row);
    std::printf("K=%2u  plain mean %8.3f ms  blocked mean %8.3f ms\n", K,
                Row.Plain.MeanMs, Row.Blocked.MeanMs);
  }

  printHeader("P1: full driver");
  std::string Src = chainProgram(Smoke ? 8 : 24, 6);
  Tracer Trace;
  MetricsRegistry FirstMetrics, SecondMetrics;
  // The second run repeats the decomposition once, only for the
  // run-to-run cross-check and the traced stats section.
  DriverRun First = runDriver(Src, Reps, Warmup, nullptr, FirstMetrics);
  DriverRun Second = runDriver(Src, 1, 0, &Trace, SecondMetrics);
  bool Identical = First.Report == Second.Report;
  bool CountersIdentical = First.CountersJson == Second.CountersJson;
  std::printf("driver   mean %8.3f ms  p50 %8.3f ms  p99 %8.3f ms\n",
              First.Stats.MeanMs, First.Stats.P50Ms, First.Stats.P99Ms);
  std::printf("reports identical: %s  counters identical: %s\n",
              Identical ? "yes" : "NO", CountersIdentical ? "yes" : "NO");

  ArtifactWriter Out;
  Out.printf("%s", StatsReport::headerOpen("bench_partition").c_str());
  Out.printf("  \"benchmark\": \"partition\",\n");
  Out.printf("  \"smoke\": %s,\n", Smoke ? "true" : "false");
  Out.printf("  \"hardware_threads\": %u,\n",
             ThreadPool::hardwareConcurrency());
  Out.printf("  \"fixpoint\": [\n");
  for (size_t I = 0; I != Fixpoint.size(); ++I)
    Out.printf(
                 "    {\"nests\": %u, \"plain\": {%s}, \"blocked\": {%s}}%s\n",
                 Fixpoint[I].K, repStatsJson(Fixpoint[I].Plain).c_str(),
                 repStatsJson(Fixpoint[I].Blocked).c_str(),
                 I + 1 == Fixpoint.size() ? "" : ",");
  Out.printf("  ],\n");
  Out.printf("  \"driver\": {\n");
  Out.printf("    \"serial\": {%s},\n", repStatsJson(First.Stats).c_str());
  Out.printf("    \"results_identical\": %s,\n",
             Identical ? "true" : "false");
  Out.printf("    \"counters_identical\": %s\n",
             CountersIdentical ? "true" : "false");
  Out.printf("  },\n");
  // The observed run's counters and spans in the same versioned schema
  // alpc --stats emits. (Gauges and timings vary run to run; the counters
  // section is the deterministic payload.)
  {
    std::string Stats = renderStatsJson(&SecondMetrics, &Trace);
    while (!Stats.empty() && Stats.back() == '\n')
      Stats.pop_back();
    Out.printf("  \"stats\": %s\n", Stats.c_str());
  }
  Out.printf("}\n");
  if (!Out.publish(OutPath))
    return 1;
  std::printf("wrote %s\n", OutPath);

  return Identical && CountersIdentical ? 0 : 1;
}
