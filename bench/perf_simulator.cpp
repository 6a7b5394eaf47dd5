//===- bench/perf_simulator.cpp - Simulator throughput ---------------------===//
//
// Performance benchmark P3 (google-benchmark): cost of one simulated
// program execution as a function of problem size and schedule kind. The
// simulator costs the second-innermost loop in runs of segments that lie
// on one home (or split alike), so costs scale with the number of runs --
// about the clusters a processor's rows touch -- not with the segments
// (N x nests) or the iterations (N^2). Forall and Misaligned pin that
// down, the second for segments that cross clusters; Pipelined costs one
// block of the second-innermost loop per chunk, so it still grows with N.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "machine/NumaSimulator.h"

#include <benchmark/benchmark.h>

using namespace alp;
using namespace alp::bench;

namespace {

Program rowSweep(int64_t N) {
  return compileOrDie(R"(
program rows;
param N = )" + std::to_string(N) +
                      R"(;
array X[N + 1, N + 1];
forall i = 0 to N {
  for j = 1 to N {
    X[i, j] = f(X[i, j], X[i, j - 1]) @cost(16);
  }
}
)");
}

Program colSweep(int64_t N) {
  return compileOrDie(R"(
program cols;
param N = )" + std::to_string(N) +
                      R"(;
array X[N + 1, N + 1];
forall j = 0 to N {
  for i = 1 to N {
    X[i, j] = f(X[i, j], X[i - 1, j]) @cost(16);
  }
}
)");
}

void BM_SimulateForall(benchmark::State &State) {
  int64_t N = State.range(0);
  Program P = rowSweep(N);
  MachineParams M;
  NumaSimulator Sim(P, M);
  Sim.setStaticPlacement(0, ArrayPlacement::blockedDim(0));
  NestSchedule S;
  S.ExecMode = NestSchedule::Mode::Forall;
  S.DistLoop = 0;
  Sim.setSchedule(0, S);
  for (auto _ : State)
    benchmark::DoNotOptimize(Sim.run(32).Cycles);
  State.SetComplexityN(N);
}

void BM_SimulatePipelined(benchmark::State &State) {
  int64_t N = State.range(0);
  Program P = colSweep(N);
  MachineParams M;
  NumaSimulator Sim(P, M);
  Sim.setStaticPlacement(0, ArrayPlacement::blockedDim(0));
  NestSchedule S;
  S.ExecMode = NestSchedule::Mode::Pipelined;
  S.DistLoop = 1;
  S.PipeLoop = 0;
  Sim.setSchedule(0, S);
  for (auto _ : State)
    benchmark::DoNotOptimize(Sim.run(32).Cycles);
  State.SetComplexityN(N);
}

void BM_SimulateMisaligned(benchmark::State &State) {
  // Rows laid out by column block: every segment crosses every cluster
  // and is split at the block boundaries, O(clusters) per segment.
  int64_t N = State.range(0);
  Program P = rowSweep(N);
  MachineParams M;
  NumaSimulator Sim(P, M);
  Sim.setStaticPlacement(0, ArrayPlacement::blockedDim(1));
  NestSchedule S;
  S.ExecMode = NestSchedule::Mode::Forall;
  S.DistLoop = 0;
  Sim.setSchedule(0, S);
  for (auto _ : State)
    benchmark::DoNotOptimize(Sim.run(32).Cycles);
  State.SetComplexityN(N);
}

} // namespace

BENCHMARK(BM_SimulateForall)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->Complexity();
BENCHMARK(BM_SimulatePipelined)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond)->Complexity();
BENCHMARK(BM_SimulateMisaligned)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond)->Complexity();

BENCHMARK_MAIN();
