//===- tests/SimulatorEquivalenceTest.cpp - Simulator vs its oracle -------===//
//
// NumaSimulator costs segments from per-nest integer data, splits a
// segment that crosses clusters at the ownership boundaries, and costs the
// second-innermost loop in runs of equal segments where the sums provably
// stay exact. The ReferenceSimulator (tests/ReferenceSimulator.cpp) is the
// original line-walking costing over exact Rational arithmetic, one
// segment at a time. The two must agree exactly, field for field, on every
// run: the checked-in programs, the generator templates, the kernel
// gallery, a fixed sample of the seed-7 generator corpus, and hand-written
// cases for each costing branch, including sums past 2^53 and costs that
// are not integers.
//
//===----------------------------------------------------------------------===//

#include "KernelGallery.h"
#include "ReferenceSimulator.h"

#include "codegen/CommPlan.h"
#include "core/Driver.h"
#include "frontend/Lowering.h"
#include "gen/Generator.h"
#include "machine/ScheduleDerivation.h"
#include "transform/Unimodular.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

using namespace alp;

namespace {

constexpr unsigned MaxProcs = 32;

MachineParams machine(bool Touchstone) {
  MachineParams M;
  M.NumProcs = MaxProcs;
  if (Touchstone) {
    M.ProcsPerCluster = 1;
    M.MessagePassing = true;
  }
  return M;
}

Program compile(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = compileDsl(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    reportFatalError("test program failed to compile:\n" + Diags.str());
  return std::move(*P);
}

/// A run's result, or the error it failed with.
struct Outcome {
  SimResult Res;
  std::string Error;
};

template <typename Fn> Outcome outcomeOf(Fn Run) {
  Outcome O;
  try {
    O.Res = Run();
  } catch (const AlpException &E) {
    O.Error = E.status().str();
  }
  return O;
}

void expectSame(const Outcome &Got, const Outcome &Want,
                const std::string &Label) {
  EXPECT_EQ(Got.Error, Want.Error) << Label;
  static constexpr std::pair<const char *, double SimResult::*> Fields[] = {
      {"Cycles", &SimResult::Cycles},
      {"ComputeCycles", &SimResult::ComputeCycles},
      {"MemoryCycles", &SimResult::MemoryCycles},
      {"ReorgCycles", &SimResult::ReorgCycles},
      {"SyncCycles", &SimResult::SyncCycles},
      {"CacheAccesses", &SimResult::CacheAccesses},
      {"LocalLineFetches", &SimResult::LocalLineFetches},
      {"RemoteLineFetches", &SimResult::RemoteLineFetches},
      {"MessagesSent", &SimResult::MessagesSent}};
  for (const auto &[Name, Field] : Fields)
    EXPECT_EQ(Got.Res.*Field, Want.Res.*Field) << Label << ": " << Name;
}

/// The processor counts a run compares: every count from 1 to 32 (odd
/// counts leave clusters partly filled and strips uneven), or only the
/// powers of two `alpc --simulate` prints, for the programs whose oracle
/// runs take seconds each.
std::vector<unsigned> procCounts(bool Every) {
  std::vector<unsigned> Counts;
  for (unsigned Procs = 1; Procs <= MaxProcs; Every ? ++Procs : Procs *= 2)
    Counts.push_back(Procs);
  return Counts;
}

/// The sequential baseline and every run in \p Counts.
void expectEquivalent(NumaSimulator &Sim, const Program &P,
                      const MachineParams &M, const std::string &Label,
                      const std::vector<unsigned> &Counts) {
  ReferenceSimulator Ref(P, M, Sim.config());
  auto Seq = [](auto &S) {
    return [&S] {
      SimResult R;
      R.Cycles = S.sequentialCycles();
      return R;
    };
  };
  expectSame(outcomeOf(Seq(Sim)), outcomeOf(Seq(Ref)), Label + " sequential");
  for (unsigned Procs : Counts)
    expectSame(outcomeOf([&] { return Sim.run(Procs); }),
               outcomeOf([&] { return Ref.run(Procs); }),
               Label + " P=" + std::to_string(Procs));
}

/// One program compiled, decomposed and simulated as `alpc --simulate`
/// does it, on both machines.
struct CompiledCase {
  std::string Name;
  std::string Source;
  bool EveryProcCount = true;
};

void PrintTo(const CompiledCase &C, std::ostream *OS) { *OS << C.Name; }

class CompiledSimulatorEquivalenceTest
    : public ::testing::TestWithParam<CompiledCase> {};

TEST_P(CompiledSimulatorEquivalenceTest, MatchesOracle) {
  const CompiledCase &C = GetParam();
  for (bool Touchstone : {false, true}) {
    std::string Label = C.Name + (Touchstone ? " touchstone" : " dash");
    Program P = compile(C.Source);
    MachineParams M = machine(Touchstone);
    Expected<ProgramDecomposition> PD = decomposeOrError(P, M);
    ASSERT_TRUE(PD.hasValue()) << Label << ": " << PD.status().str();
    NumaSimulator Sim(P, M);
    if (Touchstone)
      Sim.setCommSchedule(
          planCommunication(P, *PD, CodegenOptions::forMachine(M)).schedule());
    applyDecomposition(Sim, P, *PD);
    expectEquivalent(Sim, P, M, Label, procCounts(C.EveryProcCount));
  }
}

std::string caseName(const ::testing::TestParamInfo<CompiledCase> &Info) {
  return Info.param.Name;
}

/// The .alp files of \p Dir, named by stem.
std::vector<CompiledCase> dirCases(const std::filesystem::path &Dir) {
  std::vector<CompiledCase> Cases;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() != ".alp")
      continue;
    std::ifstream In(E.path());
    std::stringstream SS;
    SS << In.rdbuf();
    Cases.push_back({E.path().stem().string(), SS.str(), false});
  }
  std::sort(Cases.begin(), Cases.end(),
            [](const auto &A, const auto &B) { return A.Name < B.Name; });
  return Cases;
}

std::vector<CompiledCase> galleryCases() {
  std::vector<CompiledCase> Cases;
  for (const auto &[Name, Src] : gallery::All)
    Cases.push_back({Name, Src});
  return Cases;
}

/// Seed-7 corpus programs whose oracle runs are quick, from every family
/// (5 and 29 overflow in both simulators); `alp_gen --seed 7` writes the
/// same programs under the same indices.
std::vector<CompiledCase> seed7Cases() {
  std::vector<CompiledCase> Cases;
  for (uint64_t Index :
       {18, 96, 61, 67, 8, 62, 68, 45, 10, 16, 22, 11, 35, 101, 5, 29}) {
    gen::GeneratedProgram G = gen::generateProgram(7, Index);
    Cases.push_back({G.Name, G.Source});
  }
  return Cases;
}

/// Every placement (including an out-of-range dimension, which clamps)
/// crossed with every schedule mode over loops 0 and 1, on both machines,
/// each adjusted by \p Tweak.
void expectEquivalentEverywhere(
    const std::string &Label, const Program &P,
    const std::function<void(MachineParams &)> &Tweak = {}) {
  const std::pair<const char *, ArrayPlacement> Placements[] = {
      {"blocked0", ArrayPlacement::blockedDim(0)},
      {"blocked1", ArrayPlacement::blockedDim(1)},
      {"blocked9", ArrayPlacement::blockedDim(9)},
      {"fill", ArrayPlacement::linearFill()},
      {"replicated", ArrayPlacement::replicated()}};
  using Mode = NestSchedule::Mode;
  const std::pair<const char *, NestSchedule> Schedules[] = {
      {"sequential", {Mode::Sequential, 0, 0, 4}},
      {"forall0", {Mode::Forall, 0, 0, 4}},
      {"forall1", {Mode::Forall, 1, 0, 4}},
      {"pipelined", {Mode::Pipelined, 0, 1, 4}},
      {"pipelined-t", {Mode::Pipelined, 1, 0, 3}},
      {"wavefront", {Mode::Wavefront2D, 0, 1, 4}}};
  for (bool Touchstone : {false, true})
    for (const auto &[PName, Placement] : Placements)
      for (const auto &[SName, Schedule] : Schedules) {
        MachineParams M = machine(Touchstone);
        if (Tweak)
          Tweak(M);
        NumaSimulator Sim(P, M);
        for (unsigned A = 0; A != P.Arrays.size(); ++A)
          Sim.setStaticPlacement(A, Placement);
        for (const LoopNest &Nest : P.Nests)
          Sim.setSchedule(Nest.Id, Schedule);
        expectEquivalent(Sim, P, M,
                         Label + " " + (Touchstone ? "touchstone" : "dash") +
                             " " + PName + " " + SName,
                         procCounts(true));
      }
}

void expectEquivalentEverywhere(
    const std::string &Label, const std::string &Src,
    const std::function<void(MachineParams &)> &Tweak = {}) {
  expectEquivalentEverywhere(Label, compile(Src), Tweak);
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Testdata, CompiledSimulatorEquivalenceTest,
                         ::testing::ValuesIn(dirCases(ALP_TESTDATA_DIR)),
                         caseName);
INSTANTIATE_TEST_SUITE_P(
    GeneratorTemplates, CompiledSimulatorEquivalenceTest,
    ::testing::ValuesIn(dirCases(std::filesystem::path(ALP_TESTDATA_DIR) /
                                 "gen")),
    caseName);
INSTANTIATE_TEST_SUITE_P(KernelGallery, CompiledSimulatorEquivalenceTest,
                         ::testing::ValuesIn(galleryCases()), caseName);
INSTANTIATE_TEST_SUITE_P(Seed7Corpus, CompiledSimulatorEquivalenceTest,
                         ::testing::ValuesIn(seed7Cases()), caseName);

TEST(SimulatorEquivalenceTest, MixedSignStridesWalkLinearFill) {
  // X[j, N - j] steps (1, -1): the linear-fill home is not monotone along
  // the segment, so it is walked line by line; X[N - j, j] likewise.
  expectEquivalentEverywhere("mixed", R"(
program mixed;
param N = 47;
array X[N + 1, N + 1], Y[N + 1, N + 1];
for i = 0 to N {
  for j = 0 to N {
    Y[i, j] = f(X[j, N - j], X[N - j, j], Y[j, i]) @cost(3);
  }
}
)");
}

TEST(SimulatorEquivalenceTest, NegativeStrides) {
  // Descending segments split at block boundaries from the top down.
  expectEquivalentEverywhere("negative", R"(
program negative;
param N = 47;
array X[N + 1, N + 1], Y[N + 1, N + 1];
for i = 0 to N {
  for j = 0 to N {
    Y[i, N - j] = f(X[N - j, i], X[i, N - 2 * j]) @cost(2);
  }
}
)");
}

TEST(SimulatorEquivalenceTest, ClampedHaloSubscripts) {
  // Subscripts -1 and N + 1 fall outside the array and clamp to its edge.
  expectEquivalentEverywhere("halo", R"(
program halo;
param N = 47;
array X[N + 1, N + 1], Y[N + 1, N + 1];
for i = 0 to N {
  for j = 0 to N {
    Y[i, j] = f(X[i, j - 1], X[i, j + 1], X[i - 1, j], X[i + 1, j],
                X[j - 1, i], X[j + 1, i]) @cost(5);
  }
}
)");
}

/// A structure loop whose index shifts the subscripts, so the second
/// simulated iteration sees other bindings before the rest is
/// extrapolated, around a branch that blends two arms with other nests.
constexpr const char *Phases = R"(
program phases;
param N = 31, T = 6;
array X[N + 1, N + 1], Y[N + 1, N + 1];
for t = 1 to T {
  forall i = 0 to N {
    for j = 1 to N - t {
      X[i, j + t] = f(X[i, j - 1], Y[j, i + t]) @cost(4);
    }
  }
  if prob(0.3) {
    forall j = 0 to N {
      for i = 1 to N {
        Y[i, j] = f(Y[i - 1, j], X[i, j]) @cost(6);
      }
    }
  } else {
    forall i = 0 to N {
      forall j = 0 to N {
        Y[i, j] = f(X[j, i]) @cost(2);
      }
    }
  }
}
)";

TEST(SimulatorEquivalenceTest, StructureLoopsAndBranches) {
  expectEquivalentEverywhere("phases", Phases);
}

INSTANTIATE_TEST_SUITE_P(HandWritten, CompiledSimulatorEquivalenceTest,
                         ::testing::Values(CompiledCase{"phases", Phases}),
                         caseName);

TEST(SimulatorEquivalenceTest, RationalBoundsAfterSkew) {
  // The local phase rewrites a nest with a unimodular transform and
  // regenerates its bounds by Fourier-Motzkin projection. Under
  // T = [[2, 1], [1, 1]] the inner loop runs over i'/2 <= j' <= (i' + N)/2.
  Program P = compile(R"(
program skewed;
param N = 63;
array A[N + 1, N + 1], B[2 * N + 2, 2 * N + 2];
for i = 0 to N {
  for j = 0 to N {
    A[i, j] = f(A[i, j], B[i + j, 2 * i + j]) @cost(7);
  }
}
)");
  applyUnimodular(P.Nests[0], IntMatrix({{2, 1}, {1, 1}}));
  bool Rational = false;
  for (const Loop &L : P.Nests[0].Loops)
    for (const auto *Terms : {&L.Lower, &L.Upper})
      for (const BoundTerm &T : *Terms)
        for (unsigned K = 0; K != T.OuterCoeffs.size(); ++K)
          Rational |= !T.OuterCoeffs[K].isInteger();
  ASSERT_TRUE(Rational) << "the skew no longer yields rational bounds";
  expectEquivalentEverywhere("skewed", P);
}

TEST(SimulatorEquivalenceTest, OverflowInANestThatNeverRunsIsHarmless) {
  // Evaluating B's subscript constant 2^62 * M overflows, but its nest
  // has no iterations (N = 0). Constants are evaluated once per nest now,
  // and the overflow must still surface only where a segment needs it.
  expectEquivalentEverywhere("unreached", R"(
program unreached;
param N = 0, M = 31;
array A[M + 1, M + 1], B[M + 1];
forall i = 0 to M {
  for j = 0 to M {
    A[i, j] = f(A[j, i]) @cost(2);
  }
}
for i = 1 to N {
  B[i + 4611686018427387904 * M] = g(B[i]) @cost(5);
}
)");
}

//===----------------------------------------------------------------------===//
// Runs over the second-innermost loop
//===----------------------------------------------------------------------===//

TEST(SimulatorEquivalenceTest, StripsNotAlignedToBlocks) {
  // 101 rows over 8 clusters make blocks of 13; the strips of most
  // processor counts start and end inside a block, so a processor's run
  // of rows changes home partway. X[2i, j] skips every other row.
  expectEquivalentEverywhere("unaligned", R"(
program unaligned;
param N = 100;
array X[2 * N + 2, N + 1], Y[N + 1, N + 1];
forall i = 0 to N {
  for j = 0 to N {
    Y[i, j] = f(X[2 * i, j], X[i, j], Y[i, N - j]) @cost(3);
  }
}
)");
}

TEST(SimulatorEquivalenceTest, RunsEndingOnABlockEdge) {
  // 64 rows make blocks of 8 on 8 clusters: strips of 2, 4 and 8 rows end
  // exactly where a block does, and X[2i + 1, j] steps over the edge.
  expectEquivalentEverywhere("edge", R"(
program edge;
param N = 63;
array X[2 * N + 2, N + 1], Y[N + 1, N + 1];
forall i = 0 to N {
  for j = 0 to N {
    Y[i, j] = f(X[2 * i + 1, j], Y[i, j]) @cost(2);
  }
}
)");
}

TEST(SimulatorEquivalenceTest, DescendingStepOverTheOuterLoop) {
  // The start index falls as the second-innermost loop rises.
  expectEquivalentEverywhere("descending", R"(
program descending;
param N = 47;
array X[N + 1, N + 1], Y[N + 1, N + 1];
for i = 0 to N {
  for j = 0 to N {
    Y[N - i, j] = f(X[N - i, N - j], X[N - 2 * i + 40, j]) @cost(2);
  }
}
)");
}

TEST(SimulatorEquivalenceTest, MixedSignStepOverTheOuterLoop) {
  // X[i, N - i + j] steps (1, -1) per row. X has 24 rows, so from i = 24
  // on the first subscript clamps and the linear-fill offset falls as i
  // rises: the home is not monotone over i, and those rows are costed one
  // at a time.
  expectEquivalentEverywhere("mixedx", R"(
program mixedx;
param N = 47;
array X[24, 2 * N + 2], Y[N + 1, N + 1];
for i = 0 to N {
  for j = 0 to N {
    Y[i, j] = f(X[i, N - i + j], X[N - i, i + j]) @cost(4);
  }
}
)");
}

TEST(SimulatorEquivalenceTest, LinearFillHomeThatLeavesAndReturns) {
  // X[N - i, i + j] stays on X's clamped last row while i < 83, climbing
  // through it, then drops a row per step. With five clusters of 160
  // elements, the start of the last row and the end of the row below share
  // a cluster: the home over i goes 3, 4, back to 3, so a stretch whose
  // ends agree need not be one home.
  expectEquivalentEverywhere("dip", R"(
program dip;
param N = 85;
array X[4, 200], Y[N + 1, 32];
for i = 0 to N - 2 {
  for j = 0 to 31 {
    Y[i, j] = f(X[N - i, i + j]) @cost(2);
  }
}
)");
}

TEST(SimulatorEquivalenceTest, TriangularBoundsWithMinMaxAndEmptyRows) {
  // The innermost range is max(i - 20, 2i - 40, 0) .. min(i + 3, N - i,
  // 30): the winning term changes several times, the length rises and
  // falls, and the rows past i = 23 are empty. The three-deep nest varies
  // the triangle with the outermost loop.
  expectEquivalentEverywhere("triangle", R"(
program triangle;
param N = 47;
array X[N + 1, N + 1], Y[N + 1, N + 1];
for i = 0 to N {
  for j = max(i - 20, 2 * i - 40, 0) to min(i + 3, N - i, 30) {
    Y[i, j] = f(X[j, i], X[i, j], Y[i, N - j]) @cost(2);
  }
}
for k = 0 to 3 {
  for i = k to N {
    for j = max(i - 3 * k, 0) to min(N, i + k, 2 * N - 3 * i) {
      X[i, j] = g(X[i, j], Y[j, i]) @cost(1);
    }
  }
}
)");
}

TEST(SimulatorEquivalenceTest, RationalRows) {
  // N / 2 and (N + 2) / 3 are not integers: the rows have denominators 2
  // and 3.
  Program P = compile(R"(
program halves;
param N = 47;
array X[N + 1, N + 1], Y[N + 1, N + 1];
for i = 0 to N {
  for j = 0 to N {
    Y[i, j] = f(X[i + N / 2 - 20, j + (N + 2) / 3 - 16], Y[N - i, j]) @cost(2);
  }
}
)");
  // And the rational bounds of a skewed nest, whose innermost bound terms
  // are not affine in the second-innermost loop.
  applyUnimodular(P.Nests[0], IntMatrix({{2, 1}, {1, 1}}));
  expectEquivalentEverywhere("halves", P);
}

TEST(SimulatorEquivalenceTest, NonIntegralMachineCosts) {
  // Halves and quarters keep every sum exact at a finer grain; a tenth
  // cannot be summed exactly at all, so those runs go value by value.
  const char *Src = R"(
program costs;
param N = 47;
array X[N + 1, N + 1], Y[N + 1, N + 1];
for i = 0 to N {
  for j = 0 to N {
    Y[i, j] = f(X[i, j], X[j, i], Y[i, N - j]) @cost(3);
  }
}
)";
  expectEquivalentEverywhere("halves", Src, [](MachineParams &M) {
    M.RemoteCycles = 120.5;
    M.LocalCycles = 29.25;
  });
  expectEquivalentEverywhere("tenths", Src, [](MachineParams &M) {
    M.RemoteCycles = 120.1;
    M.CacheCycles = 0.5;
  });
}

TEST(SimulatorEquivalenceTest, SumsPast2To53) {
  // Rows of 2^40 + 1 elements: a few hundred segments take the cycle
  // counters past 2^53, where adding a run in one step would round
  // differently from adding its segments one at a time. Every segment
  // lies on one cluster, which keeps the line-walking oracle fast.
  Program P = compile(R"(
program huge;
param N = 1099511627776, M = 1023;
array X[M + 1, N + 1], Y[M + 1, N + 1];
forall i = 0 to M {
  for j = 0 to N {
    X[i, j] = f(X[i, j], Y[i, N - j]) @cost(3);
  }
}
)");
  using Mode = NestSchedule::Mode;
  for (bool Touchstone : {false, true})
    for (ArrayPlacement Placement :
         {ArrayPlacement::blockedDim(0), ArrayPlacement::replicated()})
      for (NestSchedule Schedule :
           {NestSchedule{Mode::Sequential, 0, 0, 4},
            NestSchedule{Mode::Forall, 0, 0, 4}}) {
        MachineParams M = machine(Touchstone);
        NumaSimulator Sim(P, M);
        for (unsigned A = 0; A != P.Arrays.size(); ++A)
          Sim.setStaticPlacement(A, Placement);
        Sim.setSchedule(P.Nests[0].Id, Schedule);
        expectEquivalent(Sim, P, M,
                         std::string("huge ") +
                             (Touchstone ? "touchstone" : "dash") +
                             (Schedule.ExecMode == Mode::Forall ? " forall"
                                                                : " seq"),
                         procCounts(false));
        EXPECT_GT(Sim.run(1).MemoryCycles, 0x1p53);
      }
}

TEST(SimulatorEquivalenceTest, OverflowInsideTheSecondInnermostLoop) {
  // The start index 2^61 * i + j leaves 64 bits at i = 4 and the upper
  // bound 2^62 * i at i = 2, both partway through a loop costed in runs;
  // B's subscript constant overflows while the nest is prepared, which
  // sends the nest value by value. The failure must be the walk's, in its
  // words.
  for (const char *Src : {R"(
program startx;
param N = 8;
array X[N + 1, N + 1];
forall i = 0 to N {
  for j = 0 to N {
    X[i, 2305843009213693952 * i + j] = f(X[i, j]) @cost(2);
  }
}
)",
                          R"(
program boundx;
param N = 8;
array X[N + 1, N + 1];
forall i = 0 to N {
  for j = 0 to min(N, 4611686018427387904 * i) {
    X[i, j] = f(X[j, i]) @cost(2);
  }
}
)",
                          R"(
program rowx;
param N = 8, M = 31;
array X[N + 1, N + 1], B[M + 1];
forall i = 0 to N {
  for j = 0 to N {
    X[i, j] = f(X[i, j], B[i + 4611686018427387904 * M]) @cost(2);
  }
}
)"}) {
    Program P = compile(Src);
    expectEquivalentEverywhere(P.Name, P);
    MachineParams M = machine(false);
    NumaSimulator Sim(P, M);
    Outcome O = outcomeOf([&] { return Sim.run(4); });
    EXPECT_EQ(O.Error, "rational-overflow: 64-bit overflow in rational "
                       "arithmetic")
        << P.Name;
  }
}
