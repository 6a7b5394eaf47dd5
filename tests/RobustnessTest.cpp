//===- tests/RobustnessTest.cpp - Fail-soft pipeline tests -----------------===//
//
// The docs/ROBUSTNESS.md contract: checked arithmetic agrees exactly with
// the plain operators in range and reports RationalOverflow (never aborts)
// out of range; budget exhaustion degrades each stage to a conservative
// sound answer; decomposeOrError returns a value or an error Status on
// every user-reachable input.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"
#include "core/Driver.h"
#include "frontend/Lowering.h"
#include "ir/Builder.h"
#include "linalg/FourierMotzkin.h"
#include "linalg/Rational.h"
#include "service/Batch.h"
#include "support/FailPoint.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace alp;

namespace {

Program compile(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = compileDsl(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    reportFatalError("test program failed to compile:\n" + Diags.str());
  return std::move(*P);
}

/// A budget so small every exact algorithm exhausts it immediately.
ResourceBudget starvation() {
  ResourceBudget B;
  B.MaxFMConstraints = 16;
  B.MaxEliminationSteps = 4;
  B.MaxSolverIterations = 4;
  return B;
}

const char *MatmulSrc = R"(
program mm;
param N = 63;
array A[N + 1, N + 1], B[N + 1, N + 1], C[N + 1, N + 1];
forall i = 0 to N {
  forall j = 0 to N {
    for k = 0 to N {
      C[i, j] += A[i, k] * B[k, j] @cost(2);
    }
  }
}
)";

//===----------------------------------------------------------------------===//
// Checked arithmetic
//===----------------------------------------------------------------------===//

TEST(RobustnessTest, CheckedArithmeticAgreesInRange) {
  // Property: on operands far from the 64-bit edge, checkedOp returns a
  // value identical to the throwing operator's result.
  Rng R(2026);
  for (int I = 0; I != 2000; ++I) {
    Rational A(R.nextInRange(-1000, 1000), R.nextInRange(1, 50));
    Rational B(R.nextInRange(-1000, 1000), R.nextInRange(1, 50));
    Expected<Rational> Sum = Rational::checkedAdd(A, B);
    ASSERT_TRUE(Sum.hasValue());
    EXPECT_EQ(*Sum, A + B);
    Expected<Rational> Diff = Rational::checkedSub(A, B);
    ASSERT_TRUE(Diff.hasValue());
    EXPECT_EQ(*Diff, A - B);
    Expected<Rational> Prod = Rational::checkedMul(A, B);
    ASSERT_TRUE(Prod.hasValue());
    EXPECT_EQ(*Prod, A * B);
    if (!B.isZero()) {
      Expected<Rational> Quot = Rational::checkedDiv(A, B);
      ASSERT_TRUE(Quot.hasValue());
      EXPECT_EQ(*Quot, A / B);
    }
  }
}

TEST(RobustnessTest, OverflowIsReportedNotFatal) {
  Rational Huge(INT64_MAX / 2, 1);
  Expected<Rational> Prod = Rational::checkedMul(Huge, Huge);
  ASSERT_FALSE(Prod.hasValue());
  EXPECT_EQ(Prod.status().code(), StatusCode::RationalOverflow);

  // The operator form throws a catchable AlpException with the same code —
  // it must not abort the process.
  try {
    Rational R = Huge * Huge * Huge;
    (void)R;
    FAIL() << "expected AlpException";
  } catch (const AlpException &E) {
    EXPECT_EQ(E.status().code(), StatusCode::RationalOverflow);
  }
}

TEST(RobustnessTest, CheckedLcmOverflow) {
  int64_t BigPrimeish = (int64_t(1) << 40) + 15;
  Expected<int64_t> L = checkedLcm64(BigPrimeish, BigPrimeish - 2);
  ASSERT_FALSE(L.hasValue());
  EXPECT_EQ(L.status().code(), StatusCode::RationalOverflow);

  Expected<int64_t> Ok = checkedLcm64(6, 10);
  ASSERT_TRUE(Ok.hasValue());
  EXPECT_EQ(*Ok, 30);
}

//===----------------------------------------------------------------------===//
// Budgeted Fourier-Motzkin
//===----------------------------------------------------------------------===//

TEST(RobustnessTest, BudgetedEliminationMatchesUnbudgeted) {
  // 0 <= x <= 10, 0 <= y <= 10, x + y <= 12: eliminating y keeps x in
  // [0, 10] either way.
  auto Build = [] {
    ConstraintSystem CS(2);
    CS.addLowerBound(0, 0);
    CS.addUpperBound(0, 10);
    CS.addLowerBound(1, 0);
    CS.addUpperBound(1, 10);
    CS.addInequality(Vector{Rational(-1), Rational(-1)}, Rational(12));
    return CS;
  };
  ConstraintSystem Plain = Build();
  Plain.eliminate(1);

  ConstraintSystem Budgeted = Build();
  ResourceBudget B = ResourceBudget::defaults();
  ASSERT_TRUE(Budgeted.eliminate(1, &B).isOk());

  std::optional<VariableBounds> BP = Plain.boundsOf(0);
  std::optional<VariableBounds> BB = Budgeted.boundsOf(0);
  ASSERT_TRUE(BP && BB);
  EXPECT_EQ(BP->Lower, BB->Lower);
  EXPECT_EQ(BP->Upper, BB->Upper);
}

TEST(RobustnessTest, EliminationBudgetExhaustionIsAStatus) {
  // Many paired bounds on the eliminated variable force lower x upper
  // combinations past a 1-step budget.
  ConstraintSystem CS(2);
  for (int I = 1; I <= 8; ++I) {
    CS.addInequality(Vector{Rational(1), Rational(I)}, Rational(100 * I));
    CS.addInequality(Vector{Rational(-1), Rational(-I)}, Rational(100 * I));
  }
  ResourceBudget B;
  B.MaxEliminationSteps = 1;
  Status S = CS.eliminate(1, &B);
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::BudgetExceeded);

  ConstraintSystem CS2(2);
  for (int I = 1; I <= 8; ++I) {
    CS2.addInequality(Vector{Rational(1), Rational(I)}, Rational(100 * I));
    CS2.addInequality(Vector{Rational(-1), Rational(-I)}, Rational(100 * I));
  }
  ResourceBudget B2;
  B2.MaxEliminationSteps = 1;
  Expected<bool> Feasible = CS2.isRationallyFeasible(&B2);
  ASSERT_FALSE(Feasible.hasValue());
  EXPECT_EQ(Feasible.status().code(), StatusCode::BudgetExceeded);
}

//===----------------------------------------------------------------------===//
// Conservative dependence fallback
//===----------------------------------------------------------------------===//

TEST(RobustnessTest, StarvedDependenceAnalysisAssumesDependence) {
  Program P = compile(MatmulSrc);
  ResourceBudget B = starvation();
  DependenceAnalysis DA(P, &B);
  std::vector<Dependence> Deps = DA.analyze(P.nest(0));

  EXPECT_TRUE(DA.degraded());
  EXPECT_FALSE(DA.warnings().empty());
  ASSERT_FALSE(Deps.empty());
  for (const Dependence &D : Deps)
    EXPECT_TRUE(D.Conservative) << D.str();

  // Conservative means no loop may be declared parallel.
  std::vector<bool> Par = DA.parallelizableLevels(P.nest(0));
  for (bool Level : Par)
    EXPECT_FALSE(Level);
}

TEST(RobustnessTest, UnbudgetedAnalysisIsExactOnSameProgram) {
  // Control: the same program with no budget parallelizes i and j.
  Program P = compile(MatmulSrc);
  DependenceAnalysis DA(P);
  EXPECT_FALSE(DA.degraded());
  std::vector<bool> Par = DA.parallelizableLevels(P.nest(0));
  ASSERT_EQ(Par.size(), 3u);
  EXPECT_TRUE(Par[0]);
  EXPECT_TRUE(Par[1]);
}

//===----------------------------------------------------------------------===//
// decomposeOrError end to end
//===----------------------------------------------------------------------===//

TEST(RobustnessTest, DecomposeOrErrorCleanRunHasNoDegradations) {
  Program P = compile(MatmulSrc);
  MachineParams M;
  Expected<ProgramDecomposition> R = decomposeOrError(P, M);
  ASSERT_TRUE(R.hasValue()) << R.status().str();
  EXPECT_FALSE(R->degraded()) << R->degradationReport();
  EXPECT_TRUE(R->degradationReport().empty());
}

TEST(RobustnessTest, DecomposeOrErrorStarvedDegradesButSucceeds) {
  Program P = compile(MatmulSrc);
  MachineParams M;
  DriverOptions Opts;
  Opts.Budget = starvation();
  Expected<ProgramDecomposition> R = decomposeOrError(P, M, Opts);
  ASSERT_TRUE(R.hasValue()) << R.status().str();
  EXPECT_TRUE(R->degraded());
  // Every nest still got a (trivial) decomposition.
  EXPECT_EQ(R->Comp.size(), 1u);
  std::string Report = R->degradationReport();
  EXPECT_NE(Report.find("warning: ["), std::string::npos);
}

TEST(RobustnessTest, StarvedReplicationResolveStillCoversReadOnlyArrays) {
  // Regression (fuzz seed 74): with replication enabled the partitions are
  // solved on a write-only interference graph; when that re-solve degrades
  // under budget pressure, orientation must still find kernels for the
  // read-only arrays instead of crashing on a missing map entry.
  Program P = compile(MatmulSrc);
  MachineParams M;
  DriverOptions Opts;
  Opts.Budget = starvation();
  Opts.EnableReplication = true;
  Expected<ProgramDecomposition> R = decomposeOrError(P, M, Opts);
  ASSERT_TRUE(R.hasValue()) << R.status().str();
  // A and B are read-only; their data decompositions must exist.
  EXPECT_TRUE(R->Data.count({0, 0}));
  EXPECT_TRUE(R->Data.count({1, 0}));
}

TEST(RobustnessTest, DecomposeOrErrorSurvivesOverflowBait) {
  // Coefficients near 2^40 so dependence-system products overflow 64 bits.
  ProgramBuilder PB("overflow_bait");
  SymAffine N = PB.param("N", 255);
  int64_t Big = int64_t(1) << 40;
  PB.array("A", {SymAffine(Big), SymAffine(Big)});
  NestBuilder NB = PB.nest();
  NB.loop("i", 0, N).loop("j", 0, N);
  NB.stmt(4);
  Matrix F(2, 2);
  F.at(0, 0) = Rational(Big);
  F.at(1, 1) = Rational(Big - 1);
  SymVector K(2);
  K[0] = SymAffine(Big - 3);
  NB.write("A", F, K);
  Matrix G(2, 2);
  G.at(0, 0) = Rational(Big - 1);
  G.at(1, 1) = Rational(Big);
  NB.read("A", G, SymVector(2));
  Program P = PB.build();

  MachineParams M;
  Expected<ProgramDecomposition> R = decomposeOrError(P, M);
  // Value (possibly degraded) or clean error Status; reaching this line at
  // all means no abort.
  if (R.hasValue())
    (void)printDecomposition(P, *R);
  else
    EXPECT_FALSE(R.status().isOk());
}

TEST(RobustnessTest, ExpiredDeadlineDegradesEverythingButReturns) {
  Program P = compile(MatmulSrc);
  MachineParams M;
  DriverOptions Opts;
  // A deadline already in the past when the pipeline starts: every stage
  // must degrade on its first budget check. (DeadlineMs measures from
  // decompose entry, so a small positive value only expires mid-run when
  // the pipeline is slow enough — not a property worth pinning.)
  Opts.Budget.setDeadlineIn(std::chrono::milliseconds(-1));
  Expected<ProgramDecomposition> R = decomposeOrError(P, M, Opts);
  ASSERT_TRUE(R.hasValue()) << R.status().str();
  EXPECT_TRUE(R->degraded());
}

//===----------------------------------------------------------------------===//
// Fault injection end to end: each site either degrades with a ledger
// entry or fails with a clean Status — promoted from chaos-sweep cases
// into named regressions so a fallback that regresses has a test to
// point at it.
//===----------------------------------------------------------------------===//

struct FailPointGuard {
  explicit FailPointGuard(const std::string &Spec) {
    Status S = FailPointRegistry::instance().configureList(Spec);
    EXPECT_TRUE(S.isOk()) << S.str();
  }
  ~FailPointGuard() { FailPointRegistry::instance().reset(); }
};

Expected<ProgramDecomposition> decomposeMatmul() {
  Program P = compile(MatmulSrc);
  MachineParams M;
  DriverOptions Opts;
  return decomposeOrError(P, M, Opts);
}

TEST(RobustnessTest, FaultedDependencePairDegradesToAssumedDependence) {
  FailPointGuard G("analysis.dependence.pair:throw");
  Expected<ProgramDecomposition> R = decomposeMatmul();
  ASSERT_TRUE(R.hasValue()) << R.status().str();
  EXPECT_TRUE(R->degraded());
  EXPECT_NE(R->degradationReport().find("dependence"), std::string::npos)
      << R->degradationReport();
}

TEST(RobustnessTest, FaultedPartitionSolveFallsBackToTrivialPartition) {
  for (const char *Mode : {"throw", "oom", "status-error"}) {
    FailPointGuard G(std::string("core.partition.solve:") + Mode);
    Expected<ProgramDecomposition> R = decomposeMatmul();
    ASSERT_TRUE(R.hasValue()) << Mode << ": " << R.status().str();
    EXPECT_TRUE(R->degraded()) << Mode;
    // Trivial fallback: the nest still has a (sequential) decomposition.
    EXPECT_EQ(R->Comp.size(), 1u);
  }
}

TEST(RobustnessTest, FaultedOrientationSolveDegradesNotCrashes) {
  FailPointGuard G("core.orientation.solve:throw");
  Expected<ProgramDecomposition> R = decomposeMatmul();
  ASSERT_TRUE(R.hasValue()) << R.status().str();
  EXPECT_TRUE(R->degraded());
}

TEST(RobustnessTest, FaultedRationalArithmeticIsAbsorbedByStages) {
  // Compile before arming: the frontend uses Rational too, and a fault
  // during DSL lowering is a compile failure, not a pipeline degradation.
  Program P = compile(MatmulSrc);
  FailPointGuard G("linalg.rational:throw");
  Expected<ProgramDecomposition> R = decomposeOrError(P, MachineParams(), {});
  // Rational faults fire everywhere; a value (degraded) or a clean error
  // are both within contract — reaching this line is the test.
  if (R.hasValue())
    EXPECT_TRUE(R->degraded());
  else
    EXPECT_FALSE(R.status().isOk());
}

TEST(RobustnessTest, FaultedFmEliminationDegradesLikeBudgetExhaustion) {
  FailPointGuard G("linalg.fm.eliminate:budget-exhaust");
  Expected<ProgramDecomposition> R = decomposeMatmul();
  ASSERT_TRUE(R.hasValue()) << R.status().str();
  EXPECT_TRUE(R->degraded());
}

TEST(RobustnessTest, FaultedCacheStaysOutputIdentical) {
  Expected<ProgramDecomposition> Baseline = decomposeMatmul();
  ASSERT_TRUE(Baseline.hasValue());
  Program P = compile(MatmulSrc);
  std::string Golden = printDecomposition(P, *Baseline);
  for (const char *Site :
       {"analysis.cache.lookup", "analysis.cache.insert"}) {
    FailPointGuard G(std::string(Site) + ":status-error");
    Expected<ProgramDecomposition> R = decomposeMatmul();
    ASSERT_TRUE(R.hasValue()) << Site << ": " << R.status().str();
    // A faulted cache only forces misses / drops stores; the result and
    // the ledger must be exactly the baseline's.
    EXPECT_FALSE(R->degraded()) << Site;
    EXPECT_EQ(printDecomposition(P, *R), Golden) << Site;
  }
}

TEST(RobustnessTest, FaultedPipelineEntryIsACleanError) {
  FailPointGuard G("driver.pipeline:throw");
  Expected<ProgramDecomposition> R = decomposeMatmul();
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.status().code(), StatusCode::FaultInjected);
}

TEST(RobustnessTest, FaultedDriverTasksDegradeEverySupervisedStage) {
  // driver.task fires inside the Supervisor on every attempt of every
  // supervised task (local phase, dependence pairs, initial partition
  // solves): all three stages must degrade and the pipeline still
  // produces a decomposition for the nest.
  FailPointGuard G("driver.task:throw");
  Expected<ProgramDecomposition> R = decomposeMatmul();
  ASSERT_TRUE(R.hasValue()) << R.status().str();
  EXPECT_TRUE(R->degraded());
  EXPECT_EQ(R->Comp.size(), 1u);
}

TEST(RobustnessTest, InjectedFaultsAreJobsDeterministic) {
  // Unbounded trigger counts fire on every hit, so which compiles degrade
  // cannot depend on scheduling: a batch compiled by one worker and by
  // four must produce the same bytes, item by item and in its report.
  FailPointGuard G("analysis.dependence.pair:throw");
  std::vector<CompileRequest> Items;
  for (unsigned N = 31; N <= 143; N += 16) {
    std::string Src = MatmulSrc;
    Src.replace(Src.find("N = 63"), 6, "N = " + std::to_string(N));
    CompileRequest Req;
    Req.FileName = "mm_" + std::to_string(N) + ".alp";
    Req.Source = std::move(Src);
    Req.DoSpmd = true;
    Items.push_back(std::move(Req));
  }
  BatchOptions One, Four;
  One.Jobs = 1;
  Four.Jobs = 4;
  BatchSession S1(One), S4(Four);
  std::vector<BatchItemResult> R1 = S1.run(Items);
  std::vector<BatchItemResult> R4 = S4.run(Items);
  ASSERT_EQ(R1.size(), Items.size());
  ASSERT_EQ(R4.size(), Items.size());
  for (size_t I = 0; I != Items.size(); ++I) {
    EXPECT_EQ(R1[I].ExitCode, 4) << Items[I].FileName << R1[I].Error;
    EXPECT_EQ(R1[I].ExitCode, R4[I].ExitCode) << Items[I].FileName;
    EXPECT_EQ(R1[I].Output, R4[I].Output) << Items[I].FileName;
    EXPECT_EQ(R1[I].Error, R4[I].Error) << Items[I].FileName;
  }
  EXPECT_EQ(S1.reportJson(), S4.reportJson());
}

TEST(RobustnessTest, FailpointSpecParsingRejectsGarbage) {
  FailPointRegistry &R = FailPointRegistry::instance();
  EXPECT_FALSE(R.configureList("no.such.site:throw").isOk());
  EXPECT_FALSE(R.configureList("driver.pipeline:explode").isOk());
  EXPECT_FALSE(R.configureList("driver.pipeline:throw:x").isOk());
  EXPECT_FALSE(R.configureList(",").isOk());
  R.reset();
}

} // namespace
