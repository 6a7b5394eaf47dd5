//===- tests/ArenaTest.cpp - Arena + SmallVec allocation contract ----------===//
//
// The support/Arena.h contract: mark/rewind reclaims in O(1) and reuses
// warm blocks; ArenaScope nests and restores the thread's current arena;
// SmallVec stays inline up to its capacity, spills to the active arena
// when one exists and to the counted global heap otherwise; the
// linalg.matrix.alloc failpoint fires exactly on the spill path; and a
// warmed-up decomposition of the shipped examples performs zero linalg
// heap allocations.
//
//===----------------------------------------------------------------------===//

#include "DecomposeForTest.h"
#include "core/Driver.h"
#include "frontend/Lowering.h"
#include "linalg/Matrix.h"
#include "service/Batch.h"
#include "support/Arena.h"
#include "support/FailPoint.h"
#include "support/SmallVec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

using namespace alp;

namespace {

TEST(ArenaTest, AllocateRespectsAlignment) {
  Arena A;
  for (size_t Align : {1u, 2u, 8u, 16u, 64u}) {
    void *P = A.allocate(3, Align);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u);
  }
}

TEST(ArenaTest, MarkRewindReusesSameMemory) {
  Arena A;
  (void)A.allocate(64, 8); // Warm the first block.
  Arena::Mark M = A.mark();
  void *P1 = A.allocate(128, 8);
  (void)A.allocate(256, 8);
  A.rewind(M);
  void *P2 = A.allocate(128, 8);
  // Rewinding reclaimed the space, so the same bytes come back.
  EXPECT_EQ(P1, P2);
}

TEST(ArenaTest, LargeAllocationGetsDedicatedBlock) {
  Arena A;
  void *Small = A.allocate(16, 8);
  void *Big = A.allocate(1 << 20, 64); // Larger than the default block.
  ASSERT_NE(Big, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Big) % 64, 0u);
  // The small allocation is untouched by the growth.
  EXPECT_NE(Small, Big);
  std::memset(Big, 0xAB, 1 << 20); // Must be writable end to end.
}

TEST(ArenaTest, ScopeInstallsAndRestoresCurrent) {
  Arena *Before = Arena::current();
  {
    ArenaScope Outer;
    Arena *In = Arena::current();
    ASSERT_NE(In, nullptr);
    {
      ArenaScope Inner;
      // Same thread-local arena, nested scope.
      EXPECT_EQ(Arena::current(), In);
    }
    EXPECT_EQ(Arena::current(), In);
  }
  EXPECT_EQ(Arena::current(), Before);
}

TEST(ArenaTest, NestedScopeRewindsOnlyItsOwnAllocations) {
  ArenaScope Outer;
  Arena &A = *Arena::current();
  void *OuterPtr = A.allocate(64, 8);
  std::memset(OuterPtr, 0x5A, 64);
  void *InnerPtr = nullptr;
  {
    ArenaScope Inner;
    InnerPtr = A.allocate(64, 8);
  }
  // The inner scope's allocation is reclaimed: the next allocation of the
  // same shape reuses its bytes, while the outer allocation survives.
  void *Again = A.allocate(64, 8);
  EXPECT_EQ(Again, InnerPtr);
  for (unsigned I = 0; I != 64; ++I)
    EXPECT_EQ(static_cast<unsigned char *>(OuterPtr)[I], 0x5A);
}

TEST(SmallVecTest, StaysInlineUpToCapacity) {
  const uint64_t SpillsBefore = containerHeapSpills();
  SmallVec<int, 4> V;
  for (int I = 0; I != 4; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 4u);
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(V[I], I);
  EXPECT_EQ(containerHeapSpills(), SpillsBefore);
}

TEST(SmallVecTest, SpillBeyondInlineIsCountedWithoutArena) {
  ASSERT_EQ(Arena::current(), nullptr);
  const uint64_t SpillsBefore = containerHeapSpills();
  SmallVec<int, 4> V;
  for (int I = 0; I != 5; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 5u);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(V[I], I);
  EXPECT_GT(containerHeapSpills(), SpillsBefore);
}

TEST(SmallVecTest, SpillLandsInArenaUnderScope) {
  ArenaScope Scope;
  const uint64_t SpillsBefore = containerHeapSpills();
  const uint64_t ArenaBefore = arenaBytesAllocated();
  SmallVec<int, 4> V;
  for (int I = 0; I != 100; ++I)
    V.push_back(I);
  for (int I = 0; I != 100; ++I)
    ASSERT_EQ(V[I], I);
  // Growth went to the arena, not the heap.
  EXPECT_EQ(containerHeapSpills(), SpillsBefore);
  EXPECT_GT(arenaBytesAllocated(), ArenaBefore);
}

TEST(SmallVecTest, CopyAndMovePreserveValues) {
  SmallVec<int, 4> V{1, 2, 3, 4, 5, 6};
  SmallVec<int, 4> C(V);
  EXPECT_TRUE(C == V);
  SmallVec<int, 4> M(std::move(C));
  EXPECT_TRUE(M == V);
  SmallVec<int, 4> A;
  A = V;
  EXPECT_TRUE(A == V);
  SmallVec<int, 4> B;
  B = std::move(A);
  EXPECT_TRUE(B == V);
}

struct FailPointGuard {
  explicit FailPointGuard(const std::string &Spec) {
    Status S = FailPointRegistry::instance().configureList(Spec);
    EXPECT_TRUE(S.isOk()) << S.str();
  }
  ~FailPointGuard() { FailPointRegistry::instance().reset(); }
};

TEST(SmallVecTest, MatrixAllocFailpointFiresOnSpillOnly) {
  FailPointGuard G("linalg.matrix.alloc:throw");
  // Inline-sized linalg values never hit the spill path, so the armed
  // failpoint stays silent.
  Vector Small(Vector::InlineElems);
  Small[0] = Rational(7);
  EXPECT_EQ(Small[0], Rational(7));
  // One element past the inline capacity must take the (faulted) spill
  // path — with or without an arena.
  EXPECT_THROW(Vector Big(Vector::InlineElems + 1), AlpException);
  ArenaScope Scope;
  EXPECT_THROW(Vector Big(Vector::InlineElems + 1), AlpException);
}

TEST(SmallVecTest, ThrowingGrowthHookLeavesContainerIntact) {
  SmallVec<int, 4, &detail::matrixAllocHook> V;
  for (int I = 0; I != 4; ++I)
    V.push_back(I);
  {
    FailPointGuard G("linalg.matrix.alloc:throw");
    EXPECT_THROW(V.push_back(99), AlpException);
  }
  // The hook runs before any state changes: size and contents survive.
  ASSERT_EQ(V.size(), 4u);
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(V[I], I);
  // Disarmed, the same growth succeeds.
  V.push_back(99);
  EXPECT_EQ(V[4], 99);
}

//===----------------------------------------------------------------------===//
// Steady-state contract: after one warm-up decomposition, re-decomposing a
// shipped example performs zero linalg heap allocations — everything fits
// inline or lands in warm arena blocks.
//===----------------------------------------------------------------------===//

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

Program compile(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = compileDsl(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    reportFatalError("test program failed to compile:\n" + Diags.str());
  return std::move(*P);
}

void expectZeroSteadyStateAllocs(const std::string &Path) {
  Program P = compile(readFile(Path));
  MachineParams M;
  DriverOptions Opts;
  decomposeForTest(P, M, Opts); // Warm-up: thread-local arenas grow their blocks.
  const uint64_t SpillsBefore = containerHeapSpills();
  decomposeForTest(P, M, Opts);
  EXPECT_EQ(containerHeapSpills() - SpillsBefore, 0u)
      << "linalg containers hit the heap in steady state for " << Path;
}

TEST(ArenaSteadyStateTest, Fig1DecompositionIsAllocationFree) {
  expectZeroSteadyStateAllocs(std::string(ALP_TESTDATA_DIR) + "/fig1.alp");
}

TEST(ArenaSteadyStateTest, JacobiDecompositionIsAllocationFree) {
  expectZeroSteadyStateAllocs(std::string(ALP_EXAMPLES_DIR) + "/jacobi.alp");
}

// The batch extension of the same contract (service/Batch.h): a
// BatchSession's pool — and with it every worker's thread-local arena —
// persists across run() calls, so once one batch has warmed the blocks, a
// 50-request batch of fresh compiles performs zero linalg heap
// allocations end to end.
TEST(ArenaTest, BatchSteadyStateAllocationFree) {
  // 50 distinct programs of one shape (each `param N` differs, so every
  // canonical key is unique and nothing dedups or cache-hits away — all
  // 50 compile for real on each run).
  std::vector<CompileRequest> Items;
  for (unsigned I = 0; I != 50; ++I) {
    CompileRequest Req;
    Req.FileName = "warm_" + std::to_string(I) + ".alp";
    Req.Source = "program warm_" + std::to_string(I) + ";\n" +
                 "param N = " + std::to_string(48 + I) + ";\n" +
                 "array A[N + 2], B[N + 2];\n" +
                 "forall i = 1 to N {\n" +
                 "  B[i] = f(A[i - 1], A[i + 1]) @cost(1);\n" +
                 "}\n" +
                 "forall i = 1 to N {\n" +
                 "  A[i] = f(B[i]) @cost(1);\n" +
                 "}\n";
    Items.push_back(std::move(Req));
  }
  BatchOptions Opts;
  Opts.Jobs = 1; // One warm worker: every compile reuses its arena.
  BatchSession Session(Opts);
  std::vector<BatchItemResult> Warmup = Session.run(Items);
  for (const BatchItemResult &R : Warmup)
    ASSERT_EQ(R.ExitCode, 0) << R.Error;
  const uint64_t SpillsBefore = containerHeapSpills();
  std::vector<BatchItemResult> Warm = Session.run(Items);
  EXPECT_EQ(containerHeapSpills() - SpillsBefore, 0u)
      << "linalg containers hit the heap in a warm batch";
  for (size_t I = 0; I != Items.size(); ++I) {
    EXPECT_EQ(Warm[I].ExitCode, 0);
    EXPECT_EQ(Warm[I].Output, Warmup[I].Output);
  }
}

} // namespace
