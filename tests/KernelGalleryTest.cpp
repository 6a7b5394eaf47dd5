//===- tests/KernelGalleryTest.cpp - Classic kernel behaviour --------------===//
//
// End-to-end expectations for a gallery of classic dense kernels: what
// the paper's framework finds on each, including the honest negatives
// (kernels whose parallelism needs machinery the paper excludes, like
// block-cyclic distributions). Every result must pass the invariant
// verifier.
//
//===----------------------------------------------------------------------===//

#include "codegen/CommAnalysis.h"
#include "DecomposeForTest.h"
#include "KernelGallery.h"
#include "core/Driver.h"
#include "core/Verify.h"
#include "frontend/Lowering.h"

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

struct Result {
  Program P;
  ProgramDecomposition PD;
};

Result run(const std::string &Src) {
  Result R{compile(Src), {}};
  MachineParams M;
  R.PD = decomposeForTest(R.P, M);
  for (const Diagnostic &D : verifyDecompositionDiagnostics(R.P, R.PD))
    ADD_FAILURE() << D.str();
  return R;
}

unsigned totalParallelism(const Result &R) {
  unsigned T = 0;
  for (const auto &[NestId, CD] : R.PD.Comp) {
    (void)NestId;
    T += CD.parallelismDegree();
  }
  return T;
}

} // namespace

TEST(KernelGalleryTest, JacobiTwoBuffer) {
  // Two-buffer Jacobi: fully parallel sweeps, static 2-d decomposition,
  // nearest-neighbor shifts only.
  Result R = run(gallery::Jacobi);
  EXPECT_TRUE(R.PD.isStatic());
  EXPECT_EQ(R.PD.compOf(0).parallelismDegree(), 2u);
  EXPECT_EQ(R.PD.compOf(1).parallelismDegree(), 2u);
  CommSummary CS = analyzeCommunication(R.P, R.PD);
  EXPECT_TRUE(CS.isCommunicationFree());
  EXPECT_GT(CS.count(CommKind::NearestNeighbor), 0u);
}

TEST(KernelGalleryTest, GaussSeidelWavefront) {
  // In-place Gauss-Seidel: both loops carry dependences; the blocked
  // partition extracts doacross parallelism.
  Result R = run(gallery::GaussSeidel);
  EXPECT_TRUE(R.PD.compOf(0).isBlocked());
  EXPECT_TRUE(R.PD.compOf(0).Kernel.isTrivial());
  EXPECT_TRUE(R.PD.compOf(0).Localized.isFull());
}

TEST(KernelGalleryTest, MatmulBroadcastLayout) {
  Result R = run(gallery::Matmul);
  EXPECT_EQ(R.PD.compOf(0).parallelismDegree(), 2u);
  EXPECT_EQ(R.PD.ReplicatedDims.at(R.P.arrayId("A")), 1u);
  EXPECT_EQ(R.PD.ReplicatedDims.at(R.P.arrayId("B")), 1u);
  // C's kernel is only the reduction direction.
  EXPECT_EQ(R.PD.compOf(0).Kernel,
            VectorSpace::span(3, {Vector({0, 0, 1})}));
}

TEST(KernelGalleryTest, LuSerializesHonestly) {
  // LU factorization: the pivot row/column reads (A[k, k], A[k, j]) force
  // colocation under Eqn. 6 and A is written, so replication cannot
  // rescue it. The static affine framework (no block-cyclic
  // distributions, which the paper excludes) honestly reports no
  // parallelism; what matters is that nothing crashes and invariants
  // hold.
  Result R = run(gallery::Lu);
  EXPECT_EQ(totalParallelism(R), 0u);
}

TEST(KernelGalleryTest, FloydWarshallSerializesHonestly) {
  // Same story: D[i, k] and D[k, j] rows/columns of the written array are
  // shared by every iteration of the sweep.
  Result R = run(gallery::FloydWarshall);
  EXPECT_EQ(totalParallelism(R), 0u);
}

TEST(KernelGalleryTest, TriangularSolveRows) {
  // Forward substitution with one RHS per row: rows are independent.
  Result R = run(gallery::TriangularSolve);
  // Row-parallel: at least one degree survives, L is read-only and
  // replicated.
  EXPECT_GE(totalParallelism(R), 1u);
  EXPECT_TRUE(R.PD.ReplicatedDims.count(R.P.arrayId("L")));
}

TEST(KernelGalleryTest, TransposeCopyNeedsDiagonalOrReorg) {
  // Copy + transpose-copy chain: the framework either finds the diagonal
  // static partition or cuts the chain; both are consistent.
  Result R = run(gallery::TransposeCopy);
  if (R.PD.isStatic()) {
    // The diagonal direction must be in the kernels.
    EXPECT_TRUE(
        R.PD.dataAt(R.P.arrayId("A"), 0).Kernel.contains(Vector({1, -1})));
  } else {
    EXPECT_FALSE(R.PD.Reorganizations.empty());
  }
}
