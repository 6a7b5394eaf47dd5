//===- tests/LinalgPropertyTest.cpp - Exact linalg equivalence -------------===//
//
// Seeded randomized properties pinning the arena/SBO/integer-fast-path
// rewrite to the pre-existing heap Rational semantics, bit for bit:
//
//  * rref / inverse / nullspaceBasis agree exactly with straightforward
//    std::vector<Rational> reference implementations of the same
//    algorithms (same pivot choice, binary-operator arithmetic);
//  * Fourier-Motzkin projection, feasibility, and bounds are identical
//    with the integer fast path enabled and disabled;
//  * results are identical with and without an active ArenaScope;
//  * the in-place Rational compound operators agree with the binary
//    operators at and beyond the int64 overflow boundary — same values
//    in range, same RationalOverflow out of range;
//  * the linalg.matrix.alloc failpoint still fires on the spill path of
//    a grown projection;
//  * a ProjectionWalk answers, charges the budget, trips, faults and
//    overflows exactly like independent from-scratch projections;
//  * incremental simplify (after an elimination of a simplified system)
//    yields the same rows, in the same order, as a fresh system.
//
//===----------------------------------------------------------------------===//

#include "linalg/FourierMotzkin.h"
#include "linalg/Matrix.h"
#include "support/Arena.h"
#include "support/Budget.h"
#include "support/FailPoint.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

using namespace alp;

namespace {

using Table = std::vector<std::vector<Rational>>;

//===----------------------------------------------------------------------===//
// Reference implementations: the pre-rewrite algorithms verbatim, on plain
// heap storage with binary-operator arithmetic only.
//===----------------------------------------------------------------------===//

Table refRref(Table M, std::vector<unsigned> *PivotCols = nullptr) {
  const unsigned Rows = M.size();
  const unsigned Cols = Rows ? M[0].size() : 0;
  if (PivotCols)
    PivotCols->clear();
  unsigned PivotRow = 0;
  for (unsigned C = 0; C != Cols && PivotRow != Rows; ++C) {
    unsigned Found = Rows;
    for (unsigned R = PivotRow; R != Rows; ++R)
      if (!M[R][C].isZero()) {
        Found = R;
        break;
      }
    if (Found == Rows)
      continue;
    if (Found != PivotRow)
      std::swap(M[Found], M[PivotRow]);
    Rational Inv = M[PivotRow][C].reciprocal();
    for (unsigned K = 0; K != Cols; ++K)
      M[PivotRow][K] = M[PivotRow][K] * Inv;
    for (unsigned R = 0; R != Rows; ++R) {
      if (R == PivotRow)
        continue;
      Rational Factor = M[R][C];
      if (Factor.isZero())
        continue;
      for (unsigned K = 0; K != Cols; ++K)
        M[R][K] = M[R][K] - Factor * M[PivotRow][K];
    }
    if (PivotCols)
      PivotCols->push_back(C);
    ++PivotRow;
  }
  return M;
}

std::optional<Table> refInverse(const Table &M) {
  const unsigned N = M.size();
  Table Aug(N, std::vector<Rational>(2 * N));
  for (unsigned R = 0; R != N; ++R) {
    for (unsigned C = 0; C != N; ++C)
      Aug[R][C] = M[R][C];
    Aug[R][N + R] = Rational(1);
  }
  std::vector<unsigned> Pivots;
  Table Red = refRref(Aug, &Pivots);
  if (Pivots.size() != N || (N && Pivots.back() >= N))
    return std::nullopt;
  Table Inv(N, std::vector<Rational>(N));
  for (unsigned R = 0; R != N; ++R)
    for (unsigned C = 0; C != N; ++C)
      Inv[R][C] = Red[R][N + C];
  return Inv;
}

std::vector<std::vector<Rational>> refNullspace(const Table &M) {
  const unsigned Rows = M.size();
  const unsigned Cols = Rows ? M[0].size() : 0;
  std::vector<unsigned> Pivots;
  Table R = refRref(M, &Pivots);
  std::vector<bool> IsPivot(Cols, false);
  for (unsigned P : Pivots)
    IsPivot[P] = true;
  std::vector<std::vector<Rational>> Basis;
  for (unsigned Free = 0; Free != Cols; ++Free) {
    if (IsPivot[Free])
      continue;
    std::vector<Rational> V(Cols);
    V[Free] = Rational(1);
    for (unsigned I = 0; I != Pivots.size(); ++I)
      V[Pivots[I]] = -R[I][Free];
    Basis.push_back(std::move(V));
  }
  return Basis;
}

//===----------------------------------------------------------------------===//
// Random generators.
//===----------------------------------------------------------------------===//

Rational randomRational(Rng &G, bool AllowFractions) {
  int64_t Num = int64_t(G.nextBelow(21)) - 10;
  int64_t Den = AllowFractions ? int64_t(G.nextBelow(6)) + 1 : 1;
  return Rational(Num, Den);
}

Matrix randomMatrix(Rng &G, unsigned Rows, unsigned Cols,
                    bool AllowFractions, Table *Ref = nullptr) {
  Matrix M(Rows, Cols);
  if (Ref)
    Ref->assign(Rows, std::vector<Rational>(Cols));
  for (unsigned R = 0; R != Rows; ++R)
    for (unsigned C = 0; C != Cols; ++C) {
      Rational V = randomRational(G, AllowFractions);
      M.at(R, C) = V;
      if (Ref)
        (*Ref)[R][C] = V;
    }
  return M;
}

ConstraintSystem randomSystem(Rng &G, unsigned Vars, unsigned Constraints,
                              bool AllowFractions) {
  ConstraintSystem CS(Vars);
  for (unsigned I = 0; I != Constraints; ++I) {
    Vector C(Vars);
    for (unsigned V = 0; V != Vars; ++V)
      C[V] = randomRational(G, AllowFractions);
    Rational K = randomRational(G, AllowFractions);
    if (G.nextBelow(4) == 0)
      CS.addEquality(C, K);
    else
      CS.addInequality(C, K);
  }
  return CS;
}

void expectTableEq(const Matrix &M, const Table &T) {
  ASSERT_EQ(M.rows(), T.size());
  for (unsigned R = 0; R != M.rows(); ++R) {
    ASSERT_EQ(M.cols(), T[R].size());
    for (unsigned C = 0; C != M.cols(); ++C)
      EXPECT_EQ(M.at(R, C), T[R][C]) << "at (" << R << "," << C << ")";
  }
}

//===----------------------------------------------------------------------===//
// Production vs reference, bit for bit.
//===----------------------------------------------------------------------===//

TEST(LinalgPropertyTest, RrefMatchesReference) {
  Rng G(0x51ab1e01);
  for (int Iter = 0; Iter != 60; ++Iter) {
    unsigned Rows = 1 + G.nextBelow(9); // Up to 9x9: exercises SBO spill.
    unsigned Cols = 1 + G.nextBelow(9);
    Table Ref;
    Matrix M = randomMatrix(G, Rows, Cols, Iter % 2 == 0, &Ref);
    // Deep fraction chains can exceed 64 bits; production and reference
    // must then overflow at the same elimination step.
    std::vector<unsigned> PivA, PivB;
    std::optional<Matrix> R;
    try {
      R = M.rref(&PivA);
    } catch (const AlpException &) {
    }
    std::optional<Table> RRef;
    try {
      RRef = refRref(Ref, &PivB);
    } catch (const AlpException &) {
    }
    ASSERT_EQ(R.has_value(), RRef.has_value()) << "iter " << Iter;
    if (!R)
      continue;
    EXPECT_EQ(PivA, PivB);
    expectTableEq(*R, *RRef);
  }
}

TEST(LinalgPropertyTest, InverseMatchesReference) {
  Rng G(0x51ab1e02);
  for (int Iter = 0; Iter != 60; ++Iter) {
    unsigned N = 1 + G.nextBelow(7);
    Table Ref;
    Matrix M = randomMatrix(G, N, N, Iter % 2 == 0, &Ref);
    std::optional<Matrix> Inv;
    bool ThrewA = false;
    try {
      Inv = M.inverse();
    } catch (const AlpException &) {
      ThrewA = true;
    }
    std::optional<Table> RInv;
    bool ThrewB = false;
    try {
      RInv = refInverse(Ref);
    } catch (const AlpException &) {
      ThrewB = true;
    }
    ASSERT_EQ(ThrewA, ThrewB) << "iter " << Iter;
    if (ThrewA)
      continue;
    ASSERT_EQ(Inv.has_value(), RInv.has_value());
    if (Inv)
      expectTableEq(*Inv, *RInv);
  }
}

TEST(LinalgPropertyTest, NullspaceMatchesReference) {
  Rng G(0x51ab1e03);
  for (int Iter = 0; Iter != 60; ++Iter) {
    unsigned Rows = 1 + G.nextBelow(6);
    unsigned Cols = 1 + G.nextBelow(8);
    Table Ref;
    Matrix M = randomMatrix(G, Rows, Cols, Iter % 2 == 0, &Ref);
    std::vector<Vector> Basis = M.nullspaceBasis();
    std::vector<std::vector<Rational>> RBasis = refNullspace(Ref);
    ASSERT_EQ(Basis.size(), RBasis.size());
    // Production normalizes each basis vector; mirror that here.
    for (unsigned I = 0; I != Basis.size(); ++I) {
      Vector V(RBasis[I].size());
      for (unsigned C = 0; C != RBasis[I].size(); ++C)
        V[C] = RBasis[I][C];
      EXPECT_EQ(Basis[I], V.normalizedDirection());
    }
  }
}

//===----------------------------------------------------------------------===//
// Integer fast path: eliminating over checked int64 must be externally
// indistinguishable from the Rational path.
//===----------------------------------------------------------------------===//

struct FastPathGuard {
  explicit FastPathGuard(bool On) { Prev = setFmIntegerFastPath(On); }
  ~FastPathGuard() { setFmIntegerFastPath(Prev); }
  bool Prev;
};

TEST(LinalgPropertyTest, FmProjectionIdenticalWithAndWithoutFastPath) {
  Rng G(0xf41c0701);
  for (int Iter = 0; Iter != 40; ++Iter) {
    unsigned Vars = 2 + G.nextBelow(3);
    unsigned Cons = 2 + G.nextBelow(7);
    // Half the systems are all-integer (fast-path eligible), half carry
    // fractions (must fall back identically).
    bool Fractions = Iter % 2 == 0;
    uint64_t Seed = G.next();
    unsigned Var = G.nextBelow(Vars);

    auto Project = [&](bool FastPath) {
      Rng Local(Seed);
      ConstraintSystem CS = randomSystem(Local, Vars, Cons, Fractions);
      FastPathGuard FP(FastPath);
      CS.eliminate(Var);
      return CS.str();
    };
    auto Feasible = [&](bool FastPath) {
      Rng Local(Seed);
      ConstraintSystem CS = randomSystem(Local, Vars, Cons, Fractions);
      FastPathGuard FP(FastPath);
      return CS.isRationallyFeasible();
    };
    EXPECT_EQ(Project(true), Project(false)) << "seed " << Seed;
    EXPECT_EQ(Feasible(true), Feasible(false)) << "seed " << Seed;
  }
}

TEST(LinalgPropertyTest, FmBoundsIdenticalWithAndWithoutFastPath) {
  Rng G(0xf41c0702);
  for (int Iter = 0; Iter != 25; ++Iter) {
    unsigned Vars = 2 + G.nextBelow(2);
    unsigned Cons = 2 + G.nextBelow(5);
    uint64_t Seed = G.next();
    unsigned Var = G.nextBelow(Vars);
    auto Bounds = [&](bool FastPath) -> std::string {
      Rng Local(Seed);
      ConstraintSystem CS = randomSystem(Local, Vars, Cons, Iter % 2 == 0);
      FastPathGuard FP(FastPath);
      auto B = CS.boundsOf(Var);
      if (!B)
        return "<infeasible>";
      std::string S;
      S += B->Lower ? B->Lower->str() : "-inf";
      S += " .. ";
      S += B->Upper ? B->Upper->str() : "+inf";
      return S;
    };
    EXPECT_EQ(Bounds(true), Bounds(false)) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Arena invariance: the same computation under an ArenaScope produces the
// same bits. (Comparison happens inside the scope: containers that grew
// there must not outlive it.)
//===----------------------------------------------------------------------===//

TEST(LinalgPropertyTest, ResultsIdenticalUnderArenaScope) {
  Rng G(0xa4e7a001);
  for (int Iter = 0; Iter != 30; ++Iter) {
    unsigned Rows = 1 + G.nextBelow(9);
    unsigned Cols = 1 + G.nextBelow(9);
    uint64_t Seed = G.next();
    Rng L1(Seed);
    Matrix M1 = randomMatrix(L1, Rows, Cols, Iter % 2 == 0);
    std::optional<Matrix> Plain;
    try {
      Plain = M1.rref();
    } catch (const AlpException &) {
    }
    {
      ArenaScope Scope;
      Rng L2(Seed);
      Matrix M2 = randomMatrix(L2, Rows, Cols, Iter % 2 == 0);
      std::optional<Matrix> Scoped;
      try {
        Scoped = M2.rref();
      } catch (const AlpException &) {
      }
      ASSERT_EQ(Scoped.has_value(), Plain.has_value()) << "iter " << Iter;
      if (Scoped) {
        EXPECT_EQ(*Scoped, *Plain);
        EXPECT_EQ(M2.rank(), M1.rank());
      }
    }
  }
}

TEST(LinalgPropertyTest, FmFeasibilityIdenticalUnderArenaScope) {
  Rng G(0xa4e7a002);
  for (int Iter = 0; Iter != 30; ++Iter) {
    unsigned Vars = 2 + G.nextBelow(3);
    unsigned Cons = 2 + G.nextBelow(7);
    uint64_t Seed = G.next();
    Rng L1(Seed);
    ConstraintSystem C1 = randomSystem(L1, Vars, Cons, Iter % 2 == 0);
    bool Plain = C1.isRationallyFeasible();
    {
      ArenaScope Scope;
      Rng L2(Seed);
      ConstraintSystem C2 = randomSystem(L2, Vars, Cons, Iter % 2 == 0);
      EXPECT_EQ(C2.isRationallyFeasible(), Plain);
    }
  }
}

//===----------------------------------------------------------------------===//
// Overflow boundary: the in-place compound operators must agree with the
// binary operators exactly — same value in range, RationalOverflow out of
// range, and a throwing compound op leaves its target untouched.
//===----------------------------------------------------------------------===//

Rational randomBoundary(Rng &G) {
  // Mix huge magnitudes (near INT64_MAX) with small ones so sums and
  // products straddle the overflow boundary.
  switch (G.nextBelow(4)) {
  case 0:
    return Rational(INT64_MAX - int64_t(G.nextBelow(3)),
                    1 + int64_t(G.nextBelow(3)));
  case 1:
    return Rational(INT64_MIN + 1 + int64_t(G.nextBelow(3)),
                    1 + int64_t(G.nextBelow(3)));
  case 2:
    return Rational(int64_t(G.nextBelow(7)) - 3, 1 + int64_t(G.nextBelow(5)));
  default:
    return Rational((int64_t(1) << 31) + int64_t(G.nextBelow(9)),
                    1 + int64_t(G.nextBelow(4)));
  }
}

TEST(LinalgPropertyTest, CompoundOpsAgreeWithBinaryAtOverflowBoundary) {
  Rng G(0x0f10b001);
  int Overflows = 0;
  for (int Iter = 0; Iter != 4000; ++Iter) {
    Rational A = randomBoundary(G);
    Rational B = randomBoundary(G);
    struct Op {
      Rational (*Binary)(const Rational &, const Rational &);
      void (*Compound)(Rational &, const Rational &);
    };
    static const Op Ops[] = {
        {[](const Rational &X, const Rational &Y) { return X + Y; },
         [](Rational &X, const Rational &Y) { X += Y; }},
        {[](const Rational &X, const Rational &Y) { return X - Y; },
         [](Rational &X, const Rational &Y) { X -= Y; }},
        {[](const Rational &X, const Rational &Y) { return X * Y; },
         [](Rational &X, const Rational &Y) { X *= Y; }},
        {[](const Rational &X, const Rational &Y) { return X / Y; },
         [](Rational &X, const Rational &Y) { X /= Y; }},
    };
    for (const Op &O : Ops) {
      if (&O == &Ops[3] && B.isZero())
        continue;
      std::optional<Rational> BinVal;
      bool BinThrew = false;
      try {
        BinVal = O.Binary(A, B);
      } catch (const AlpException &) {
        BinThrew = true;
      }
      Rational C = A;
      bool CompThrew = false;
      try {
        O.Compound(C, B);
      } catch (const AlpException &) {
        CompThrew = true;
      }
      EXPECT_EQ(BinThrew, CompThrew)
          << A.str() << " op " << B.str() << ": binary/compound disagree";
      if (BinThrew)
        ++Overflows;
      else
        EXPECT_EQ(C, *BinVal) << A.str() << " op " << B.str();
    }
  }
  // The generator must actually reach the boundary for this test to mean
  // anything.
  EXPECT_GT(Overflows, 100);
}

TEST(LinalgPropertyTest, FmOverflowThrowsIdenticallyOnBothPaths) {
  // An all-integer system whose cross-multiplications exceed int64: both
  // the integer fast path and the Rational fallback must report
  // RationalOverflow (never wrap or abort).
  auto Build = [] {
    ConstraintSystem CS(2);
    Vector L(2);
    L[0] = Rational(int64_t(1) << 40);
    L[1] = Rational(1);
    CS.addInequality(L, Rational(0)); // 2^40 x + y >= 0.
    Vector U(2);
    U[0] = Rational(-(int64_t(1) << 40));
    U[1] = Rational(1);
    CS.addInequality(U, Rational(0)); // -2^40 x + y >= 0.
    Vector W(2);
    W[0] = Rational(int64_t(1) << 41);
    W[1] = Rational(int64_t(1) << 41);
    CS.addInequality(W, Rational(0));
    return CS;
  };
  for (bool FastPath : {true, false}) {
    FastPathGuard FP(FastPath);
    ConstraintSystem CS = Build();
    try {
      CS.eliminate(0);
      // Reaching here is fine only if elimination needed no overflowing
      // combination; force the issue by checking the known-overflow pair.
      FAIL() << "expected RationalOverflow (fast path " << FastPath << ")";
    } catch (const AlpException &E) {
      EXPECT_EQ(E.status().code(), StatusCode::RationalOverflow)
          << E.status().str();
    }
  }
}

//===----------------------------------------------------------------------===//
// The spill failpoint: a projection that grows a constraint row beyond the
// inline capacity still trips linalg.matrix.alloc when armed.
//===----------------------------------------------------------------------===//

TEST(LinalgPropertyTest, MatrixAllocFailpointFiresOnGrownProjection) {
  Status S =
      FailPointRegistry::instance().configureList("linalg.matrix.alloc:throw");
  ASSERT_TRUE(S.isOk()) << S.str();
  bool Fired = false;
  try {
    // More variables than Vector's inline capacity: building the
    // constraint rows must spill and hit the armed site.
    ConstraintSystem CS(Vector::InlineElems + 4);
    Vector C(Vector::InlineElems + 4);
    C[0] = Rational(1);
    CS.addInequality(C, Rational(0));
  } catch (const AlpException &E) {
    Fired = E.status().code() == StatusCode::FaultInjected;
  }
  FailPointRegistry::instance().reset();
  EXPECT_TRUE(Fired);
}

//===----------------------------------------------------------------------===//
// Projection walk: against a from-scratch reference projection — copy the
// system, eliminate every other variable in index order, read the bounds —
// run once per variable on one budget.
//===----------------------------------------------------------------------===//

/// Bounds of an eliminated system, read as ConstraintSystem::boundsOf reads
/// them (only constraints whose sole surviving variable is Var count).
std::optional<VariableBounds> refReadBounds(const ConstraintSystem &CS,
                                            unsigned Var) {
  VariableBounds B;
  for (const LinearConstraint &C : CS.constraints()) {
    const Rational &A = C.Coeffs[Var];
    if (A.isZero()) {
      bool Holds = C.CKind == LinearConstraint::Kind::Equality
                       ? C.Const.isZero()
                       : C.Const >= Rational(0);
      if (!Holds)
        return std::nullopt;
      continue;
    }
    Rational V0 = -C.Const / A;
    if (C.CKind == LinearConstraint::Kind::Equality) {
      if ((B.Lower && *B.Lower > V0) || (B.Upper && *B.Upper < V0))
        return std::nullopt;
      B.Lower = B.Upper = V0;
    } else if (A > Rational(0)) {
      if (!B.Lower || *B.Lower < V0)
        B.Lower = V0;
    } else if (!B.Upper || *B.Upper > V0) {
      B.Upper = V0;
    }
  }
  if (B.Lower && B.Upper && *B.Lower > *B.Upper)
    return std::nullopt;
  return B;
}

std::string boundsStr(const std::optional<VariableBounds> &B) {
  if (!B)
    return "<infeasible>";
  return (B->Lower ? B->Lower->str() : "-inf") + " .. " +
         (B->Upper ? B->Upper->str() : "+inf");
}

/// One projection's outcome plus the budget's step counter after it.
struct Outcome {
  std::string Answer;
  uint64_t Used;
  bool operator==(const Outcome &O) const {
    return Answer == O.Answer && Used == O.Used;
  }
};

std::ostream &operator<<(std::ostream &OS, const Outcome &O) {
  return OS << O.Answer << " [used " << O.Used << "]";
}

uint64_t usedSteps(const ResourceBudget *B) {
  return B ? B->UsedEliminationSteps.load() : 0;
}

/// Runs before each axis's projection (arms a failpoint, moves a cap).
using BeforeAxis = std::function<void(unsigned Var, ResourceBudget *B)>;

/// n independent from-scratch projections on one budget.
std::vector<Outcome> scratchProjections(const ConstraintSystem &CS,
                                        ResourceBudget *B,
                                        const BeforeAxis &Before = {}) {
  std::vector<Outcome> Out;
  for (unsigned Var = 0; Var != CS.numVars(); ++Var) {
    if (Before)
      Before(Var, B);
    ConstraintSystem Copy = CS;
    Status S = Status::ok();
    try {
      for (unsigned V = 0; V != CS.numVars() && S.isOk(); ++V)
        if (V != Var)
          S = B ? Copy.eliminate(V, B)
                : (Copy.eliminate(V), Status::ok());
    } catch (const AlpException &E) {
      S = E.status();
    }
    std::string Answer = "status " + S.str();
    if (S.isOk()) {
      try {
        Answer = boundsStr(refReadBounds(Copy, Var));
      } catch (const AlpException &E) {
        Answer = "status " + E.status().str();
      }
    }
    Out.push_back({Answer, usedSteps(B)});
  }
  return Out;
}

/// The same n projections through one ProjectionWalk.
std::vector<Outcome> walkProjections(const ConstraintSystem &CS,
                                     ResourceBudget *B,
                                     const BeforeAxis &Before = {}) {
  std::vector<Outcome> Out;
  ProjectionWalk Walk(CS);
  for (unsigned Var = 0; Var != CS.numVars(); ++Var) {
    if (Before)
      Before(Var, B);
    auto E = Walk.boundsOf(Var, B);
    Out.push_back({E ? boundsStr(*E) : "status " + E.status().str(),
                   usedSteps(B)});
  }
  return Out;
}

/// Systems of 2-12 variables with equalities, integral or rational rows.
ConstraintSystem randomWalkSystem(Rng &G, bool Fractions) {
  unsigned Vars = 2 + G.nextBelow(11);
  unsigned Cons = 2 + G.nextBelow(Vars > 8 ? 5 : 8);
  return randomSystem(G, Vars, Cons, Fractions);
}

TEST(LinalgPropertyTest, ProjectionWalkMatchesScratchProjectionsUnderBudget) {
  Rng G(0x9a1c0001);
  unsigned Trips = 0, Sweeps = 0;
  for (int Iter = 0; Iter != 60; ++Iter) {
    ConstraintSystem CS = randomWalkSystem(G, Iter % 2 == 1);
    // A loose cap keeps blowup systems cheap; within it, same answers and
    // the same cumulative steps after each axis.
    ResourceBudget Loose, LooseWalk;
    Loose.MaxFMConstraints = LooseWalk.MaxFMConstraints = 300;
    std::vector<Outcome> Ref = scratchProjections(CS, &Loose);
    ASSERT_EQ(walkProjections(CS, &LooseWalk), Ref) << "iter " << Iter;
    const uint64_t Total = Loose.UsedEliminationSteps.load();
    if (Total > 800)
      continue; // Keep the exhaustive sweeps below cheap.
    ASSERT_EQ(walkProjections(CS, nullptr), scratchProjections(CS, nullptr))
        << "iter " << Iter;
    ++Sweeps;
    // Every step limit from 0 (unlimited) to the total: same trip point.
    for (uint64_t Limit = 0; Limit <= Total; ++Limit) {
      ResourceBudget A, B;
      A.MaxEliminationSteps = B.MaxEliminationSteps = Limit;
      std::vector<Outcome> Want = scratchProjections(CS, &A);
      ASSERT_EQ(walkProjections(CS, &B), Want)
          << "iter " << Iter << " step limit " << Limit;
      Trips += Limit && Limit < Total;
    }
    // A sweep of constraint caps, alone and with a step limit.
    for (uint64_t Cap = 1; Cap <= 24; ++Cap) {
      ResourceBudget A, B;
      A.MaxFMConstraints = B.MaxFMConstraints = Cap;
      if (Cap % 3 == 0)
        A.MaxEliminationSteps = B.MaxEliminationSteps = Total / 2 + 1;
      ASSERT_EQ(walkProjections(CS, &B), scratchProjections(CS, &A))
          << "iter " << Iter << " constraint cap " << Cap;
    }
  }
  EXPECT_GT(Sweeps, 25u);
  EXPECT_GT(Trips, 100u);
}

TEST(LinalgPropertyTest, ProjectionWalkReplaysCountChecksAgainstTheCurrentCap) {
  // The replayed constraint-count checks read the budget's cap at replay
  // time: lowering it between projections trips where from scratch does.
  Rng G(0x9a1c0004);
  unsigned Tripped = 0;
  for (int Iter = 0; Iter != 40; ++Iter) {
    ConstraintSystem CS = randomWalkSystem(G, Iter % 2 == 1);
    std::vector<uint64_t> Caps;
    uint64_t Cap = 40;
    for (unsigned V = 0; V != CS.numVars(); ++V) {
      Caps.push_back(Cap);
      Cap = Cap > 2 ? Cap - 1 - G.nextBelow(Cap / 2) : 1;
    }
    BeforeAxis SetCap = [&](unsigned Var, ResourceBudget *B) {
      B->MaxFMConstraints = Caps[Var];
    };
    ResourceBudget A, B;
    std::vector<Outcome> Want = scratchProjections(CS, &A, SetCap);
    EXPECT_EQ(walkProjections(CS, &B, SetCap), Want) << "iter " << Iter;
    Tripped += Want.back().Answer.find("constraint count") !=
               std::string::npos;
  }
  EXPECT_GT(Tripped, 5u);
}

TEST(LinalgPropertyTest, ProjectionWalkTripsInjectedFaultsAtTheSameProjection) {
  // linalg.fm.eliminate armed for 1, 2 or 5 hits, from the first axis on
  // or only from a later one (so replayed evaluations consume the hits).
  Rng G(0x9a1c0002);
  for (int Iter = 0; Iter != 12; ++Iter) {
    ConstraintSystem CS = randomWalkSystem(G, Iter % 2 == 1);
    const unsigned N = CS.numVars();
    for (const char *Mode : {"status-error", "throw", "budget-exhaust"})
      for (int Count : {1, 2, 5})
        for (unsigned ArmAt : {0u, N / 2, N - 1}) {
          const std::string Spec = std::string("linalg.fm.eliminate:") +
                                   Mode + ":" + std::to_string(Count);
          BeforeAxis Arm = [&](unsigned Var, ResourceBudget *) {
            if (Var == ArmAt) {
              EXPECT_TRUE(FailPointRegistry::instance().configureList(Spec));
            }
          };
          auto Run = [&](auto Project) {
            ResourceBudget B = ResourceBudget::defaults();
            std::vector<Outcome> Out = Project(CS, &B, Arm);
            FailPointRegistry::instance().reset();
            return Out;
          };
          std::vector<Outcome> Want = Run(scratchProjections);
          EXPECT_EQ(Run(walkProjections), Want)
              << "iter " << Iter << " " << Spec << " armed at axis " << ArmAt;
          EXPECT_EQ(Want[ArmAt].Answer.rfind("status", 0), 0u) << Spec;
        }
  }
}

TEST(LinalgPropertyTest, ProjectionWalkOverflowsAtTheSameProjection) {
  // Coefficients near 2^21 overflow int64 after a few cross
  // multiplications, at a projection that depends on the elimination order.
  Rng G(0x9a1c0003);
  unsigned Overflowed = 0, Answered = 0;
  for (int Iter = 0; Iter != 80; ++Iter) {
    unsigned Vars = 3 + G.nextBelow(6);
    unsigned Cons = 3 + G.nextBelow(6);
    ConstraintSystem CS(Vars);
    for (unsigned I = 0; I != Cons; ++I) {
      Vector C(Vars);
      for (unsigned V = 0; V != Vars; ++V)
        C[V] = Rational(int64_t(G.nextBelow(1u << 22)) - (1 << 21));
      Rational K(int64_t(G.nextBelow(1u << 22)) - (1 << 21));
      if (G.nextBelow(5) == 0)
        CS.addEquality(C, K);
      else
        CS.addInequality(C, K);
    }
    EXPECT_EQ(walkProjections(CS, nullptr), scratchProjections(CS, nullptr))
        << "iter " << Iter;
    ResourceBudget A, B;
    std::vector<Outcome> Want = scratchProjections(CS, &A);
    EXPECT_EQ(walkProjections(CS, &B), Want) << "iter " << Iter;
    for (const Outcome &O : Want) {
      bool Overflow = O.Answer.find("rational-overflow") != std::string::npos;
      Overflowed += Overflow;
      Answered += !Overflow;
    }
  }
  EXPECT_GT(Overflowed, 20u);
  EXPECT_GT(Answered, 20u);
}

//===----------------------------------------------------------------------===//
// Incremental simplify: eliminating from a simplified system must leave
// exactly the rows a fresh (never simplified) copy of it leaves.
//===----------------------------------------------------------------------===//

/// A system holding \p CS's rows, added one by one: simplified flag clear.
ConstraintSystem freshCopy(const ConstraintSystem &CS) {
  ConstraintSystem Fresh(CS.numVars());
  for (const LinearConstraint &C : CS.constraints()) {
    if (C.CKind == LinearConstraint::Kind::Equality)
      Fresh.addEquality(C.Coeffs, C.Const);
    else
      Fresh.addInequality(C.Coeffs, C.Const);
  }
  return Fresh;
}

void expectSameRows(const ConstraintSystem &A, const ConstraintSystem &B,
                    const std::string &Where) {
  ASSERT_EQ(A.size(), B.size()) << Where << "\n" << A.str() << "vs\n"
                                 << B.str();
  for (unsigned I = 0; I != A.size(); ++I) {
    const LinearConstraint &X = A.constraints()[I];
    const LinearConstraint &Y = B.constraints()[I];
    EXPECT_TRUE(X.CKind == Y.CKind && X.Const == Y.Const &&
                X.Coeffs == Y.Coeffs)
        << Where << " row " << I << ": " << X.str() << " vs " << Y.str();
  }
}

/// Coefficients in {-1, 0, 1}: rewritten rows often coincide with
/// untouched ones, which exercises the incremental dedup.
ConstraintSystem randomUnitSystem(Rng &G, unsigned Vars, unsigned Cons) {
  ConstraintSystem CS(Vars);
  for (unsigned I = 0; I != Cons; ++I) {
    Vector C(Vars);
    for (unsigned V = 0; V != Vars; ++V)
      C[V] = Rational(int64_t(G.nextBelow(3)) - 1);
    Rational K(int64_t(G.nextBelow(5)) - 2);
    if (G.nextBelow(3) == 0)
      CS.addEquality(C, K);
    else
      CS.addInequality(C, K);
  }
  return CS;
}

/// simplify's normal form, checked directly: integral rows with coprime
/// entries, equalities led by a positive coefficient, no trivially true
/// rows, no duplicate rows with a variable.
void expectCanonical(const ConstraintSystem &CS, const std::string &Where) {
  const auto &Rows = CS.constraints();
  for (unsigned I = 0; I != Rows.size(); ++I) {
    const LinearConstraint &C = Rows[I];
    auto Lead = C.Coeffs.firstNonZero();
    if (!Lead) {
      bool Holds = C.CKind == LinearConstraint::Kind::Equality
                       ? C.Const.isZero()
                       : C.Const >= Rational(0);
      EXPECT_FALSE(Holds) << Where << ": trivially true row " << C.str();
      continue;
    }
    int64_t Gcd = 0;
    bool Integral = C.Const.isInteger();
    for (const Rational &E : C.Coeffs) {
      Integral = Integral && E.isInteger();
      Gcd = std::gcd(Gcd, E.num());
    }
    Gcd = std::gcd(Gcd, C.Const.num());
    EXPECT_TRUE(Integral && Gcd == 1) << Where << ": " << C.str();
    if (C.CKind == LinearConstraint::Kind::Equality) {
      EXPECT_FALSE(C.Coeffs[*Lead].isNegative()) << Where << ": " << C.str();
    }
    for (unsigned J = 0; J != I; ++J)
      EXPECT_FALSE(Rows[J].CKind == C.CKind && Rows[J].Const == C.Const &&
                   Rows[J].Coeffs == C.Coeffs)
          << Where << ": duplicate row " << C.str();
  }
}

TEST(LinalgPropertyTest, IncrementalSimplifyDropsUntouchedDuplicateOfRewrite) {
  // x0 == x1 rewrites x0 - 5 >= 0 into x1 - 5 >= 0, which the untouched
  // row after it already states: the untouched copy must go, as it does
  // in a fresh system.
  ConstraintSystem CS(3);
  CS.addInequality(Vector{Rational(0), Rational(0), Rational(1)}, Rational(0));
  CS.addEquality(Vector{Rational(1), Rational(-1), Rational(0)}, Rational(0));
  CS.addInequality(Vector{Rational(1), Rational(0), Rational(0)}, Rational(-5));
  CS.addInequality(Vector{Rational(0), Rational(1), Rational(0)}, Rational(-5));
  CS.addInequality(Vector{Rational(0), Rational(-1), Rational(0)}, Rational(9));
  CS.eliminate(2); // Now simplified: the next elimination is incremental.
  ConstraintSystem Fresh = freshCopy(CS);
  CS.eliminate(0);
  Fresh.eliminate(0);
  expectSameRows(CS, Fresh, "x0 == x1");
  EXPECT_EQ(CS.size(), 2u) << CS.str();
}

TEST(LinalgPropertyTest, IncrementalSimplifyMatchesFreshSystem) {
  Rng G(0x51e0f001);
  unsigned Steps = 0, TripsResumed = 0;
  for (int Iter = 0; Iter != 150; ++Iter) {
    unsigned Vars = 2 + G.nextBelow(6);
    unsigned Cons = 2 + G.nextBelow(9);
    ConstraintSystem CS = Iter % 3 == 2
                              ? randomUnitSystem(G, Vars, Cons)
                              : randomSystem(G, Vars, Cons, Iter % 3 == 1);
    // Eliminate in a random order; now and then let a constraint cap or
    // step limit trip mid-elimination first.
    std::vector<unsigned> Order;
    for (unsigned V = 0; V != Vars; ++V)
      Order.insert(Order.begin() + G.nextBelow(Order.size() + 1), V);
    for (unsigned Var : Order) {
      const std::string Where =
          "iter " + std::to_string(Iter) + " var " + std::to_string(Var);
      if (G.nextBelow(4) == 0) {
        ConstraintSystem Before = freshCopy(CS);
        ResourceBudget Tight;
        Tight.MaxFMConstraints = 1 + G.nextBelow(3);
        Tight.MaxEliminationSteps = 1 + G.nextBelow(4);
        if (!CS.eliminate(Var, &Tight).isOk()) {
          // A trip leaves the rows as they were; carry on from there.
          expectSameRows(CS, Before, Where + " after trip");
          ++TripsResumed;
        }
      }
      // A loose cap stops blowup systems early (identically on both).
      ConstraintSystem Fresh = freshCopy(CS);
      ResourceBudget LooseA, LooseB;
      LooseA.MaxFMConstraints = LooseB.MaxFMConstraints = 200;
      Status Got = CS.eliminate(Var, &LooseA);
      Status Want = Fresh.eliminate(Var, &LooseB);
      ASSERT_EQ(Got.str(), Want.str()) << Where;
      if (!Got.isOk())
        break; // Capped or overflowed: stop this system here.
      expectSameRows(CS, Fresh, Where);
      expectCanonical(CS, Where);
      ++Steps;
    }
  }
  EXPECT_GT(Steps, 500u);
  EXPECT_GT(TripsResumed, 20u);
}

} // namespace
