//===- linalg/FourierMotzkin.cpp - Linear inequality systems ---------------===//

#include "linalg/FourierMotzkin.h"

#include "support/Arena.h"
#include "support/CheckedInt.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <atomic>
#include <sstream>

using namespace alp;

namespace {

/// Injection site at the top of every Fourier-Motzkin elimination — the
/// solver step every dependence test and bound computation funnels into.
FailPoint FpFmEliminate("linalg.fm.eliminate");

std::atomic<bool> GFmIntegerFastPath{true};

/// Narrows a 128-bit intermediate exactly like Rational's arithmetic does,
/// so the integer elimination fast path overflows at the same points (and
/// with the same recoverable status) as the Rational path it mirrors.
int64_t narrowChecked(__int128 V) {
  if (V > INT64_MAX || V < INT64_MIN)
    throwOverflow("rational arithmetic");
  return static_cast<int64_t>(V);
}

/// True if every coefficient and constant in the system is an integer.
bool isIntegralSystem(const ConstraintSystem::Storage &Rows) {
  for (const LinearConstraint &C : Rows) {
    if (!C.Const.isInteger())
      return false;
    for (const Rational &E : C.Coeffs)
      if (!E.isInteger())
        return false;
  }
  return true;
}

/// FNV-1a over a row's exact value, for simplify's dedup (collisions are
/// resolved by exact comparison, so this only affects speed).
uint64_t hashRow(const LinearConstraint &C) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H = (H ^ V) * 1099511628211ull;
  };
  Mix(C.CKind == LinearConstraint::Kind::Equality ? 'E' : 'I');
  for (const Rational &E : C.Coeffs) {
    Mix(static_cast<uint64_t>(E.num()));
    Mix(static_cast<uint64_t>(E.den()));
  }
  Mix(static_cast<uint64_t>(C.Const.num()));
  Mix(static_cast<uint64_t>(C.Const.den()));
  return H;
}

bool rowsEqual(const LinearConstraint &A, const LinearConstraint &B) {
  return A.CKind == B.CKind && A.Const == B.Const && A.Coeffs == B.Coeffs;
}

} // namespace

bool alp::setFmIntegerFastPath(bool Enabled) {
  return GFmIntegerFastPath.exchange(Enabled);
}

Rational LinearConstraint::evaluate(const Vector &X) const {
  return Coeffs.dot(X) + Const;
}

bool LinearConstraint::isSatisfiedBy(const Vector &X) const {
  Rational V = evaluate(X);
  return CKind == Kind::Equality ? V.isZero() : V >= Rational(0);
}

std::string LinearConstraint::str() const {
  std::ostringstream OS;
  bool First = true;
  for (unsigned I = 0; I != Coeffs.size(); ++I) {
    if (Coeffs[I].isZero())
      continue;
    if (!First)
      OS << " + ";
    OS << Coeffs[I] << "*x" << I;
    First = false;
  }
  if (First)
    OS << '0';
  if (!Const.isZero())
    OS << " + " << Const;
  OS << (CKind == Kind::Equality ? " == 0" : " >= 0");
  return OS.str();
}

void ConstraintSystem::addInequality(const Vector &Coeffs,
                                     const Rational &Const) {
  assert(Coeffs.size() == NumVars && "constraint arity mismatch");
  Constraints.push_back(
      {Coeffs, Const, LinearConstraint::Kind::Inequality});
  Simplified = false;
}

void ConstraintSystem::addEquality(const Vector &Coeffs,
                                   const Rational &Const) {
  assert(Coeffs.size() == NumVars && "constraint arity mismatch");
  Constraints.push_back({Coeffs, Const, LinearConstraint::Kind::Equality});
  Simplified = false;
}

void ConstraintSystem::addLowerBound(unsigned Var, const Rational &Lo) {
  Vector C(NumVars);
  C[Var] = 1;
  addInequality(C, -Lo);
}

void ConstraintSystem::addUpperBound(unsigned Var, const Rational &Hi) {
  Vector C(NumVars);
  C[Var] = -1;
  addInequality(C, Hi);
}

void ConstraintSystem::simplify(const RowFlags *Untouched) {
  // Normalize each constraint in place to its canonical integer form (scale
  // by lcm(dens)/gcd(nums); equalities additionally get a positive leading
  // coefficient, inequalities keep their direction with a positive scale),
  // then deduplicate by exact value via a hash prefilter.
  Storage Out;
  SmallVec<uint64_t, 16> Hashes;
  // Indices into Out of the rows with a variable this pass normalized: an
  // untouched row can only duplicate one of those.
  SmallVec<uint32_t, 16> Rewritten;
  auto IsDup = [&](const LinearConstraint &C, uint64_t H, bool OnlyRewritten) {
    if (OnlyRewritten) {
      for (uint32_t I : Rewritten)
        if (Hashes[I] == H && rowsEqual(Out[I], C))
          return true;
      return false;
    }
    for (uint32_t I = 0; I != Out.size(); ++I)
      if (Hashes[I] == H && rowsEqual(Out[I], C))
        return true;
    return false;
  };
  for (uint32_t Row = 0; Row != Constraints.size(); ++Row) {
    LinearConstraint &C = Constraints[Row];
    if (Untouched && (*Untouched)[Row]) {
      // Already canonical and never trivially true. A trivially false row
      // never dedups; it cannot match a rewritten row with a variable.
      uint64_t H = hashRow(C);
      if (IsDup(C, H, /*OnlyRewritten=*/true))
        continue;
      Hashes.push_back(H);
      Out.push_back(std::move(C));
      continue;
    }
    auto Lead = C.Coeffs.firstNonZero();
    // Drop trivially true rows (0 >= nonneg / 0 == 0); keep trivially false
    // rows so feasibility checks can see them (they never dedup).
    if (!Lead) {
      bool Trivial = C.CKind == LinearConstraint::Kind::Equality
                         ? C.Const.isZero()
                         : C.Const >= Rational(0);
      if (Trivial)
        continue;
      Hashes.push_back(hashRow(C));
      Out.push_back(std::move(C));
      continue;
    }
    int64_t Lcm = 1;
    for (const Rational &E : C.Coeffs)
      if (!E.isInteger())
        Lcm = lcm64(Lcm, E.den());
    if (!C.Const.isInteger())
      Lcm = lcm64(Lcm, C.Const.den());
    int64_t Gcd = 0;
    if (Lcm == 1) {
      for (const Rational &E : C.Coeffs)
        Gcd = gcd64(Gcd, E.num());
      Gcd = gcd64(Gcd, C.Const.num());
    } else {
      Rational L(Lcm);
      for (const Rational &E : C.Coeffs)
        Gcd = gcd64(Gcd, (E * L).asInteger());
      Gcd = gcd64(Gcd, (C.Const * L).asInteger());
    }
    if (Lcm != 1 || Gcd != 1 ||
        (C.CKind == LinearConstraint::Kind::Equality &&
         C.Coeffs[*Lead].isNegative())) {
      Rational Scale = Rational(Lcm) / Rational(Gcd);
      if (C.CKind == LinearConstraint::Kind::Equality &&
          C.Coeffs[*Lead].isNegative())
        Scale = -Scale;
      C.Coeffs.scaleBy(Scale);
      C.Const *= Scale;
    }
    uint64_t H = hashRow(C);
    if (!IsDup(C, H, /*OnlyRewritten=*/false)) {
      Rewritten.push_back(Out.size());
      Hashes.push_back(H);
      Out.push_back(std::move(C));
    }
  }
  Constraints = std::move(Out);
  Simplified = true;
}

Status ConstraintSystem::replayCharges(const EliminationCharges &C,
                                       ResourceBudget *Budget) {
  // Mirrors the budget calls of eliminateImpl, call for call.
  if (Status S = FpFmEliminate.evaluate(Budget); !S)
    return S;
  if (!Budget)
    return Status::ok();
  if (Status S = Budget->chargeEliminationSteps(C.Rows); !S)
    return S;
  if (!C.Paired)
    return Status::ok();
  if (Status S = Budget->chargeEliminationSteps(C.Pairs); !S)
    return S;
  return Budget->checkConstraintCount(C.Count);
}

Status ConstraintSystem::eliminateImpl(unsigned Var, ResourceBudget *Budget,
                                       EliminationCharges *Charges) {
  assert(Var < NumVars && "variable out of range");
  // Cleared until the closing simplify: any early exit leaves it clear.
  const bool WasSimplified = Simplified;
  Simplified = false;
  if (Status S = FpFmEliminate.evaluate(Budget); !S)
    return S;
  EliminationCharges Calls;
  Calls.Rows = Constraints.size();
  if (Budget) {
    if (Status S = Budget->chargeEliminationSteps(Calls.Rows); !S)
      return S;
  }
  RowFlags Untouched;
  // If an equality mentions Var, substitute it into everything else.
  for (unsigned I = 0; I != Constraints.size(); ++I) {
    LinearConstraint &Eq = Constraints[I];
    if (Eq.CKind != LinearConstraint::Kind::Equality ||
        Eq.Coeffs[Var].isZero())
      continue;
    if (Charges)
      *Charges = Calls;
    Rational A = Eq.Coeffs[Var];
    Storage Out;
    Out.reserve(Constraints.size() ? Constraints.size() - 1 : 0);
    for (unsigned J = 0; J != Constraints.size(); ++J) {
      if (J == I)
        continue;
      LinearConstraint C = std::move(Constraints[J]);
      Rational B = C.Coeffs[Var];
      if (!B.isZero()) {
        // C <- C - (B/A) * Eq zeroes the Var coefficient; legal for both
        // kinds since Eq is an equality.
        Rational NegF = -(B / A);
        C.Coeffs.addScaled(Eq.Coeffs, NegF);
        C.Const += Eq.Const * NegF;
      }
      Untouched.push_back(B.isZero());
      Out.push_back(std::move(C));
    }
    Constraints = std::move(Out);
    simplify(WasSimplified ? &Untouched : nullptr);
    return Status::ok();
  }

  // Classic Fourier-Motzkin: pair every lower bound with every upper bound.
  // When the whole system is integral (the overwhelmingly common case),
  // combine rows over overflow-checked int64 instead of Rational; the
  // checked narrowing mirrors the Rational path exactly, so overflow
  // degrades identically and the results are bit-for-bit the same.
  const bool AllInt = GFmIntegerFastPath.load(std::memory_order_relaxed) &&
                      isIntegralSystem(Constraints);
  SmallVec<uint32_t, 32> LowerIdx, UpperIdx;
  uint32_t NumOthers = 0;
  for (uint32_t I = 0; I != Constraints.size(); ++I) {
    const Rational &A = Constraints[I].Coeffs[Var];
    if (A.isZero())
      ++NumOthers;
    else if (A > Rational(0))
      LowerIdx.push_back(I); // a*x + rest >= 0 with a>0: lower bound on x.
    else
      UpperIdx.push_back(I);
  }
  Calls.Paired = true;
  Calls.Pairs = static_cast<uint64_t>(LowerIdx.size()) * UpperIdx.size();
  Calls.Count = NumOthers + Calls.Pairs;
  if (Charges)
    *Charges = Calls;
  if (Budget) {
    if (Status S = Budget->chargeEliminationSteps(Calls.Pairs); !S)
      return S;
    if (Status S = Budget->checkConstraintCount(Calls.Count); !S)
      return S;
  }
  Storage Others;
  for (uint32_t I = 0; I != Constraints.size(); ++I)
    if (Constraints[I].Coeffs[Var].isZero()) {
      Untouched.push_back(1);
      Others.push_back(std::move(Constraints[I]));
    }
  for (uint32_t LI : LowerIdx)
    for (uint32_t UI : UpperIdx) {
      const LinearConstraint &L = Constraints[LI];
      const LinearConstraint &U = Constraints[UI];
      // Combine with positive multipliers to cancel Var.
      Rational AL = L.Coeffs[Var];    // > 0
      Rational AU = (-U.Coeffs[Var]); // > 0
      LinearConstraint C;
      C.CKind = LinearConstraint::Kind::Inequality;
      if (AllInt) {
        const int64_t Al = AL.num(), Au = AU.num();
        C.Coeffs = Vector(NumVars);
        for (unsigned I = 0; I != NumVars; ++I) {
          int64_t P1 =
              narrowChecked(static_cast<__int128>(L.Coeffs[I].num()) * Au);
          int64_t P2 =
              narrowChecked(static_cast<__int128>(U.Coeffs[I].num()) * Al);
          C.Coeffs[I] =
              Rational(narrowChecked(static_cast<__int128>(P1) + P2));
        }
        int64_t Q1 = narrowChecked(static_cast<__int128>(L.Const.num()) * Au);
        int64_t Q2 = narrowChecked(static_cast<__int128>(U.Const.num()) * Al);
        C.Const = Rational(narrowChecked(static_cast<__int128>(Q1) + Q2));
      } else {
        C.Coeffs = L.Coeffs;
        C.Coeffs.scaleBy(AU);
        C.Coeffs.addScaled(U.Coeffs, AL);
        C.Const = L.Const * AU + U.Const * AL;
      }
      Untouched.push_back(0);
      Others.push_back(std::move(C));
    }
  Constraints = std::move(Others);
  simplify(WasSimplified ? &Untouched : nullptr);
  return Status::ok();
}

void ConstraintSystem::eliminate(unsigned Var) {
  Status S = eliminateImpl(Var, nullptr);
  // Unbudgeted elimination cannot run out of budget; the only non-ok
  // Status here is an injected fault, which propagates like the
  // arithmetic overflows this signature already throws.
  if (!S.isOk())
    throw AlpException(S);
}

Status ConstraintSystem::eliminate(unsigned Var, ResourceBudget *Budget) {
  try {
    return eliminateImpl(Var, Budget);
  } catch (const AlpException &E) {
    return E.status();
  }
}

bool ConstraintSystem::isRationallyFeasible() const {
  // The eliminated copy is scratch and the answer a bool: arena territory.
  ArenaScope Scope;
  ConstraintSystem Copy = *this;
  for (unsigned V = 0; V != NumVars; ++V)
    Copy.eliminate(V);
  // Only variable-free constraints remain; all must hold.
  for (const LinearConstraint &C : Copy.Constraints) {
    bool Holds = C.CKind == LinearConstraint::Kind::Equality
                     ? C.Const.isZero()
                     : C.Const >= Rational(0);
    if (!Holds)
      return false;
  }
  return true;
}

Expected<bool>
ConstraintSystem::isRationallyFeasible(ResourceBudget *Budget) const {
  try {
    ArenaScope Scope;
    ConstraintSystem Copy = *this;
    for (unsigned V = 0; V != NumVars; ++V)
      if (Status S = Copy.eliminateImpl(V, Budget); !S)
        return S;
    for (const LinearConstraint &C : Copy.Constraints) {
      bool Holds = C.CKind == LinearConstraint::Kind::Equality
                       ? C.Const.isZero()
                       : C.Const >= Rational(0);
      if (!Holds)
        return false;
    }
    return true;
  } catch (const AlpException &E) {
    return E.status();
  }
}

std::optional<VariableBounds>
ConstraintSystem::boundsOf(unsigned Var) const {
  Expected<std::optional<VariableBounds>> E =
      ProjectionWalk(*this).boundsOf(Var, nullptr);
  // Unbudgeted projection cannot run out of budget; what remains is
  // overflow or an injected fault, thrown like eliminate(Var) throws them.
  if (!E.hasValue())
    throw AlpException(E.status());
  return E.takeValue();
}

Expected<std::optional<VariableBounds>>
ConstraintSystem::boundsOf(unsigned Var, ResourceBudget *Budget) const {
  return ProjectionWalk(*this).boundsOf(Var, Budget);
}

std::optional<VariableBounds>
ConstraintSystem::readBoundsOf(unsigned Var) const {
  VariableBounds B;
  for (const LinearConstraint &C : Constraints) {
    const Rational &A = C.Coeffs[Var];
    if (A.isZero()) {
      bool Holds = C.CKind == LinearConstraint::Kind::Equality
                       ? C.Const.isZero()
                       : C.Const >= Rational(0);
      if (!Holds)
        return std::nullopt;
      continue;
    }
    if (C.CKind == LinearConstraint::Kind::Equality) {
      Rational V0 = -C.Const / A;
      if ((B.Lower && *B.Lower > V0) || (B.Upper && *B.Upper < V0))
        return std::nullopt;
      B.Lower = B.Upper = V0;
      continue;
    }
    // a*x + c >= 0: x >= -c/a when a > 0, x <= -c/a when a < 0.
    Rational Bound = -C.Const / A;
    if (A > Rational(0)) {
      if (!B.Lower || *B.Lower < Bound)
        B.Lower = Bound;
    } else {
      if (!B.Upper || *B.Upper > Bound)
        B.Upper = Bound;
    }
  }
  if (B.Lower && B.Upper && *B.Lower > *B.Upper)
    return std::nullopt;
  return B;
}

bool ConstraintSystem::contains(const Vector &X) const {
  for (const LinearConstraint &C : Constraints)
    if (!C.isSatisfiedBy(X))
      return false;
  return true;
}

std::string ConstraintSystem::str() const {
  std::ostringstream OS;
  for (const LinearConstraint &C : Constraints)
    OS << C.str() << '\n';
  return OS.str();
}

//===----------------------------------------------------------------------===//
// ProjectionWalk
//===----------------------------------------------------------------------===//

namespace {

/// The two arenas the calling thread's projection walks keep their prefix
/// state in, and how many walks are alive on the thread.
struct WalkArenas {
  Arena Slot[2];
  unsigned LiveWalks = 0;
};

WalkArenas &walkArenas() {
  thread_local WalkArenas W;
  return W;
}

/// Makes \p A the calling thread's current arena for one scope, without
/// marking or rewinding it.
class CurrentArenaScope {
public:
  explicit CurrentArenaScope(Arena *A) : Prev(Arena::setCurrent(A)) {}
  ~CurrentArenaScope() { Arena::setCurrent(Prev); }
  CurrentArenaScope(const CurrentArenaScope &) = delete;
  CurrentArenaScope &operator=(const CurrentArenaScope &) = delete;

private:
  Arena *Prev;
};

} // namespace

ProjectionWalk::ProjectionWalk(const ConstraintSystem &CS)
    : Source(CS), Prefix(CS.numVars()) {
  WalkArenas &W = walkArenas();
  for (unsigned I = 0; I != 2; ++I) {
    Slots[I] = &W.Slot[I];
    Base[I] = Slots[I]->mark();
  }
  Depth = ++W.LiveWalks;
  // Sized up front: a later growth would land in whatever arena is
  // current at the time, possibly one of the prefix slots.
  Log.reserve(CS.numVars());
}

ProjectionWalk::~ProjectionWalk() {
  // Release Prefix's arena storage before rewinding the slots under it.
  Prefix = ConstraintSystem(Source.numVars());
  for (unsigned I = 0; I != 2; ++I)
    Slots[I]->rewind(Base[I]);
  --walkArenas().LiveWalks;
}

Status ProjectionWalk::advanceTo(unsigned Var, ResourceBudget *Budget) {
  if (Built == Var)
    return Status::ok();
  assert(Depth == walkArenas().LiveWalks &&
         "projection walks on one thread must not interleave");
  // Build S_Var in the other slot, starting from a copy of S_Built; the
  // slot's previous contents (S from two advances ago) are dead.
  const unsigned Next = 1 - Cur;
  Slots[Next]->rewind(Base[Next]);
  CurrentArenaScope InSlot(Slots[Next]);
  ConstraintSystem Work = prefix();
  // Entries past Built are from an advance that failed. It was dropped:
  // this projection redoes those eliminations live, charging them again
  // exactly as a from-scratch projection would.
  Log.resize(Built);
  for (unsigned V = Built; V != Var; ++V) {
    Log.emplace_back();
    if (Status S = Work.eliminateImpl(V, Budget, &Log.back()); !S)
      return S;
  }
  Prefix = std::move(Work);
  Built = Var;
  Cur = Next;
  return Status::ok();
}

Expected<std::optional<VariableBounds>>
ProjectionWalk::boundsOf(unsigned Var, ResourceBudget *Budget) {
  assert(Var < Source.numVars() && "variable out of range");
  assert(Var >= NextVar && "projection walk variables must rise");
  NextVar = Var + 1;
  try {
    // Charge what earlier projections already eliminated for this one.
    for (unsigned V = 0; V != Built; ++V)
      if (Status S = ConstraintSystem::replayCharges(Log[V], Budget); !S)
        return S;
    if (Status S = advanceTo(Var, Budget); !S)
      return S;
    if (Var + 1 == Source.numVars())
      return prefix().readBoundsOf(Var); // No suffix: nothing to copy.
    // Projection scratch lives on the arena; only plain bounds escape.
    ArenaScope Scope;
    ConstraintSystem Copy = prefix();
    for (unsigned V = Var + 1; V < Source.numVars(); ++V)
      if (Status S = Copy.eliminateImpl(V, Budget); !S)
        return S;
    return Copy.readBoundsOf(Var);
  } catch (const AlpException &E) {
    return E.status();
  }
}
