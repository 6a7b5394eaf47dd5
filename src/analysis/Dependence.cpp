//===- analysis/Dependence.cpp - Affine dependence analysis -----------------===//

#include "analysis/Dependence.h"

#include "linalg/FourierMotzkin.h"
#include "linalg/IntegerOps.h"
#include "linalg/SystemKey.h"
#include "support/Arena.h"
#include "support/FailPoint.h"
#include "support/Supervisor.h"

#include <algorithm>
#include <set>
#include <sstream>

using namespace alp;

namespace {

/// Injection site at the head of every access-pair dependence test; an
/// injected Status degrades the pair to assumed dependence exactly like a
/// blown budget, an injected exception exercises the supervisor's retry
/// path of a supervised analysis.
FailPoint FpDepPair("analysis.dependence.pair");

} // namespace

//===----------------------------------------------------------------------===//
// DepComponent / Dependence
//===----------------------------------------------------------------------===//

DepComponent DepComponent::exact(int64_t D) {
  DepComponent C;
  C.Distance = D;
  C.Direction = D > 0 ? Dir::Lt : (D < 0 ? Dir::Gt : Dir::Eq);
  return C;
}

bool DepComponent::mayBeNegative() const {
  if (Distance)
    return *Distance < 0;
  return Direction == Dir::Gt || Direction == Dir::Ge ||
         Direction == Dir::Star;
}

bool DepComponent::mayBePositive() const {
  if (Distance)
    return *Distance > 0;
  return Direction == Dir::Lt || Direction == Dir::Le ||
         Direction == Dir::Star;
}

bool DepComponent::mayBeZero() const {
  if (Distance)
    return *Distance == 0;
  return Direction != Dir::Lt && Direction != Dir::Gt;
}

std::string DepComponent::str() const {
  if (Distance)
    return std::to_string(*Distance);
  switch (Direction) {
  case Dir::Lt:
    return "+";
  case Dir::Eq:
    return "0";
  case Dir::Gt:
    return "-";
  case Dir::Le:
    return "0+";
  case Dir::Ge:
    return "0-";
  case Dir::Star:
    return "*";
  }
  return "?";
}

bool Dependence::isDistanceVector() const {
  for (const DepComponent &C : Components)
    if (!C.isExact())
      return false;
  return true;
}

std::string Dependence::str() const {
  std::ostringstream OS;
  switch (Kind) {
  case DepKind::Flow:
    OS << "flow";
    break;
  case DepKind::Anti:
    OS << "anti";
    break;
  case DepKind::Output:
    OS << "output";
    break;
  }
  OS << " S" << SrcStmt << "->S" << DstStmt << " (";
  for (unsigned I = 0; I != Components.size(); ++I) {
    if (I)
      OS << ", ";
    OS << Components[I].str();
  }
  OS << ") @level " << Level;
  if (Conservative)
    OS << " [assumed]";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Polyhedron construction
//===----------------------------------------------------------------------===//

namespace {

/// Variable layout for a dependence system over a nest of depth L with NS
/// symbols: [ i_src(0..L-1) | i_dst(L..2L-1) | syms(2L..2L+NS-1) |
/// d(2L+NS..2L+NS+L-1) ] where d_k = i_dst[k] - i_src[k].
struct DepSystem {
  unsigned Depth;
  std::vector<std::string> Symbols;
  ConstraintSystem CS;
  /// The pure equality rows (subscript equations and distance
  /// definitions) as an integer system, for the exact lattice test:
  /// rational feasibility alone admits parity-style phantoms that the
  /// per-row GCD test cannot see.
  std::vector<std::vector<int64_t>> EqRows;
  std::vector<int64_t> EqRhs;

  DepSystem(unsigned Depth, std::vector<std::string> Symbols)
      : Depth(Depth), Symbols(std::move(Symbols)),
        CS(2 * Depth + this->Symbols.size() + Depth) {}

  /// Records an equality row Coeffs . x + Const == 0 into the integer
  /// system as well (scaled to integers).
  void addIntegerEquality(const Vector &Coeffs, const Rational &Const) {
    int64_t Lcm = Const.den();
    for (const Rational &C : Coeffs)
      Lcm = lcm64(Lcm, C.den());
    std::vector<int64_t> Row(Coeffs.size());
    for (unsigned I = 0; I != Coeffs.size(); ++I)
      Row[I] = (Coeffs[I] * Rational(Lcm)).asInteger();
    EqRows.push_back(std::move(Row));
    EqRhs.push_back((-Const * Rational(Lcm)).asInteger());
  }

  /// True if the equalities plus "d_j == 0 for j < Level" admit an
  /// integer solution (pass Level == Depth to pin every distance, the
  /// loop-independent case). Bounds and the d_Level >= 1 inequality are
  /// ignored: a pure lattice test, so "true" can still be refuted by
  /// Fourier-Motzkin, but "false" is definitive.
  bool integerFeasible(unsigned Level) const {
    unsigned NVars = CS.numVars();
    std::vector<std::vector<int64_t>> Rows = EqRows;
    std::vector<int64_t> Rhs = EqRhs;
    for (unsigned J = 0; J != Level && J != Depth; ++J) {
      std::vector<int64_t> Row(NVars, 0);
      Row[distVar(J)] = 1;
      Rows.push_back(std::move(Row));
      Rhs.push_back(0);
    }
    IntMatrix A(Rows.size(), NVars);
    for (unsigned R = 0; R != Rows.size(); ++R)
      for (unsigned C = 0; C != NVars; ++C)
        A.at(R, C) = Rows[R][C];
    return solveIntegerSystem(A, Rhs).has_value();
  }

  unsigned numVars() const { return CS.numVars(); }
  unsigned srcVar(unsigned K) const { return K; }
  unsigned dstVar(unsigned K) const { return Depth + K; }
  unsigned symVar(unsigned S) const { return 2 * Depth + S; }
  unsigned distVar(unsigned K) const {
    return 2 * Depth + Symbols.size() + K;
  }

  unsigned symIndex(const std::string &Name) const {
    for (unsigned I = 0; I != Symbols.size(); ++I)
      if (Symbols[I] == Name)
        return I;
    assert(false && "symbol not collected");
    return 0;
  }

  /// Adds coefficients of a SymAffine into a coefficient row / constant.
  void addSym(const SymAffine &A, Vector &Coeffs, Rational &Const,
              Rational Scale) const {
    Const += A.constant() * Scale;
    for (const auto &[Name, C] : A.symbolCoeffs())
      Coeffs[symVar(symIndex(Name))] += C * Scale;
  }
};

int64_t floorRat(const Rational &R) {
  int64_t Q = R.num() / R.den();
  if (R.num() % R.den() != 0 && R.num() < 0)
    --Q;
  return Q;
}

int64_t ceilRat(const Rational &R) {
  int64_t Q = R.num() / R.den();
  if (R.num() % R.den() != 0 && R.num() > 0)
    ++Q;
  return Q;
}

/// Bounds projection that unwinds on failure: a budget trip or overflow
/// Status is re-raised as AlpException so the per-pair conservative
/// fallback in analyzePair takes over in one place.
std::optional<VariableBounds> boundsOrUnwind(const ConstraintSystem &CS,
                                             unsigned Var,
                                             ResourceBudget *Budget) {
  if (!Budget)
    return CS.boundsOf(Var);
  Expected<std::optional<VariableBounds>> E = CS.boundsOf(Var, Budget);
  if (!E.hasValue())
    throw AlpException(E.status());
  return E.takeValue();
}

/// Memoizing wrapper around boundsOrUnwind. A hit replays a projection
/// whose elimination steps were charged when it was first computed, so the
/// hit charges the budget nothing; failed projections (budget trip /
/// overflow) unwind before the store and are never cached. Every
/// memoizable request's identity is appended to \p Refs (when given) so
/// the merge-order cache ledger can be derived deterministically.
std::optional<VariableBounds>
cachedBounds(const ConstraintSystem &CS, unsigned Var,
             const CanonicalSystemKey *Key, DependenceCache *Cache,
             ResourceBudget *Budget, std::vector<uint64_t> *Refs) {
  if (Key && Cache) {
    if (Refs)
      // Same combination the cache's own EntryKeyHash uses.
      Refs->push_back(Key->Hash * 1099511628211ull + Var);
    if (auto Hit = Cache->lookupBounds(*Key, Var))
      return *Hit;
  }
  std::optional<VariableBounds> B = boundsOrUnwind(CS, Var, Budget);
  if (Key && Cache)
    Cache->storeBounds(*Key, Var, B);
  return B;
}

/// Refinement of rational feasibility: projects the system onto every
/// single variable and rejects when some projection interval contains no
/// integer (e.g. j in [3/5, 2/3]). Catches the axis-thin phantoms that
/// survive both the GCD and the lattice tests; returns false also when
/// the system is rationally infeasible outright.
bool hasIntegerPointPerAxis(const ConstraintSystem &CS,
                            const CanonicalSystemKey *Key,
                            DependenceCache *Cache, ResourceBudget *Budget,
                            std::vector<uint64_t> *Refs) {
  for (unsigned V = 0; V != CS.numVars(); ++V) {
    auto B = cachedBounds(CS, V, Key, Cache, Budget, Refs);
    if (!B)
      return false;
    if (B->Lower && B->Upper &&
        ceilRat(*B->Lower) > floorRat(*B->Upper))
      return false;
  }
  return true;
}

/// Collects every symbol mentioned by the nest bounds or the two accesses.
std::vector<std::string> collectSymbols(const LoopNest &Nest,
                                        const AffineAccessMap &A,
                                        const AffineAccessMap &B) {
  std::set<std::string> Names;
  auto FromSym = [&](const SymAffine &S) {
    for (const auto &[Name, C] : S.symbolCoeffs()) {
      (void)C;
      Names.insert(Name);
    }
  };
  for (const Loop &L : Nest.Loops) {
    for (const BoundTerm &T : L.Lower)
      FromSym(T.Const);
    for (const BoundTerm &T : L.Upper)
      FromSym(T.Const);
  }
  for (unsigned I = 0; I != A.arrayDim(); ++I)
    FromSym(A.constant()[I]);
  for (unsigned I = 0; I != B.arrayDim(); ++I)
    FromSym(B.constant()[I]);
  return std::vector<std::string>(Names.begin(), Names.end());
}

/// Adds loop bound constraints for the iteration-variable block starting at
/// \p Base (either src or dst block).
void addBoundConstraints(DepSystem &DS, const LoopNest &Nest, bool IsDst) {
  unsigned L = Nest.depth();
  for (unsigned K = 0; K != L; ++K) {
    const Loop &Loop = Nest.Loops[K];
    for (const BoundTerm &T : Loop.Lower) {
      // i_k - (coeffs . i_outer + const) >= 0.
      Vector C(DS.numVars());
      Rational Const(0);
      C[IsDst ? DS.dstVar(K) : DS.srcVar(K)] = 1;
      for (unsigned J = 0; J != L; ++J)
        C[IsDst ? DS.dstVar(J) : DS.srcVar(J)] -= T.OuterCoeffs[J];
      DS.addSym(T.Const, C, Const, Rational(-1));
      DS.CS.addInequality(C, Const);
    }
    for (const BoundTerm &T : Loop.Upper) {
      // (coeffs . i_outer + const) - i_k >= 0.
      Vector C(DS.numVars());
      Rational Const(0);
      C[IsDst ? DS.dstVar(K) : DS.srcVar(K)] = -1;
      for (unsigned J = 0; J != L; ++J)
        C[IsDst ? DS.dstVar(J) : DS.srcVar(J)] += T.OuterCoeffs[J];
      DS.addSym(T.Const, C, Const, Rational(1));
      DS.CS.addInequality(C, Const);
    }
  }
}

//===----------------------------------------------------------------------===//
// Independence tiers (cheap, conservative filters before the exact test)
//===----------------------------------------------------------------------===//

/// Tier 0 — per-equation GCD feasibility: an all-integer equality
/// sum(c_i x_i) = c0 with no symbolic terms has integer solutions only if
/// gcd(c_i) | c0.
bool gcdTestPasses(const AffineAccessMap &A, const AffineAccessMap &B) {
  for (unsigned R = 0; R != A.arrayDim(); ++R) {
    SymAffine Diff = B.constant()[R] - A.constant()[R];
    if (!Diff.isConstant())
      continue; // Symbols present: no conclusion.
    if (!Diff.constant().isInteger())
      return false;
    int64_t G = 0;
    bool AllInt = true;
    for (unsigned J = 0; J != A.nestDepth(); ++J) {
      const Rational &Ca = A.linear().at(R, J);
      const Rational &Cb = B.linear().at(R, J);
      if (!Ca.isInteger() || !Cb.isInteger()) {
        AllInt = false;
        break;
      }
      G = gcd64(G, Ca.asInteger());
      G = gcd64(G, Cb.asInteger());
    }
    if (!AllInt)
      continue;
    int64_t C0 = Diff.constant().asInteger();
    if (G == 0) {
      if (C0 != 0)
        return false;
      continue;
    }
    if (C0 % G != 0)
      return false;
  }
  return true;
}

/// Constant rectangular range [Lo, Hi] of \p L, derivable only when every
/// bound term is outer-loop-independent and symbol-free. Any triangular or
/// symbolic term makes the range nullopt and tier 1 skips the pair — a
/// conservative skip, never a wrong answer.
std::optional<std::pair<Rational, Rational>> constantLoopRange(const Loop &L) {
  std::optional<Rational> Lo, Hi;
  for (const BoundTerm &T : L.Lower) {
    if (!T.OuterCoeffs.isZero() || !T.Const.isConstant())
      return std::nullopt;
    Rational V = T.Const.constant();
    if (!Lo || *Lo < V) // Effective lower bound = max of lower terms.
      Lo = V;
  }
  for (const BoundTerm &T : L.Upper) {
    if (!T.OuterCoeffs.isZero() || !T.Const.isConstant())
      return std::nullopt;
    Rational V = T.Const.constant();
    if (!Hi || V < *Hi) // Effective upper bound = min of upper terms.
      Hi = V;
  }
  if (!Lo || !Hi)
    return std::nullopt;
  return std::make_pair(*Lo, *Hi);
}

/// Tier 1 — Banerjee bounds test over rectangular nests: a subscript pair
/// can only be dependent if the linear form sum_j (a_j i_j - b_j i'_j)
/// attains the constant difference of the subscripts somewhere on the
/// bounding box of the iteration space. True = proven independent at every
/// level; false = no conclusion. Strictly weaker than the exact tier-2
/// test (the polyhedron contains the same bound constraints), so skipping
/// or disabling this tier never changes the analysis result.
bool banerjeeIndependent(const LoopNest &Nest, const AffineAccessMap &A,
                         const AffineAccessMap &B) {
  unsigned L = Nest.depth();
  std::vector<std::pair<Rational, Rational>> Range;
  Range.reserve(L);
  for (const Loop &Lp : Nest.Loops) {
    auto R = constantLoopRange(Lp);
    if (!R)
      return false; // Non-rectangular bounds: no conclusion.
    if (R->second < R->first)
      return true; // Empty iteration space executes nothing.
    Range.push_back(*R);
  }
  for (unsigned R = 0; R != A.arrayDim(); ++R) {
    SymAffine Diff = B.constant()[R] - A.constant()[R];
    if (!Diff.isConstant())
      continue; // Symbols present: no conclusion for this subscript.
    const Rational C0 = Diff.constant();
    // Extremes of sum_j (a_j i_j - b_j i'_j) over the box.
    Rational Min(0), Max(0);
    auto Accumulate = [&](const Rational &C, unsigned J) {
      if (C.isZero())
        return;
      const Rational &Lo = Range[J].first;
      const Rational &Hi = Range[J].second;
      if (C.isNegative()) {
        Min += C * Hi;
        Max += C * Lo;
      } else {
        Min += C * Lo;
        Max += C * Hi;
      }
    };
    for (unsigned J = 0; J != L; ++J) {
      Accumulate(A.linear().at(R, J), J);
      Accumulate(-B.linear().at(R, J), J);
    }
    if (C0 < Min || Max < C0)
      return true; // Subscripts can never meet: independent.
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// DependenceAnalysis
//===----------------------------------------------------------------------===//

DependenceAnalysis::DependenceAnalysis(const Program &P,
                                       ResourceBudget *Budget,
                                       DependenceOptions Opts)
    : P(P), Budget(Budget), Options(Opts) {
  if (Options.Memoize) {
    if (Options.SharedCache) {
      Cache = Options.SharedCache;
    } else {
      OwnCache = std::make_unique<DependenceCache>();
      Cache = OwnCache.get();
    }
  }
}

DependenceTierStats DependenceAnalysis::tierStats() const {
  DependenceTierStats S;
  S.Pairs = NumPairs;
  S.GcdIndependent = NumGcdIndependent;
  S.BanerjeeIndependent = NumBanerjeeIndependent;
  S.ExactTested = NumExactTested;
  if (Cache) {
    DependenceCacheStats CS = Cache->stats();
    S.CacheHits = CS.Hits;
    S.CacheMisses = CS.Misses;
  }
  S.LogicalCacheHits = NumLogicalCacheHits;
  S.LogicalCacheMisses = NumLogicalCacheMisses;
  S.EliminationSteps = NumEliminationSteps;
  return S;
}

void DependenceTierStats::publishTo(MetricsRegistry &MR) const {
  // Deterministic section: pure functions of the program.
  MR.add("dep.pairs", Pairs);
  MR.add("dep.tier0_gcd_independent", GcdIndependent);
  MR.add("dep.tier1_banerjee_independent", BanerjeeIndependent);
  MR.add("dep.tier2_exact_tested", ExactTested);
  MR.add("dep.cache.hits", LogicalCacheHits);
  MR.add("dep.cache.misses", LogicalCacheMisses);
  // Scheduling-dependent section (budget consumption varies with raw
  // cache hits; the raw cache traffic itself publishes via
  // DependenceCacheStats::publishTo).
  MR.setGauge("dep.fm_elimination_steps",
              static_cast<double>(EliminationSteps));
}

void DependenceAnalysis::analyzePair(const LoopNest &Nest,
                                     const PairTask &Task,
                                     ResourceBudget *PairBudget,
                                     PairResult &Res) const {
  const unsigned SStmt = Task.SStmt, SAcc = Task.SAcc;
  const unsigned TStmt = Task.TStmt, TAcc = Task.TAcc;
  ++NumPairs;
  // The pair's dependence polyhedra and all FM scratch live on the worker's
  // arena and are rewound wholesale on return; only plain results (Deps,
  // warnings, cache refs) escape into Res. Blocks stay warm across pairs,
  // so the steady state never touches malloc.
  ArenaScope Scope;
  const uint64_t StepsBefore =
      PairBudget
          ? PairBudget->UsedEliminationSteps.load(std::memory_order_relaxed)
          : 0;
  // Per-pair consumption is the counter delta on the pair's own budget
  // (or the shared one on the serial path — still single-threaded there).
  auto RecordSteps = [&] {
    if (PairBudget)
      Res.EliminationSteps =
          PairBudget->UsedEliminationSteps.load(std::memory_order_relaxed) -
          StepsBefore;
  };
  try {

  const ArrayAccess &A = Nest.Body[SStmt].Accesses[SAcc];
  const ArrayAccess &B = Nest.Body[TStmt].Accesses[TAcc];
  unsigned L = Nest.depth();

  if (Status S = FpDepPair.evaluate(PairBudget); !S)
    throw AlpException(S);
  if (PairBudget)
    if (Status S = PairBudget->checkDeadline(); !S)
      throw AlpException(S);

  if (Options.TieredTests) {
    // Tier 0: GCD divisibility on the subscript equations.
    if (!gcdTestPasses(A.Map, B.Map)) {
      ++NumGcdIndependent;
      return;
    }
    // Tier 1: Banerjee bounds. Overflow while forming the extremes means
    // "no conclusion", not degradation — fall through to the exact tier.
    bool Independent = false;
    try {
      Independent = banerjeeIndependent(Nest, A.Map, B.Map);
    } catch (const AlpException &) {
    }
    if (Independent) {
      ++NumBanerjeeIndependent;
      return;
    }
  }
  ++NumExactTested;
  TraceSpan ExactSpan(Options.Trace, "dep.exact");

  // Tier 2: the exact Fourier-Motzkin test on the dependence polyhedron.
  DepSystem DS(L, collectSymbols(Nest, A.Map, B.Map));

  // Subscript equalities: F_a i_src + k_a == F_b i_dst + k_b.
  for (unsigned R = 0; R != A.Map.arrayDim(); ++R) {
    Vector C(DS.numVars());
    Rational Const(0);
    for (unsigned J = 0; J != L; ++J) {
      C[DS.srcVar(J)] += A.Map.linear().at(R, J);
      C[DS.dstVar(J)] -= B.Map.linear().at(R, J);
    }
    DS.addSym(A.Map.constant()[R], C, Const, Rational(1));
    DS.addSym(B.Map.constant()[R], C, Const, Rational(-1));
    DS.CS.addEquality(C, Const);
    DS.addIntegerEquality(C, Const);
  }
  addBoundConstraints(DS, Nest, /*IsDst=*/false);
  addBoundConstraints(DS, Nest, /*IsDst=*/true);
  // Distance definitions d_k = i_dst[k] - i_src[k].
  for (unsigned K = 0; K != L; ++K) {
    Vector C(DS.numVars());
    C[DS.distVar(K)] = 1;
    C[DS.dstVar(K)] = -1;
    C[DS.srcVar(K)] = 1;
    DS.CS.addEquality(C, Rational(0));
    DS.addIntegerEquality(C, Rational(0));
  }

  DepKind Kind = A.IsWrite ? (B.IsWrite ? DepKind::Output : DepKind::Flow)
                           : DepKind::Anti;

  auto MakeDependence = [&](unsigned Level, const ConstraintSystem &CS,
                            const CanonicalSystemKey *Key) -> Dependence {
    Dependence D;
    D.SrcStmt = SStmt;
    D.DstStmt = TStmt;
    D.SrcAccess = SAcc;
    D.DstAccess = TAcc;
    D.ArrayId = A.ArrayId;
    D.Kind = Kind;
    D.Level = Level;
    for (unsigned J = 0; J != L; ++J) {
      auto Bounds =
          cachedBounds(CS, DS.distVar(J), Key, Cache, PairBudget,
                       &Res.CacheRefs);
      DepComponent Comp = DepComponent::dir(DepComponent::Dir::Star);
      if (Bounds) {
        // Distances are integers: tighten the rational projection.
        std::optional<int64_t> Lo, Hi;
        if (Bounds->Lower)
          Lo = ceilRat(*Bounds->Lower);
        if (Bounds->Upper)
          Hi = floorRat(*Bounds->Upper);
        if (Lo && Hi && *Lo == *Hi) {
          Comp = DepComponent::exact(*Lo);
        } else if (Lo && *Lo >= 1) {
          Comp = DepComponent::dir(DepComponent::Dir::Lt);
        } else if (Hi && *Hi <= -1) {
          Comp = DepComponent::dir(DepComponent::Dir::Gt);
        } else if (Lo && *Lo >= 0) {
          Comp = DepComponent::dir(DepComponent::Dir::Le);
        } else if (Hi && *Hi <= 0) {
          Comp = DepComponent::dir(DepComponent::Dir::Ge);
        }
      }
      D.Components.push_back(Comp);
    }
    return D;
  };

  // The canonical key of one per-level system, or null when memoization is
  // off or canonicalization overflowed (then that system is just not
  // memoized; the test itself proceeds identically).
  CanonicalSystemKey KeyStorage;
  auto KeyOf = [&](const ConstraintSystem &CS) -> const CanonicalSystemKey * {
    if (!Cache)
      return nullptr;
    try {
      KeyStorage = canonicalSystemKey(CS);
      return &KeyStorage;
    } catch (const AlpException &) {
      return nullptr;
    }
  };

  // Carried dependences: for each level K require d_0..d_{K-1} == 0 and
  // d_K >= 1.
  for (unsigned K = 0; K != L; ++K) {
    if (!DS.integerFeasible(K))
      continue; // No integer point on the equality lattice.
    ConstraintSystem CS = DS.CS;
    for (unsigned J = 0; J != K; ++J) {
      Vector C(DS.numVars());
      C[DS.distVar(J)] = 1;
      CS.addEquality(C, Rational(0));
    }
    Vector C(DS.numVars());
    C[DS.distVar(K)] = 1;
    CS.addInequality(C, Rational(-1)); // d_K - 1 >= 0.
    const CanonicalSystemKey *Key = KeyOf(CS);
    if (!hasIntegerPointPerAxis(CS, Key, Cache, PairBudget, &Res.CacheRefs))
      continue;
    Res.Deps.push_back(MakeDependence(K, CS, Key));
  }

  // Loop-independent dependence: all distances zero, source statement
  // strictly before the destination statement in the body.
  if (SStmt < TStmt && DS.integerFeasible(L)) {
    ConstraintSystem CS = DS.CS;
    for (unsigned J = 0; J != L; ++J) {
      Vector C(DS.numVars());
      C[DS.distVar(J)] = 1;
      CS.addEquality(C, Rational(0));
    }
    const CanonicalSystemKey *Key = KeyOf(CS);
    if (hasIntegerPointPerAxis(CS, Key, Cache, PairBudget, &Res.CacheRefs))
      Res.Deps.push_back(MakeDependence(L, CS, Key));
  }

  } catch (const AlpException &E) {
    // Exact test blew the budget or 64-bit arithmetic: discard whatever
    // partial answer was produced for this pair and assume dependence.
    Res.Deps.clear();
    appendConservativePair(Nest, Task, E.status(), Res);
  }
  RecordSteps();
}

void DependenceAnalysis::appendConservativePair(const LoopNest &Nest,
                                                const PairTask &Task,
                                                const Status &Why,
                                                PairResult &Res) const {
  const ArrayAccess &A = Nest.Body[Task.SStmt].Accesses[Task.SAcc];
  const ArrayAccess &B = Nest.Body[Task.TStmt].Accesses[Task.TAcc];
  unsigned L = Nest.depth();
  DepKind Kind = A.IsWrite ? (B.IsWrite ? DepKind::Output : DepKind::Flow)
                           : DepKind::Anti;
  auto MakeStar = [&](unsigned Level) {
    Dependence D;
    D.SrcStmt = Task.SStmt;
    D.DstStmt = Task.TStmt;
    D.SrcAccess = Task.SAcc;
    D.DstAccess = Task.TAcc;
    D.ArrayId = A.ArrayId;
    D.Kind = Kind;
    D.Level = Level;
    D.Components.assign(L, DepComponent::dir(DepComponent::Dir::Star));
    D.Conservative = true;
    return D;
  };
  // A dependence carried at every level, plus the loop-independent slot
  // when statement order admits one — the maximally pessimistic answer.
  for (unsigned K = 0; K != L; ++K)
    Res.Deps.push_back(MakeStar(K));
  if (Task.SStmt < Task.TStmt)
    Res.Deps.push_back(MakeStar(L));
  Res.Degraded = true;
  std::ostringstream OS;
  OS << "dependence test S" << Task.SStmt << "/a" << Task.SAcc << " -> S"
     << Task.TStmt << "/a" << Task.TAcc << " assumed dependent ("
     << Why.str() << ")";
  Res.Warnings.push_back(OS.str());
}

std::vector<Dependence>
DependenceAnalysis::analyze(const LoopNest &Nest) const {
  // Gather the pairs up front so both budget modes share one order.
  std::vector<PairTask> Pairs;
  for (unsigned S = 0; S != Nest.Body.size(); ++S)
    for (unsigned T = 0; T != Nest.Body.size(); ++T)
      for (unsigned SA = 0; SA != Nest.Body[S].Accesses.size(); ++SA)
        for (unsigned TA = 0; TA != Nest.Body[T].Accesses.size(); ++TA) {
          const ArrayAccess &A = Nest.Body[S].Accesses[SA];
          const ArrayAccess &B = Nest.Body[T].Accesses[TA];
          if (A.ArrayId != B.ArrayId || (!A.IsWrite && !B.IsWrite))
            continue;
          if (S == T && SA == TA && !A.IsWrite)
            continue;
          Pairs.push_back(PairTask{S, SA, T, TA});
        }

  std::vector<Dependence> Out;
  auto Merge = [&](PairResult &R) {
    for (Dependence &D : R.Deps)
      Out.push_back(std::move(D));
    for (std::string &W : R.Warnings)
      Warnings.push_back(std::move(W));
    Degraded |= R.Degraded;
    // Replay the pair's projection requests in pair order: first
    // sighting of a key is a logical miss, every later one a logical
    // hit.
    for (uint64_t Ref : R.CacheRefs) {
      if (SeenCacheRefs.insert(Ref).second)
        ++NumLogicalCacheMisses;
      else
        ++NumLogicalCacheHits;
    }
    NumEliminationSteps += R.EliminationSteps;
  };

  if (!Options.Supervised) {
    // Unsupervised: pairs share the cumulative budget, so one budget caps
    // the whole analysis.
    for (const PairTask &T : Pairs) {
      PairResult R;
      analyzePair(Nest, T, Budget, R);
      Merge(R);
    }
    return Out;
  }

  // Supervised: pairs run in batches of a fixed size, in order. Each pair
  // gets its own copy of the batch attempt's budget, so which pair
  // degrades does not depend on the pairs before it; results merge in
  // pair order. analyzePair answers budget exhaustion and AlpException
  // conservatively itself; the supervisor catches what escapes it
  // (injected OOM, task deadline), retries on a shrunken budget, and
  // degrades the batch to the same assumed-dependence answer when every
  // attempt fails.
  constexpr size_t BatchSize = 8;
  const size_t NumBatches = (Pairs.size() + BatchSize - 1) / BatchSize;
  std::vector<PairResult> Results(Pairs.size());
  Supervisor Sup(nullptr, Budget);
  std::vector<SupervisedOutcome> Outcomes =
      Sup.run(NumBatches, [&](size_t BI, ResourceBudget *B) {
        const size_t Begin = BI * BatchSize;
        const size_t End = std::min(Begin + BatchSize, Pairs.size());
        for (size_t I = Begin; I != End; ++I) {
          Results[I] = PairResult(); // Fresh slate on retry.
          // Keep the "null budget = unlimited" fast path.
          if (!Budget) {
            analyzePair(Nest, Pairs[I], nullptr, Results[I]);
            continue;
          }
          // A private copy of this attempt's budget: fresh counters, same
          // limits, shared deadline and cancel flag.
          ResourceBudget PairBudget = B->degradedCopy(1.0);
          analyzePair(Nest, Pairs[I], &PairBudget, Results[I]);
        }
        return Status::ok();
      });
  for (size_t BI = 0; BI != NumBatches; ++BI) {
    SupervisedOutcome &O = Outcomes[BI];
    const size_t Begin = BI * BatchSize;
    const size_t End = std::min(Begin + BatchSize, Pairs.size());
    if (O.degraded()) {
      // The whole batch degrades to the assumed-dependence answer: sound,
      // and deterministic because batch membership is fixed.
      for (size_t I = Begin; I != End; ++I) {
        Results[I] = PairResult();
        appendConservativePair(Nest, Pairs[I], O.Result, Results[I]);
      }
    } else if (O.retried()) {
      Results[Begin].Warnings.push_back("dependence " +
                                        Supervisor::describe(O, BI));
    }
  }
  for (PairResult &R : Results)
    Merge(R);
  return Out;
}

std::vector<bool>
DependenceAnalysis::parallelizableLevels(const LoopNest &Nest) const {
  std::vector<bool> Parallel(Nest.depth(), true);
  for (const Dependence &D : analyze(Nest))
    if (D.Level < Nest.depth())
      Parallel[D.Level] = false;
  return Parallel;
}

std::vector<std::vector<int64_t>> DependenceAnalysis::exactDistanceVectors(
    const std::vector<Dependence> &Deps) {
  std::vector<std::vector<int64_t>> Out;
  for (const Dependence &D : Deps) {
    if (!D.isDistanceVector())
      continue;
    std::vector<int64_t> V;
    for (const DepComponent &C : D.Components)
      V.push_back(*C.Distance);
    Out.push_back(std::move(V));
  }
  return Out;
}
