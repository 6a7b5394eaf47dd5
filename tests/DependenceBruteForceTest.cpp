//===- tests/DependenceBruteForceTest.cpp - Exhaustive validation ----------===//
//
// Property test: on randomly generated small affine nests, the dependence
// analyzer's verdicts are compared against ground truth obtained by
// enumerating every pair of iterations. Checks:
//
//   * soundness: every true dependence (witnessed by an iteration pair)
//     is reported at its carrying level — at every depth;
//   * precision: no dependence is reported at a level with no witness.
//     Exact at depth 2; at depth 3 diagonally-thin integer-empty regions
//     can evade the per-axis refinement (closing that gap needs the full
//     Omega test), so conservatism is only bounded there;
//   * exact distances: when the analyzer pins a component, every witness
//     pair exhibits that distance;
//   * parallelizableLevels agrees with the witness sets.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"

#include "ir/Builder.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>

using namespace alp;

namespace {

struct RandomNestConfig {
  int64_t Extent = 5;   // Loops run 0..Extent.
  unsigned Depth = 2;
  unsigned NumAccesses = 3;
};

/// Builds a random program with one nest of small extent.
Program makeRandomProgram(Rng &R, const RandomNestConfig &Cfg) {
  ProgramBuilder B("rand");
  // A generously sized array so ground truth never needs clamping.
  B.array("A", {SymAffine(64), SymAffine(64)});
  NestBuilder NB = B.nest();
  for (unsigned D = 0; D != Cfg.Depth; ++D)
    NB.loop("i" + std::to_string(D), 0, SymAffine(Cfg.Extent));
  NB.stmt();
  for (unsigned K = 0; K != Cfg.NumAccesses; ++K) {
    Matrix F(2, Cfg.Depth);
    for (unsigned Row = 0; Row != 2; ++Row)
      for (unsigned Col = 0; Col != Cfg.Depth; ++Col)
        F.at(Row, Col) = Rational(R.nextInRange(-1, 1));
    SymVector KVec(2);
    KVec[0] = SymAffine(R.nextInRange(0, 3) + 8);
    KVec[1] = SymAffine(R.nextInRange(0, 3) + 8);
    if (K == 0)
      NB.write("A", F, KVec);
    else
      NB.read("A", F, KVec);
  }
  return B.build();
}

/// Enumerates iteration space points.
std::vector<std::vector<int64_t>> allPoints(unsigned Depth, int64_t Extent) {
  std::vector<std::vector<int64_t>> Pts;
  std::vector<int64_t> Cur(Depth, 0);
  while (true) {
    Pts.push_back(Cur);
    unsigned D = Depth;
    while (D != 0) {
      if (++Cur[D - 1] <= Extent)
        break;
      Cur[D - 1] = 0;
      --D;
    }
    if (D == 0)
      break;
  }
  return Pts;
}

std::vector<int64_t> evalAccess(const AffineAccessMap &M,
                                const std::vector<int64_t> &I) {
  std::vector<int64_t> Out(M.arrayDim());
  for (unsigned R = 0; R != M.arrayDim(); ++R) {
    Rational V = M.constant()[R].constant();
    for (unsigned C = 0; C != M.nestDepth(); ++C)
      V += M.linear().at(R, C) * Rational(I[C]);
    Out[R] = V.asInteger();
  }
  return Out;
}

/// Ground truth: for an ordered access pair, the set of carrying levels
/// with at least one witness, plus (per level) whether all witnesses share
/// one distance vector and what it is.
struct Witnesses {
  std::set<unsigned> Levels;
  std::map<unsigned, std::set<std::vector<int64_t>>> DistancesAtLevel;
};

Witnesses bruteForce(const AffineAccessMap &Src, const AffineAccessMap &Dst,
                     unsigned Depth, int64_t Extent) {
  Witnesses W;
  auto Pts = allPoints(Depth, Extent);
  for (const auto &I : Pts)
    for (const auto &J : Pts) {
      if (evalAccess(Src, I) != evalAccess(Dst, J))
        continue;
      // Distance d = J - I; carrying level = first nonzero, must be > 0.
      std::vector<int64_t> D(Depth);
      unsigned Level = Depth;
      for (unsigned K = 0; K != Depth; ++K) {
        D[K] = J[K] - I[K];
        if (Level == Depth && D[K] != 0)
          Level = K;
      }
      if (Level == Depth || D[Level] < 0)
        continue; // Same iteration or reversed pair.
      W.Levels.insert(Level);
      W.DistancesAtLevel[Level].insert(D);
    }
  return W;
}

} // namespace

class DependenceBruteForceTest
    : public ::testing::TestWithParam<std::pair<uint64_t, unsigned>> {};

TEST_P(DependenceBruteForceTest, AnalyzerMatchesEnumeration) {
  Rng R(GetParam().first);
  RandomNestConfig Cfg;
  Cfg.Depth = GetParam().second;
  if (Cfg.Depth >= 3)
    Cfg.Extent = 3; // Keep the enumeration cheap in higher dimensions.
  unsigned Trials = Cfg.Depth >= 3 ? 12 : 30;
  bool StrictPrecision = Cfg.Depth <= 2;
  unsigned Phantoms = 0, Reports = 0;
  for (unsigned Trial = 0; Trial != Trials; ++Trial) {
    Program P = makeRandomProgram(R, Cfg);
    const LoopNest &Nest = P.nest(0);
    DependenceAnalysis DA(P);
    std::vector<Dependence> Deps = DA.analyze(Nest);

    // Check every ordered access pair (with >= 1 write) independently.
    const Statement &S = Nest.Body[0];
    for (unsigned A = 0; A != S.Accesses.size(); ++A)
      for (unsigned B = 0; B != S.Accesses.size(); ++B) {
        if (!S.Accesses[A].IsWrite && !S.Accesses[B].IsWrite)
          continue;
        if (A == B && !S.Accesses[A].IsWrite)
          continue;
        Witnesses W = bruteForce(S.Accesses[A].Map, S.Accesses[B].Map,
                                 Cfg.Depth, Cfg.Extent);
        // Reported levels for this pair.
        std::set<unsigned> Reported;
        for (const Dependence &D : Deps)
          if (D.SrcAccess == A && D.DstAccess == B &&
              D.Level < Cfg.Depth)
            Reported.insert(D.Level);
        // Soundness: every witnessed level is reported.
        for (unsigned L : W.Levels)
          EXPECT_TRUE(Reported.count(L))
              << "missed dependence at level " << L << " for accesses "
              << A << "->" << B;
        // Precision: no reported level lacks a witness.
        Reports += Reported.size();
        for (unsigned L : Reported) {
          if (W.Levels.count(L))
            continue;
          ++Phantoms;
          if (StrictPrecision) {
            ADD_FAILURE() << "phantom dependence at level " << L
                          << " for accesses " << A << "->" << B;
          }
        }
        // Exact distances: if the analyzer pinned every component, the
        // witness set at that level must contain exactly that vector.
        for (const Dependence &D : Deps) {
          if (D.SrcAccess != A || D.DstAccess != B || D.Level >= Cfg.Depth)
            continue;
          if (!D.isDistanceVector())
            continue;
          std::vector<int64_t> V;
          for (const DepComponent &C : D.Components)
            V.push_back(*C.Distance);
          const auto &Set = W.DistancesAtLevel[D.Level];
          EXPECT_EQ(Set.size(), 1u) << "analyzer pinned a distance but "
                                       "witnesses vary";
          if (Set.size() == 1) {
            EXPECT_EQ(*Set.begin(), V);
          }
        }
      }

    // parallelizableLevels agrees with the union of witnesses (soundness
    // direction always; exactness only when precision is strict).
    std::vector<bool> Par = DA.parallelizableLevels(Nest);
    std::set<unsigned> AnyLevel;
    for (unsigned A = 0; A != S.Accesses.size(); ++A)
      for (unsigned B = 0; B != S.Accesses.size(); ++B) {
        if (!S.Accesses[A].IsWrite && !S.Accesses[B].IsWrite)
          continue;
        if (A == B && !S.Accesses[A].IsWrite)
          continue;
        Witnesses W = bruteForce(S.Accesses[A].Map, S.Accesses[B].Map,
                                 Cfg.Depth, Cfg.Extent);
        AnyLevel.insert(W.Levels.begin(), W.Levels.end());
      }
    for (unsigned L = 0; L != Cfg.Depth; ++L) {
      if (StrictPrecision) {
        EXPECT_EQ(Par[L], !AnyLevel.count(L)) << "level " << L;
      } else if (AnyLevel.count(L)) {
        EXPECT_FALSE(Par[L]) << "level " << L; // Never unsound.
      }
    }
  }
  // Bounded conservatism at depth 3: phantoms stay rare.
  if (!StrictPrecision && Reports)
    EXPECT_LT(static_cast<double>(Phantoms) / Reports, 0.05)
        << Phantoms << " phantoms out of " << Reports << " reports";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DependenceBruteForceTest,
    ::testing::Values(std::pair<uint64_t, unsigned>{101u, 2u},
                      std::pair<uint64_t, unsigned>{102u, 2u},
                      std::pair<uint64_t, unsigned>{103u, 2u},
                      std::pair<uint64_t, unsigned>{104u, 2u},
                      std::pair<uint64_t, unsigned>{105u, 2u},
                      std::pair<uint64_t, unsigned>{201u, 3u},
                      std::pair<uint64_t, unsigned>{202u, 3u},
                      std::pair<uint64_t, unsigned>{203u, 3u}));

namespace {

std::string depsFingerprint(const std::vector<Dependence> &Deps) {
  std::string S;
  for (const Dependence &D : Deps) {
    S += D.str();
    S += '\n';
  }
  return S;
}

} // namespace

// The cheap tiers and the memoization layer are pure compile-time
// optimizations: over the same random corpus the brute-force test uses,
// every configuration — tiers on/off, cache on/off, one cumulative budget
// or supervised per-pair budgets — must produce the identical dependence
// list.
TEST(DependenceEquivalenceTest, AllConfigurationsMatchUncachedExact) {
  Rng R(777);
  for (unsigned Trial = 0; Trial != 30; ++Trial) {
    RandomNestConfig Cfg;
    Cfg.Depth = (Trial % 2) ? 3 : 2;
    if (Cfg.Depth >= 3)
      Cfg.Extent = 3;
    Program P = makeRandomProgram(R, Cfg);
    const LoopNest &Nest = P.nest(0);

    auto Run = [&](DependenceOptions O) {
      DependenceAnalysis DA(P, nullptr, O);
      return depsFingerprint(DA.analyze(Nest));
    };

    DependenceOptions Exact;
    Exact.TieredTests = false;
    Exact.Memoize = false;
    std::string Ref = Run(Exact);

    DependenceOptions TiersOnly;
    TiersOnly.Memoize = false;
    EXPECT_EQ(Ref, Run(TiersOnly)) << "trial " << Trial << " tiers-only";

    DependenceOptions MemoOnly;
    MemoOnly.TieredTests = false;
    EXPECT_EQ(Ref, Run(MemoOnly)) << "trial " << Trial << " memo-only";

    DependenceOptions Full;
    EXPECT_EQ(Ref, Run(Full)) << "trial " << Trial << " full";

    DependenceOptions PerPair;
    PerPair.Supervised = true;
    EXPECT_EQ(Ref, Run(PerPair)) << "trial " << Trial << " supervised";

    // Tier counters partition the pairs: every pair exits at exactly one
    // tier, and the cache only sees traffic from pairs that reached the
    // exact tier.
    DependenceAnalysis DA(P, nullptr, Full);
    (void)DA.analyze(Nest);
    DependenceTierStats T = DA.tierStats();
    EXPECT_EQ(T.Pairs,
              T.GcdIndependent + T.BanerjeeIndependent + T.ExactTested);
    if (T.ExactTested == 0)
      EXPECT_EQ(T.CacheHits + T.CacheMisses, 0u);
  }
}

// A shared cache reused across analyses keeps its contents: the second
// analysis of an identically-shaped program hits where the first missed.
TEST(DependenceEquivalenceTest, SharedCacheCarriesAcrossAnalyses) {
  Rng R(4242);
  RandomNestConfig Cfg;
  Program P = makeRandomProgram(R, Cfg);
  DependenceCache Shared;
  DependenceOptions O;
  O.SharedCache = &Shared;

  DependenceAnalysis First(P, nullptr, O);
  std::string Ref = depsFingerprint(First.analyze(P.nest(0)));
  DependenceTierStats T1 = First.tierStats();

  DependenceAnalysis Second(P, nullptr, O);
  EXPECT_EQ(Ref, depsFingerprint(Second.analyze(P.nest(0))));
  // Cache counters on a shared cache are the cache's lifetime totals, so
  // the second run's view includes the first run's misses — but it must
  // not add any new ones, only hits.
  DependenceTierStats T2 = Second.tierStats();
  if (T1.CacheMisses > 0) {
    EXPECT_EQ(T2.CacheMisses, T1.CacheMisses);
    EXPECT_GT(T2.CacheHits, T1.CacheHits);
  }
}
