//===- transform/Unimodular.cpp - Wolf-Lam local phase -----------------------===//

#include "transform/Unimodular.h"

#include "linalg/FourierMotzkin.h"
#include "support/Diagnostics.h"
#include "support/Supervisor.h"

#include <algorithm>
#include <optional>
#include <set>

using namespace alp;

//===----------------------------------------------------------------------===//
// Band construction
//===----------------------------------------------------------------------===//

namespace {

/// Mutable per-dependence component state during band construction. Exact
/// components are updated under skewing; direction components never
/// participate in skews.
struct DepState {
  std::vector<DepComponent> Comps; // In original loop order.
  bool Satisfied = false;
};

bool alwaysPositive(const DepComponent &C) {
  if (C.Distance)
    return *C.Distance > 0;
  return C.Direction == DepComponent::Dir::Lt;
}

bool alwaysZero(const DepComponent &C) {
  return C.Distance && *C.Distance == 0;
}

/// One placed loop: original level plus skew multipliers against
/// previously placed band members (by original level).
struct PlacedLoop {
  unsigned OrigLevel;
  std::map<unsigned, int64_t> SkewAgainst;
};

} // namespace

CanonicalForm
alp::computeCanonicalForm(const LoopNest &Nest,
                          const std::vector<Dependence> &Deps) {
  unsigned L = Nest.depth();
  std::vector<DepState> States;
  for (const Dependence &D : Deps) {
    if (D.isLoopIndependent(L))
      continue; // Loop-independent deps do not constrain loop order.
    States.push_back({D.Components, false});
  }

  std::vector<bool> Placed(L, false);
  std::vector<std::vector<PlacedLoop>> Bands;

  auto CompAt = [&](const DepState &S, unsigned P) -> const DepComponent & {
    return S.Comps[P];
  };

  while (true) {
    // Remaining original levels in order.
    std::vector<unsigned> Remaining;
    for (unsigned P = 0; P != L; ++P)
      if (!Placed[P])
        Remaining.push_back(P);
    if (Remaining.empty())
      break;

    std::vector<PlacedLoop> Band;
    // Active = unsatisfied dependences at band start.
    auto Active = [&]() {
      std::vector<unsigned> Idx;
      for (unsigned I = 0; I != States.size(); ++I)
        if (!States[I].Satisfied)
          Idx.push_back(I);
      return Idx;
    }();

    auto InBand = [&](unsigned P) {
      for (const PlacedLoop &M : Band)
        if (M.OrigLevel == P)
          return true;
      return false;
    };

    // Greedily grow the band.
    while (true) {
      int Chosen = -1;
      bool ChosenNeedsSkew = false;
      bool ChosenParallel = false;
      for (unsigned P : Remaining) {
        if (InBand(P))
          continue;
        bool Ok = true, NeedsSkew = false, Parallel = true;
        for (unsigned I : Active) {
          const DepComponent &C = CompAt(States[I], P);
          Parallel &= alwaysZero(C);
          if (!C.mayBeNegative())
            continue;
          // Negative component: repairable only if exact and some band
          // member has an exact positive component for this dependence.
          if (!C.isExact()) {
            Ok = false;
            break;
          }
          bool Repairable = false;
          for (const PlacedLoop &M : Band) {
            const DepComponent &MC = CompAt(States[I], M.OrigLevel);
            if (MC.isExact() && *MC.Distance > 0) {
              Repairable = true;
              break;
            }
          }
          if (!Repairable) {
            Ok = false;
            break;
          }
          NeedsSkew = true;
        }
        if (!Ok)
          continue;
        // Prefer parallel loops (they end up outermost in the band), then
        // skew-free loops, then original order.
        if (Chosen < 0 ||
            (Parallel && !ChosenParallel) ||
            (Parallel == ChosenParallel && !NeedsSkew && ChosenNeedsSkew)) {
          Chosen = static_cast<int>(P);
          ChosenNeedsSkew = NeedsSkew;
          ChosenParallel = Parallel;
        }
      }
      if (Chosen < 0)
        break;
      unsigned P = static_cast<unsigned>(Chosen);
      PlacedLoop PL{P, {}};
      if (ChosenNeedsSkew) {
        // Repair negative exact components by skewing against band members
        // in placement order; each skew only ever increases components of
        // dependences whose member component is nonnegative.
        for (const PlacedLoop &M : Band) {
          int64_t F = 0;
          for (unsigned I : Active) {
            DepComponent &C = States[I].Comps[P];
            const DepComponent &MC = CompAt(States[I], M.OrigLevel);
            if (C.isExact() && *C.Distance < 0 && MC.isExact() &&
                *MC.Distance > 0) {
              int64_t Need = (-*C.Distance + *MC.Distance - 1) / *MC.Distance;
              F = std::max(F, Need);
            }
          }
          if (F == 0)
            continue;
          PL.SkewAgainst[M.OrigLevel] = F;
          for (unsigned I = 0; I != States.size(); ++I) {
            DepComponent &C = States[I].Comps[P];
            const DepComponent &MC = CompAt(States[I], M.OrigLevel);
            if (C.isExact() && MC.isExact())
              C = DepComponent::exact(*C.Distance + F * *MC.Distance);
          }
        }
        for (unsigned I : Active)
          assert(!CompAt(States[I], P).mayBeNegative() &&
                 "skewing failed to repair a negative component");
      }
      Band.push_back(std::move(PL));
    }

    if (Band.empty()) {
      // Close with a degenerate band holding the outermost remaining
      // original loop. Legality: every unsatisfied dependence has zero
      // components before its (not yet placed) carrying level and a
      // positive component at it, so the outermost remaining original
      // level can never carry a negative component.
      unsigned P = Remaining.front();
      for (unsigned I : Active)
        if (CompAt(States[I], P).mayBeNegative())
          // Reachable with conservative (all-star) dependences: no loop
          // order can be proven legal. Recoverable — runLocalPhase leaves
          // the nest in source order.
          throw AlpException(StatusCode::Unsolvable,
                             "local phase: cannot legally order loop nest");
      Band.push_back({P, {}});
    }

    // Order band members: parallel loops (all components of active deps
    // always zero) first, preserving relative order otherwise.
    std::stable_sort(Band.begin(), Band.end(),
                     [&](const PlacedLoop &A, const PlacedLoop &B) {
                       auto IsPar = [&](const PlacedLoop &M) {
                         for (unsigned I : Active)
                           if (!alwaysZero(CompAt(States[I], M.OrigLevel)))
                             return false;
                         return true;
                       };
                       return IsPar(A) && !IsPar(B);
                     });

    // Mark dependences satisfied by this band and the loops placed.
    for (const PlacedLoop &M : Band)
      Placed[M.OrigLevel] = true;
    for (unsigned I : Active) {
      for (const PlacedLoop &M : Band)
        if (alwaysPositive(CompAt(States[I], M.OrigLevel))) {
          States[I].Satisfied = true;
          break;
        }
    }
    Bands.push_back(std::move(Band));
  }

  // Assemble T: row r of T is e_p (+ skew multiples of e_q).
  CanonicalForm CF;
  CF.T = IntMatrix(L, L);
  unsigned Row = 0;
  for (const auto &Band : Bands) {
    CF.BandSizes.push_back(Band.size());
    for (const PlacedLoop &M : Band) {
      CF.T.at(Row, M.OrigLevel) = 1;
      for (const auto &[Q, F] : M.SkewAgainst)
        CF.T.at(Row, Q) = F;
      ++Row;
    }
  }
  assert(CF.T.isUnimodular() && "canonical transform must be unimodular");

  // Parallel flags: a transformed loop is forall iff every dependence not
  // satisfied strictly before its band has an always-zero component on it.
  // Recompute by replaying satisfaction band by band.
  for (DepState &S : States)
    S.Satisfied = false;
  CF.ParallelLoops.assign(L, false);
  Row = 0;
  for (const auto &Band : Bands) {
    std::vector<unsigned> Active;
    for (unsigned I = 0; I != States.size(); ++I)
      if (!States[I].Satisfied)
        Active.push_back(I);
    for (const PlacedLoop &M : Band) {
      bool Par = true;
      for (unsigned I : Active)
        Par &= alwaysZero(CompAt(States[I], M.OrigLevel));
      CF.ParallelLoops[Row++] = Par;
    }
    for (unsigned I : Active)
      for (const PlacedLoop &M : Band)
        if (alwaysPositive(CompAt(States[I], M.OrigLevel))) {
          States[I].Satisfied = true;
          break;
        }
  }
  return CF;
}

//===----------------------------------------------------------------------===//
// IR rewrite
//===----------------------------------------------------------------------===//

namespace {

/// Collects symbols used by any bound of \p Nest.
std::vector<std::string> boundSymbols(const LoopNest &Nest) {
  std::set<std::string> Names;
  for (const Loop &L : Nest.Loops) {
    for (const BoundTerm &T : L.Lower)
      for (const auto &[Name, C] : T.Const.symbolCoeffs()) {
        (void)C;
        Names.insert(Name);
      }
    for (const BoundTerm &T : L.Upper)
      for (const auto &[Name, C] : T.Const.symbolCoeffs()) {
        (void)C;
        Names.insert(Name);
      }
  }
  return std::vector<std::string>(Names.begin(), Names.end());
}

} // namespace

void alp::applyUnimodular(LoopNest &Nest, const IntMatrix &T) {
  unsigned L = Nest.depth();
  assert(T.rows() == L && T.cols() == L && T.isUnimodular() &&
         "transform must be a unimodular LxL matrix");
  Matrix TQ = T.toRational();
  Matrix TInv = *TQ.inverse();

  // Rewrite accesses: F' = F * T^-1 (i = T^-1 i').
  for (Statement &S : Nest.Body)
    for (ArrayAccess &A : S.Accesses)
      A.Map = A.Map.composeWith(TInv);

  // Regenerate bounds: express the original bound constraints in terms of
  // i' and project per level, innermost outward.
  std::vector<std::string> Syms = boundSymbols(Nest);
  unsigned NS = Syms.size();
  auto SymIdx = [&](const std::string &Name) {
    for (unsigned I = 0; I != NS; ++I)
      if (Syms[I] == Name)
        return L + I;
    assert(false && "symbol not collected");
    return L;
  };

  ConstraintSystem CS(L + NS);
  for (unsigned K = 0; K != L; ++K) {
    const Loop &Loop = Nest.Loops[K];
    auto AddTerm = [&](const BoundTerm &BT, bool IsLower) {
      // IsLower:  i_K - coeffs . i - const >= 0; upper is negated.
      Vector Coef(L + NS);
      Rational Const(0);
      Rational Sign = IsLower ? Rational(1) : Rational(-1);
      // i_K in terms of i': row K of T^-1 applied... i = T^-1 i', so
      // original i_K = (T^-1 row K) . i'.
      for (unsigned J = 0; J != L; ++J)
        Coef[J] += Sign * TInv.at(K, J);
      for (unsigned O = 0; O != L; ++O) {
        if (BT.OuterCoeffs[O].isZero())
          continue;
        for (unsigned J = 0; J != L; ++J)
          Coef[J] -= Sign * BT.OuterCoeffs[O] * TInv.at(O, J);
      }
      Const -= Sign * BT.Const.constant();
      for (const auto &[Name, C] : BT.Const.symbolCoeffs())
        Coef[SymIdx(Name)] -= Sign * C;
      CS.addInequality(Coef, Const);
    };
    for (const BoundTerm &BT : Loop.Lower)
      AddTerm(BT, /*IsLower=*/true);
    for (const BoundTerm &BT : Loop.Upper)
      AddTerm(BT, /*IsLower=*/false);
  }

  // New loop metadata: names and kinds follow the dominant original level
  // of each transformed row (pure permutation rows keep their identity).
  std::vector<Loop> NewLoops(L);
  for (unsigned R = 0; R != L; ++R) {
    // Find the original level this row is "mostly" (unit rows exactly).
    int Orig = -1;
    unsigned NonZero = 0;
    for (unsigned C = 0; C != L; ++C)
      if (T.at(R, C) != 0) {
        ++NonZero;
        Orig = static_cast<int>(C);
      }
    if (NonZero == 1 && T.at(R, static_cast<unsigned>(Orig)) == 1) {
      NewLoops[R].IndexName = Nest.Loops[Orig].IndexName;
      NewLoops[R].Kind = Nest.Loops[Orig].Kind;
    } else {
      NewLoops[R].IndexName = Nest.Loops[R].IndexName + "_t";
      NewLoops[R].Kind = LoopKind::Sequential;
    }
  }

  // Project bounds innermost-out.
  ConstraintSystem Work = CS;
  for (unsigned RPlus = L; RPlus != 0; --RPlus) {
    unsigned R = RPlus - 1;
    // Read bounds of variable R from constraints whose inner-variable
    // coefficients are all zero (they are, after elimination).
    for (const LinearConstraint &C : Work.constraints()) {
      const Rational &A = C.Coeffs[R];
      if (A.isZero())
        continue;
      // a * i'_R + sum_{j<R} c_j i'_j + syms + c >= 0.
      Vector Outer(L);
      SymAffine Const(C.Const / A.abs());
      for (unsigned J = 0; J != R; ++J)
        Outer[J] = C.Coeffs[J] / A.abs();
      for (unsigned S = 0; S != NS; ++S)
        if (!C.Coeffs[L + S].isZero())
          Const += SymAffine::symbol(Syms[S], C.Coeffs[L + S] / A.abs());
      if (A > Rational(0)) {
        // i'_R >= -(rest): lower bound term.
        Vector Neg(L);
        for (unsigned J = 0; J != R; ++J)
          Neg[J] = -Outer[J];
        NewLoops[R].Lower.push_back(BoundTerm(Neg, -Const));
      } else {
        NewLoops[R].Upper.push_back(BoundTerm(Outer, Const));
      }
    }
    if (NewLoops[R].Lower.empty() || NewLoops[R].Upper.empty())
      reportFatalError("bound regeneration lost a loop bound");
    Work.eliminate(R);
  }

  Nest.Loops = std::move(NewLoops);
  Nest.PermutableBands.clear();
}

namespace {

/// Canonicalizes one nest with \p DA; appends the skip note to
/// \p LPWarnings on failure. The fail-soft body of one local-phase task.
void canonicalizeNest(Program &P, unsigned NI, const DependenceAnalysis &DA,
                      std::vector<std::string> &LPWarnings) {
  LoopNest &Nest = P.Nests[NI];
  try {
    std::vector<Dependence> Deps = DA.analyze(Nest);
    CanonicalForm CF = computeCanonicalForm(Nest, Deps);
    // Transform a copy so a mid-rewrite overflow cannot leave the nest
    // half-transformed.
    LoopNest Trial = Nest;
    if (!CF.T.toRational().isIdentity())
      applyUnimodular(Trial, CF.T);
    for (unsigned R = 0; R != Trial.depth(); ++R)
      Trial.Loops[R].Kind =
          CF.ParallelLoops[R] ? LoopKind::Parallel : LoopKind::Sequential;
    Trial.PermutableBands = CF.BandSizes;
    Nest = std::move(Trial);
  } catch (const AlpException &E) {
    // Source order, all sequential, one loop per band: legal by
    // construction and never tiled.
    for (Loop &L : Nest.Loops)
      L.Kind = LoopKind::Sequential;
    Nest.PermutableBands.assign(Nest.depth(), 1);
    LPWarnings.push_back("local phase left nest " + std::to_string(NI) +
                         " untransformed (" + E.status().str() + ")");
  }
}

} // namespace

void alp::runLocalPhase(Program &P, ResourceBudget *Budget,
                        std::vector<std::string> *Warnings,
                        const LocalPhaseOptions &Opts) {
  const TraceContext &Observe = Opts.Observe;
  Observe.count("local.nests", P.Nests.size());
  // Nests run supervised, in nest order, each with a private analysis
  // (sharing the projection cache) on a private budget copy. Warnings
  // merge in nest order: transform notes first, then dependence notes.
  struct NestOutcome {
    std::vector<std::string> LPWarnings;
    std::vector<std::string> DAWarnings;
    DependenceTierStats Tiers;
  };
  std::vector<NestOutcome> Outcomes(P.Nests.size());
  SupervisorOptions SOpts;
  SOpts.MaxAttempts = Opts.TaskAttempts;
  SOpts.TaskDeadlineMs = Opts.TaskDeadlineMs;
  SOpts.Observe = Observe;
  Supervisor Sup(nullptr, Budget, SOpts);
  std::vector<SupervisedOutcome> SupOutcomes =
      Sup.run(P.Nests.size(), [&](size_t NI, ResourceBudget *B) {
        Outcomes[NI] = NestOutcome(); // Fresh slate on retry.
        TraceSpan Span(Observe.Trace, "local.canonicalize",
                       static_cast<int64_t>(NI));
        DependenceOptions DOpts;
        DOpts.SharedCache = Opts.SharedCache;
        DOpts.Trace = Observe.Trace;
        DOpts.Supervised = true;
        ResourceBudget *NestBudget =
            Budget || Opts.TaskDeadlineMs ? B : nullptr;
        DependenceAnalysis DA(P, NestBudget, DOpts);
        canonicalizeNest(P, NI, DA, Outcomes[NI].LPWarnings);
        Outcomes[NI].DAWarnings = DA.warnings();
        Outcomes[NI].Tiers = DA.tierStats();
        return Status::ok();
      });
  for (size_t NI = 0; NI != P.Nests.size(); ++NI) {
    const SupervisedOutcome &O = SupOutcomes[NI];
    if (O.degraded()) {
      // Every attempt threw past canonicalizeNest's own fallback (e.g.
      // an injected OOM inside the analysis): leave the nest in source
      // order, all sequential — identical to the in-task fallback.
      Outcomes[NI] = NestOutcome();
      LoopNest &Nest = P.Nests[NI];
      for (Loop &L : Nest.Loops)
        L.Kind = LoopKind::Sequential;
      Nest.PermutableBands.assign(Nest.depth(), 1);
      Outcomes[NI].LPWarnings.push_back(
          "local phase left nest " + std::to_string(NI) +
          " untransformed (" + O.Result.str() + ")");
    } else if (O.retried()) {
      Outcomes[NI].LPWarnings.push_back("local phase nest " +
                                        std::to_string(NI) + " " +
                                        Supervisor::describe(O, NI));
    }
  }
  size_t Untransformed = 0;
  for (const NestOutcome &O : Outcomes)
    Untransformed += O.LPWarnings.size();
  Observe.count("local.nests_untransformed", Untransformed);
  if (Observe.Metrics) {
    // Sum the per-nest snapshots into one publish; each nest's logical
    // cache ledger starts fresh.
    DependenceTierStats Sum;
    for (const NestOutcome &O : Outcomes) {
      Sum.Pairs += O.Tiers.Pairs;
      Sum.GcdIndependent += O.Tiers.GcdIndependent;
      Sum.BanerjeeIndependent += O.Tiers.BanerjeeIndependent;
      Sum.ExactTested += O.Tiers.ExactTested;
      Sum.LogicalCacheHits += O.Tiers.LogicalCacheHits;
      Sum.LogicalCacheMisses += O.Tiers.LogicalCacheMisses;
      Sum.EliminationSteps += O.Tiers.EliminationSteps;
    }
    Sum.publishTo(*Observe.Metrics);
  }
  if (Warnings) {
    for (NestOutcome &O : Outcomes)
      for (std::string &W : O.LPWarnings)
        Warnings->push_back(std::move(W));
    for (NestOutcome &O : Outcomes)
      for (std::string &W : O.DAWarnings)
        Warnings->push_back(std::move(W));
  }
}
