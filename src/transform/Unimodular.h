//===- transform/Unimodular.h - Wolf-Lam local phase ------------*- C++ -*-===//
///
/// \file
/// The "local analysis" of Sec. 2.1: per-nest unimodular transformation
/// into the canonical form the decomposition algorithms expect — a nest of
/// outermost fully permutable loop bands, as large as possible, with
/// forall-parallel loops positioned outermost inside each band.
///
/// The band construction follows Wolf & Lam: loops whose dependence
/// components can never be negative join the current band directly; loops
/// whose exact negative components can be repaired by skewing against a
/// band member with a positive exact component are skewed in; when neither
/// applies the band is closed and the outermost remaining original loop
/// starts a new (initially degenerate) band. A dependence is satisfied once
/// some placed loop always carries it with a positive component; satisfied
/// dependences stop constraining later bands.
///
/// applyUnimodular() materializes a transform on the IR: accesses compose
/// with T^-1 and loop bounds are regenerated by Fourier-Motzkin projection
/// of the transformed iteration polytope (Ancourt-Irigoin style).
///
//===----------------------------------------------------------------------===//

#ifndef ALP_TRANSFORM_UNIMODULAR_H
#define ALP_TRANSFORM_UNIMODULAR_H

#include "analysis/Dependence.h"
#include "linalg/IntegerOps.h"
#include "ir/Program.h"

namespace alp {

/// Result of canonicalizing one nest.
struct CanonicalForm {
  /// The unimodular transform applied (new iteration vector i' = T i).
  IntMatrix T;
  /// Sizes of the outermost fully permutable bands, covering all loops.
  std::vector<unsigned> BandSizes;
  /// Per transformed loop: true if forall-parallel in the new order.
  std::vector<bool> ParallelLoops;
};

/// Applies the unimodular transform \p T to \p Nest in place: loops are
/// renamed/reordered/skewed, bounds regenerated via FM projection, and
/// every access map composed with T^-1. Loop kinds are preserved
/// positionally only if \p T is a permutation; callers normally reset them.
void applyUnimodular(LoopNest &Nest, const IntMatrix &T);

/// Computes the canonical form of \p Nest from its dependences (which must
/// be in the nest's current loop order).
CanonicalForm computeCanonicalForm(const LoopNest &Nest,
                                   const std::vector<Dependence> &Deps);

/// Memoization / supervision knobs of the local phase.
struct LocalPhaseOptions {
  /// Dependence-projection cache shared across nests (nullptr = each
  /// nest's analysis memoizes privately).
  DependenceCache *SharedCache = nullptr;
  /// Observability sink: one "local.canonicalize" span per nest (Detail =
  /// nest index), "local.*" and "dep.*" counters, tier stats aggregated
  /// in nest order.
  TraceContext Observe;
  /// Supervision of the per-nest tasks (support/Supervisor.h):
  /// total attempts per nest and an optional per-attempt wall-clock
  /// deadline (0 = none). A nest whose every attempt fails with an
  /// escaped exception is left untransformed (all loops sequential), the
  /// same fallback as an in-task overflow.
  unsigned TaskAttempts = 2;
  uint64_t TaskDeadlineMs = 0;
};

/// Runs the full local phase on every nest of \p P: dependence analysis,
/// canonicalization, IR rewrite, loop-kind and PermutableBands annotation.
///
/// Fail-soft: a nest that cannot be legally ordered (conservative
/// dependences can make every order look illegal) or whose transform
/// overflows 64-bit arithmetic is left in source order with all loops
/// marked sequential and one loop per band — always legal, never tiled.
/// One note per skipped nest is appended to \p Warnings when given; with
/// \p Budget, each nest runs on its own copy of it and dependence analysis
/// degrades conservatively on exhaustion.
void runLocalPhase(Program &P, ResourceBudget *Budget = nullptr,
                   std::vector<std::string> *Warnings = nullptr,
                   const LocalPhaseOptions &Opts = LocalPhaseOptions());

} // namespace alp

#endif // ALP_TRANSFORM_UNIMODULAR_H
