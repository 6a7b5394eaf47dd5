//===- analysis/Dependence.h - Affine dependence analysis -------*- C++ -*-===//
///
/// \file
/// Data dependence analysis for affine loop nests. For every pair of
/// accesses to the same array (with at least one write) the analyzer runs a
/// tiered test ladder in escalating cost order, exiting as soon as a tier
/// proves independence:
///
///   tier 0  per-equation GCD divisibility          (integer arithmetic)
///   tier 1  Banerjee bounds over rectangular nests (rational range test)
///   tier 2  exact Fourier-Motzkin on the dependence polyhedron, with an
///           integer lattice test and per-axis integer refinement
///
/// The cheap tiers are strictly conservative filters: anything they prove
/// independent, the exact tier would also prove independent, so disabling
/// them (DependenceOptions::TieredTests = false) changes compile time but
/// never the result. The exact tier builds the polyhedron over (source
/// iteration, destination iteration, symbolic constants), tests it per
/// carrying level, and extracts a dependence vector whose components are
/// exact distances where the polyhedron pins them and directions otherwise.
///
/// Tier 2's per-axis refinement projects each per-level system onto every
/// one of its variables through one ProjectionWalk (linalg/FourierMotzkin.h):
/// the axes share the elimination prefix, and each projection replays the
/// budget charges of the prefix it reuses, so the budget sees exactly the
/// charges of independent from-scratch projections.
///
/// Tier-2 bounds projections are memoized through a DependenceCache keyed
/// by canonical constraint-system keys (linalg/SystemKey.h): same-shape
/// access pairs — the common case in stencil codes — share one projection.
/// The budget is charged one of two ways: cumulatively across every pair
/// (the default), or, with DependenceOptions::Supervised, per pair on its
/// own budget copy inside supervised batches of pairs.
///
/// These vectors drive the Wolf-Lam local phase (fully permutable bands,
/// forall classification) and the tiling legality checks of Sec. 5.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_ANALYSIS_DEPENDENCE_H
#define ALP_ANALYSIS_DEPENDENCE_H

#include "analysis/DependenceCache.h"
#include "ir/Program.h"
#include "support/Budget.h"
#include "support/Trace.h"

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace alp {

/// One component of a dependence vector.
struct DepComponent {
  enum class Dir { Lt, Eq, Gt, Le, Ge, Star };

  Dir Direction = Dir::Star;
  /// Set when the polyhedron pins the component to a single integer.
  std::optional<int64_t> Distance;

  static DepComponent exact(int64_t D);
  static DepComponent dir(Dir D) { return {D, std::nullopt}; }

  bool isExact() const { return Distance.has_value(); }
  /// Can this component be negative / positive / zero?
  bool mayBeNegative() const;
  bool mayBePositive() const;
  bool mayBeZero() const;

  std::string str() const;
};

/// Dependence classification by access kinds.
enum class DepKind { Flow, Anti, Output };

/// A dependence between two accesses of one loop nest.
struct Dependence {
  unsigned SrcStmt = 0, DstStmt = 0;
  unsigned SrcAccess = 0, DstAccess = 0; // Indexes into Statement::Accesses.
  unsigned ArrayId = 0;
  DepKind Kind = DepKind::Flow;
  /// Loop level carrying the dependence (0-based), or depth() for a
  /// loop-independent dependence.
  unsigned Level = 0;
  /// Per-level components, outermost first; Components[Level] is positive
  /// for a carried dependence.
  std::vector<DepComponent> Components;
  /// True when this dependence was assumed rather than proven: the exact
  /// test ran out of budget or overflowed 64-bit arithmetic, so the
  /// analyzer answered conservatively. Sound (never misses a real
  /// dependence) but maximally imprecise.
  bool Conservative = false;

  bool isLoopIndependent(unsigned Depth) const { return Level == Depth; }
  /// True if every component is an exact distance.
  bool isDistanceVector() const;
  std::string str() const;
};

/// Knobs of one DependenceAnalysis instance. The defaults give the fast
/// configuration; every combination produces identical dependences.
struct DependenceOptions {
  /// Run the cheap independence tiers (GCD, Banerjee) before the exact
  /// test. Off = every pair goes straight to Fourier-Motzkin — only useful
  /// for benchmarking and for the tier-equivalence tests.
  bool TieredTests = true;
  /// Memoize tier-2 bounds projections under canonical system keys.
  bool Memoize = true;
  /// Cache to memoize into; nullptr = the analysis owns a private one.
  /// Share one cache across analyses to reuse projections across nests.
  DependenceCache *SharedCache = nullptr;
  /// Span tracer for the exact tier (one "dep.exact" span per pair that
  /// reaches tier 2); nullptr = no tracing. Counters are not collected
  /// here — snapshot tierStats() and publish it into a MetricsRegistry.
  Tracer *Trace = nullptr;
  /// false: one cumulative budget caps the whole analysis. true: pairs
  /// run in fixed batches of 8 under a default-policy Supervisor, each
  /// pair on its own copy of the budget, so which pair degrades does not
  /// depend on the pairs before it. A batch whose every attempt fails
  /// with an escaped exception — injected OOM, deadline — degrades to the
  /// same conservative assumed-dependence answer as a blown budget.
  bool Supervised = false;
};

/// Counters of one analysis run: how far pairs got down the tier ladder,
/// and how the memoization layer performed. Monotone across analyze()
/// calls on one instance. The tier counters are per instance; the cache
/// counters come from the cache itself, so with a SharedCache they are
/// that cache's lifetime totals across every analysis using it.
struct DependenceTierStats {
  uint64_t Pairs = 0;             ///< Access pairs tested.
  uint64_t GcdIndependent = 0;    ///< Proven independent by tier 0.
  uint64_t BanerjeeIndependent = 0; ///< Proven independent by tier 1.
  uint64_t ExactTested = 0;       ///< Pairs that reached tier 2.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// The deterministic cache ledger: projections replayed in pair-merge
  /// order, a lookup counting as a hit iff an earlier pair (in merge
  /// order) of this instance already produced its key. Unlike the raw
  /// CacheHits/CacheMisses above — which come from the cache itself and,
  /// with a SharedCache, include every other analysis using it — these
  /// depend only on this instance's pairs, so they are what publishTo
  /// reports as counters (the raw values publish as gauges).
  uint64_t LogicalCacheHits = 0;
  uint64_t LogicalCacheMisses = 0;
  /// Fourier-Motzkin elimination steps consumed by the exact tier, summed
  /// per pair. A cache hit charges nothing, so with a SharedCache this
  /// total depends on which analysis populated the cache first — it
  /// publishes as a gauge, not a counter.
  uint64_t EliminationSteps = 0;

  /// Adds this snapshot into \p MR under the "dep.*" names
  /// (docs/OBSERVABILITY.md): tier and logical-cache totals as counters,
  /// EliminationSteps as a gauge. Publish each analysis at most once —
  /// counter adds accumulate.
  void publishTo(MetricsRegistry &MR) const;
};

/// Dependence analysis over one loop nest. With a ResourceBudget attached,
/// an access pair whose exact test exhausts the budget (or overflows) is
/// assumed dependent at every level — the analyzer never aborts and never
/// hangs, it only loses precision.
class DependenceAnalysis {
public:
  explicit DependenceAnalysis(const Program &P,
                              ResourceBudget *Budget = nullptr,
                              DependenceOptions Opts = DependenceOptions());

  /// True once some pair was answered conservatively.
  bool degraded() const { return Degraded; }
  /// One human-readable note per conservatively answered pair.
  const std::vector<std::string> &warnings() const { return Warnings; }

  /// Tier / cache counters accumulated so far.
  DependenceTierStats tierStats() const;

  /// All dependences of \p Nest (flow, anti, and output), per carrying
  /// level, in deterministic pair order.
  std::vector<Dependence> analyze(const LoopNest &Nest) const;

  /// Loop levels of \p Nest that carry no dependence when all enclosing
  /// levels are executed sequentially — i.e. levels that are forall-
  /// parallelizable in the nest's current loop order. Bit k set means loop
  /// k is parallel.
  std::vector<bool> parallelizableLevels(const LoopNest &Nest) const;

  /// The distance vectors of \p Deps restricted to exact ones; directions
  /// are widened to nullopt entries.
  static std::vector<std::vector<int64_t>>
  exactDistanceVectors(const std::vector<Dependence> &Deps);

private:
  /// One access pair to test, and everything its test produced. Results
  /// are kept per pair so a supervised run can merge them in pair order.
  struct PairTask {
    unsigned SStmt = 0, SAcc = 0, TStmt = 0, TAcc = 0;
  };
  struct PairResult {
    std::vector<Dependence> Deps;
    std::vector<std::string> Warnings;
    bool Degraded = false;
    /// Identity (system hash, projected var) of every memoizable bounds
    /// projection this pair requested, in request order — replayed at
    /// merge time against a seen-set to derive the deterministic cache
    /// ledger regardless of which worker actually hit the shared cache.
    std::vector<uint64_t> CacheRefs;
    /// Elimination steps this pair's exact test consumed.
    uint64_t EliminationSteps = 0;
  };

  const Program &P;
  ResourceBudget *Budget = nullptr;
  DependenceOptions Options;
  /// Backing storage when no SharedCache was supplied.
  mutable std::unique_ptr<DependenceCache> OwnCache;
  DependenceCache *Cache = nullptr; // Null when memoization is off.
  mutable bool Degraded = false;
  mutable std::vector<std::string> Warnings;
  /// Tier counters.
  mutable uint64_t NumPairs = 0;
  mutable uint64_t NumGcdIndependent = 0;
  mutable uint64_t NumBanerjeeIndependent = 0;
  mutable uint64_t NumExactTested = 0;
  /// Merge-order cache ledger and the per-pair elimination-step total.
  mutable std::unordered_set<uint64_t> SeenCacheRefs;
  mutable uint64_t NumLogicalCacheHits = 0;
  mutable uint64_t NumLogicalCacheMisses = 0;
  mutable uint64_t NumEliminationSteps = 0;

  /// Tests one access pair under \p PairBudget (nullable); fills \p Res.
  void analyzePair(const LoopNest &Nest, const PairTask &Task,
                   ResourceBudget *PairBudget, PairResult &Res) const;

  /// Appends the "dependence assumed" answer for one pair: a conservative
  /// all-star dependence at every level plus the loop-independent slot.
  void appendConservativePair(const LoopNest &Nest, const PairTask &Task,
                              const Status &Why, PairResult &Res) const;
};

} // namespace alp

#endif // ALP_ANALYSIS_DEPENDENCE_H
