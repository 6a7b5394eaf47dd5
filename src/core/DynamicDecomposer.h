//===- core/DynamicDecomposer.h - Dynamic decompositions (Sec. 6) -*- C++ -*-===//
///
/// \file
/// The greedy heuristic of Sec. 6.3 for the (NP-hard, Theorem 6.1) dynamic
/// decomposition problem. Loop nests start in singleton components; the
/// communication-graph edges (reaching decompositions weighted by profile
/// frequency and worst-case reorganization cost) are examined in decreasing
/// weight order, tentatively joining the two endpoint components and
/// re-running the blocked partition algorithm on the union. The join is
/// kept iff the graph's value — total parallelism benefit minus remaining
/// reorganization cost — improves. Purely sequential nests stay in
/// components of their own.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_CORE_DYNAMICDECOMPOSER_H
#define ALP_CORE_DYNAMICDECOMPOSER_H

#include "analysis/Reaching.h"
#include "core/CostModel.h"
#include "core/PartitionSolver.h"

#include <map>
#include <vector>

namespace alp {

/// One edge of the communication graph (aggregated over arrays).
struct CommEdge {
  unsigned U = 0, V = 0; ///< Nest ids, U < V.
  double Weight = 0.0;   ///< Worst-case reorganization cost x frequency.
  /// Per-array contributions (array id -> cost), for reporting.
  std::map<unsigned, double> PerArray;
};

/// The components and partitions chosen by the dynamic algorithm.
struct DynamicResult {
  /// Component id per nest.
  std::map<unsigned, unsigned> ComponentOf;
  /// Partition result per component id.
  std::map<unsigned, PartitionResult> Partitions;
  /// Edges that still carry reorganization communication (cut edges).
  std::vector<CommEdge> CutEdges;
  /// Final value of the communication graph.
  double Value = 0.0;
  /// Supervised-driver ledger, in deterministic (nest / edge) order: join
  /// attempts abandoned by a fault and initial solves that needed a
  /// retry. A non-empty ledger means the result is valid but possibly
  /// less joined than the fault-free answer.
  std::vector<std::string> Warnings;

  std::vector<unsigned> nestsOfComponent(unsigned Comp) const;
};

/// Join policy knob used by the Figure 7 strategy comparison.
enum class JoinPolicy {
  Greedy,      ///< The paper's algorithm.
  ForceSingle, ///< Join everything (best static decomposition).
  NeverJoin    ///< Leave every nest alone (per-nest local optimum).
};

/// Builds the communication graph over the leaf nests of \p P.
std::vector<CommEdge> buildCommGraph(const Program &P, const CostModel &CM);

/// Knobs of the dynamic decomposition drivers. Replaces the former
/// positional-parameter tail; embedded in DriverOptions so alpc and
/// library users configure one nested struct.
struct DynamicDecomposerOptions {
  /// solvePartitionsWithBlocks vs solvePartitions per component.
  bool UseBlocking = true;
  /// Component joining policy (Sec. 6.3 / the Figure 7 strategies).
  JoinPolicy Policy = JoinPolicy::Greedy;
  /// Leave arrays never written anywhere out of every partition solve
  /// (they will be replicated by the Sec. 7.2 pass instead of
  /// constraining parallelism or joins).
  bool ExcludeReadOnly = false;
  /// Optional budget for every partition solve of the run. Each initial
  /// per-nest solve runs on its own copy; the join loop charges it
  /// cumulatively.
  ResourceBudget *Budget = nullptr;
  /// Observability sink: "dynamic.*" spans/counters here, "partition.*"
  /// from the solves underneath.
  TraceContext Observe;
  /// Supervision of the initial per-nest solves (support/Supervisor.h):
  /// total attempts per solve task and an optional per-attempt wall-clock
  /// deadline (0 = none). A solve whose every attempt fails with an
  /// escaped exception degrades to the trivial partition of its nest.
  unsigned TaskAttempts = 2;
  uint64_t TaskDeadlineMs = 0;
};

/// Runs the dynamic decomposition over all leaf nests of \p P.
DynamicResult
runDynamicDecomposition(const Program &P, const CostModel &CM,
                        const DynamicDecomposerOptions &Opts = {});

/// The faithful Sec. 6.4 multi-level variant: every structure context
/// (sequential-loop body, branch arm) runs the Single_Level greedy
/// bottom-up; the partitions found at each level seed the next, and an
/// array whose decomposition differs across a level's components is
/// split (stops seeding). The outermost level over all nests produces the
/// result. For programs whose structure tree is flat the two variants
/// coincide.
DynamicResult
runMultiLevelDynamicDecomposition(const Program &P, const CostModel &CM,
                                  const DynamicDecomposerOptions &Opts = {});

} // namespace alp

#endif // ALP_CORE_DYNAMICDECOMPOSER_H
