//===- machine/NumaSimulator.h - DASH-like NUMA simulator -------*- C++ -*-===//
///
/// \file
/// A performance simulator for a DASH-style cache-coherent NUMA machine
/// (Lenoski et al. [26]): clusters of processors share a local memory;
/// an access costs 1 cycle in cache, ~29 cycles in local cluster memory,
/// and 100-130 cycles in a remote cluster. Array pages live on the cluster
/// chosen by the placement policy (decomposition-driven blocks or
/// first-touch-style linear fill).
///
/// This is the substitution for the paper's Stanford DASH hardware: the
/// experiments of Figure 7 depend only on these published latency ratios,
/// the page placement policy, and the synchronization structure, all of
/// which are modeled. Execution is simulated at inner-loop *segment*
/// granularity, and a segment costs O(1) on the common path: everything
/// that stays fixed within a nest (integer array extents, each access's
/// placement, block size and line stride, the access maps and loop bounds
/// normalized to integer coefficients) is prepared once per nest, so a
/// segment's start is one checked integer dot product. A segment within
/// one home cluster is costed in closed form (lines touched x home latency
/// + cache hits); one that crosses clusters is split at the ownership
/// boundaries -- by division for blocked placements, by binary search on
/// the monotone home for linear fill -- so it costs O(clusters), not
/// O(lines); only a linear-fill access whose strides mix signs still walks
/// its lines. The second-innermost loop is costed in runs: a stretch of
/// its values whose segments lie on one home (or split alike) is costed
/// once, where the sums are provably the exact ones of costing each
/// segment (docs/SIMULATOR.md, "The 2^53 rule"). Nests run either
/// sequentially, as forall (max over processors plus a barrier), or
/// software-pipelined over blocks with point-to-point synchronization
/// (Sec. 5's doacross).
///
//===----------------------------------------------------------------------===//

#ifndef ALP_MACHINE_NUMASIMULATOR_H
#define ALP_MACHINE_NUMASIMULATOR_H

#include "core/CostModel.h"
#include "core/Decomposition.h"
#include "ir/Program.h"
#include "machine/CommSchedule.h"
#include "support/SmallVec.h"
#include "support/Trace.h"

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace alp {

/// Where an array's pages live.
struct ArrayPlacement {
  enum class Kind {
    BlockedDim,   ///< Blocks along one array dimension across clusters.
    LinearFill,   ///< First-touch-like: pages fill clusters in address
                  ///< order, spilling to the next cluster when one fills.
    Replicated    ///< Every cluster holds a copy (read-only data).
  };
  Kind PKind = Kind::BlockedDim;
  unsigned Dim = 0; ///< For BlockedDim.

  static ArrayPlacement blockedDim(unsigned Dim) {
    return {Kind::BlockedDim, Dim};
  }
  static ArrayPlacement linearFill() { return {Kind::LinearFill, 0}; }
  static ArrayPlacement replicated() { return {Kind::Replicated, 0}; }

  bool operator==(const ArrayPlacement &RHS) const {
    return PKind == RHS.PKind && Dim == RHS.Dim;
  }
  bool operator!=(const ArrayPlacement &RHS) const { return !(*this == RHS); }
};

/// How one nest executes.
struct NestSchedule {
  enum class Mode { Sequential, Forall, Pipelined, Wavefront2D };

  Mode ExecMode = Mode::Sequential;
  /// Loop whose iterations are block-distributed across processors.
  unsigned DistLoop = 0;
  /// Pipelined: loop split into blocks with cross-processor
  /// synchronization at block boundaries. Wavefront2D: the second
  /// distributed loop (processors form a 2-d grid over DistLoop x
  /// PipeLoop and execute the blocks along anti-diagonal wavefronts,
  /// Figure 3(b) -- the layout with pipeline-fill idle processors).
  unsigned PipeLoop = 0;
  int64_t BlockSize = 4;
};

/// Aggregate counters from one simulation.
struct SimResult {
  double Cycles = 0.0;
  double ComputeCycles = 0.0;
  double MemoryCycles = 0.0;
  double ReorgCycles = 0.0;
  double SyncCycles = 0.0;
  double CacheAccesses = 0.0;
  double LocalLineFetches = 0.0;
  double RemoteLineFetches = 0.0;
  /// Messages sent in message-passing mode: one per remote line under
  /// fine-grained access, amortized for bulk transfers, or the planned
  /// schedule's bulk messages when a CommSchedule is installed. Zero on
  /// shared-address-space machines.
  double MessagesSent = 0.0;

  std::string str() const;

  /// Publishes this result into \p MR as "sim.*" gauges (cycle totals are
  /// model outputs, not cross-jobs-deterministic counters).
  void publishTo(MetricsRegistry &MR) const;
};

/// The simulator. Configure placements and schedules, then run.
class NumaSimulator {
public:
  NumaSimulator(const Program &P, const MachineParams &M);

  /// Sets the placement an array should have while executing nest
  /// \p NestId; the simulator reorganizes (with cost) when consecutive
  /// nests disagree. A missing entry means "whatever it currently is".
  void setPlacement(unsigned ArrayId, unsigned NestId,
                    ArrayPlacement Placement);
  /// Sets the placement for an array in every nest (static layout).
  void setStaticPlacement(unsigned ArrayId, ArrayPlacement Placement);
  /// Sets the initial layout (before the first nest runs) without
  /// scheduling a reorganization.
  void setInitialPlacement(unsigned ArrayId, ArrayPlacement Placement);

  void setSchedule(unsigned NestId, NestSchedule Schedule);

  /// Installs a planned communication schedule (CommPlan::schedule()).
  /// In message-passing mode the simulator then costs the planned bulk
  /// messages — remote lines move at the hardware rate and the software
  /// overhead is paid per planned message — instead of charging the
  /// per-message overhead on every fine-grained remote line.
  void setCommSchedule(CommSchedule Schedule);

  /// The machine this simulator was built for (single source of truth
  /// for the block size threaded through schedule derivation).
  const MachineParams &machine() const { return M; }

  /// Observability sink: a "sim.run" span per run() (Detail = processor
  /// count), "sim.runs" / "sim.reorganizations" / "sim.segments" (segments
  /// and runs costed) counters, and the last run's SimResult as "sim.*"
  /// gauges.
  void setObserve(TraceContext Observe) { this->Observe = Observe; }

  /// Everything the setters above installed.
  struct Config {
    std::map<std::pair<unsigned, unsigned>, ArrayPlacement> PlacementAt;
    std::map<unsigned, ArrayPlacement> InitialPlacement;
    std::map<unsigned, NestSchedule> Schedules;
    CommSchedule CommSched;
  };
  const Config &config() const { return Cfg; }

  /// Runs the whole program once with \p NumProcs active processors
  /// (capped at the machine's processor count).
  SimResult run(unsigned NumProcs);

  /// Sequential baseline: every nest on one processor with all data local
  /// (the "best sequential version" the paper's speedups are relative to).
  double sequentialCycles();

private:
  const Program &P;
  MachineParams M;
  TraceContext Observe;
  Config Cfg;

  /// Integer extents of one array under the current symbol bindings.
  struct ArrayShape {
    bool Valid = false;
    SmallVec<int64_t, 4> Extents; ///< max(floor(extent), 1) per dimension.
    double Elems = 1.0;           ///< Product of the extents (each >= 1).
  };

  struct RunState {
    unsigned Procs = 1;
    bool AllLocal = false; ///< Sequential-baseline mode.
    /// True when a planned CommSchedule drives message-passing costs:
    /// remote lines move at the hardware rate (the plan's bulk messages
    /// carry the software overhead) and per-line message counting is off.
    bool PlannedComm = false;
    std::map<unsigned, ArrayPlacement> Current;
    std::map<std::string, Rational> Bindings;
    /// Indexed by array id; filled lazily, invalidated by rebind().
    std::vector<ArrayShape> Shapes;
    SimResult Res;
    /// Segments and runs costed, both arms of every branch included.
    uint64_t Segments = 0;
  };

  /// Per-nest costing data (defined in NumaSimulator.cpp).
  struct AccessPlan;
  struct NestPlan;

  unsigned clusterOfProc(unsigned Proc) const;

  /// Marks every cached ArrayShape stale; call after S.Bindings changes.
  static void rebind(RunState &S);
  /// The shape of \p ArrayId under S.Bindings, computed on first use.
  const ArrayShape &shapeOf(unsigned ArrayId, RunState &S) const;

  /// Prepares \p Nest for costing under the current bindings, placements
  /// and processor count.
  NestPlan planNest(const LoopNest &Nest, RunState &S) const;

  /// Cost of a contiguous innermost segment of \p Length > 0 accesses of
  /// \p A starting at array index \p Start, issued by \p Proc. Updates
  /// line/cache counters.
  double segmentCost(unsigned Proc, const AccessPlan &A,
                     const int64_t *Start, int64_t Length, RunState &S) const;

  /// Costs loop Depth-2 over [XLo, XHi], with the outer loops fixed in
  /// \p Outer and the innermost loop clipped to [RangeLo, RangeHi], in
  /// runs: per access, a maximal stretch of x whose segments all lie on one
  /// home, or (blocked placement) all split alike, is costed once times
  /// its length; a triangular innermost range is cut where a bound term
  /// takes over, and its line counts are summed by a floor sum. Adds the
  /// cost to \p Total and the counters of \p S and returns true only when
  /// every sum is provably the exact value the value-by-value walk
  /// accumulates (exactSum); otherwise it changes nothing and returns
  /// false. It raises an overflow only where that walk would.
  bool costRuns(unsigned Proc, const NestPlan &Plan, int64_t *Outer,
                int64_t XLo, int64_t XHi, int64_t RangeLo, int64_t RangeHi,
                RunState &S, double &Total) const;

  /// Cost of executing the iteration sub-range of a nest assigned to
  /// \p Proc where loop \p Level ranges only over [Lo, Hi]. Ranges for
  /// unmentioned loops come from the bounds. The loops outside Depth-2 are
  /// walked value by value; loop Depth-2 goes to costRuns and, where that
  /// declines, is walked value by value too, one segment per access and
  /// value, in the order that fixes the floating-point sums.
  struct LoopRange {
    unsigned Level;
    int64_t Lo, Hi;
  };
  double chunkCost(unsigned Proc, const NestPlan &Plan,
                   std::initializer_list<LoopRange> Ranges,
                   RunState &S) const;

  void runNodes(const std::vector<ProgramNode> &Nodes, RunState &S);
  void runNest(unsigned NestId, RunState &S);
  void reorganizeIfNeeded(unsigned NestId, RunState &S);
  /// Planned-mode software cost of the nest's scheduled messages.
  void plannedNestComm(unsigned NestId, RunState &S) const;
};

} // namespace alp

#endif // ALP_MACHINE_NUMASIMULATOR_H
