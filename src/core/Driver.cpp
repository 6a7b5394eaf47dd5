//===- core/Driver.cpp - End-to-end decomposition pipeline -------------------===//

#include "core/Driver.h"

#include "core/DisplacementSolver.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/FailPoint.h"
#include "transform/Unimodular.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

using namespace alp;

namespace {

/// Injection site at the head of the whole pipeline: a fault here has no
/// stage fallback, so it must surface as a clean error Status from
/// decomposeOrError (never a crash).
FailPoint FpDriverPipeline("driver.pipeline");

} // namespace

Expected<ProgramDecomposition>
alp::decomposeOrError(Program &P, const MachineParams &Machine,
                      const DriverOptions &Opts) {
  ProgramDecomposition PD;
  // Snapshot the process-wide allocation accounting so the run can publish
  // its own deltas: linalg.allocs counts heap spills of linalg containers
  // (zero in steady state once arena blocks are warm), linalg.arena_bytes
  // the scratch traffic the arenas absorbed instead.
  const uint64_t HeapSpillsBefore = containerHeapSpills();
  const uint64_t ArenaBytesBefore = arenaBytesAllocated();
  // Per-run budget copy: fresh counters, caller's limits. Arm the
  // deadline before the supervised stages copy the budget (Budget.h
  // contract).
  ResourceBudget Budget = Opts.Budget;
  if (Opts.DeadlineMs)
    Budget.setDeadlineIn(std::chrono::milliseconds(Opts.DeadlineMs));
  // One projection cache for the whole run.
  DependenceCache SharedCache;
  const TraceContext &Observe = Opts.Observe;
  TraceSpan PipelineSpan(Observe.Trace, "driver.decompose");

  try {

  FpDriverPipeline.evaluateOrThrow(&Budget);

  if (Opts.RunLocalPhase) {
    TraceSpan Span(Observe.Trace, "driver.local_phase");
    std::vector<std::string> LPWarnings;
    LocalPhaseOptions LPOpts;
    LPOpts.SharedCache = &SharedCache;
    LPOpts.Observe = Observe;
    LPOpts.TaskAttempts = Opts.TaskAttempts;
    LPOpts.TaskDeadlineMs = Opts.TaskDeadlineMs;
    runLocalPhase(P, &Budget, &LPWarnings, LPOpts);
    for (const std::string &W : LPWarnings)
      PD.Degradations.push_back({W.rfind("local phase", 0) == 0
                                     ? Degradation::Stage::LocalPhase
                                     : Degradation::Stage::Dependence,
                                 W});
  }

  CostModel CM(P, Machine);
  DynamicDecomposerOptions DynOpts;
  DynOpts.UseBlocking = Opts.EnableBlocking;
  DynOpts.Policy = Opts.Policy;
  DynOpts.ExcludeReadOnly = Opts.EnableReplication;
  DynOpts.Budget = &Budget;
  DynOpts.Observe = Observe;
  DynOpts.TaskAttempts = Opts.TaskAttempts;
  DynOpts.TaskDeadlineMs = Opts.TaskDeadlineMs;
  DynamicResult DR = [&] {
    TraceSpan Span(Observe.Trace, "driver.dynamic_decomposition");
    return Opts.MultiLevel
               ? runMultiLevelDynamicDecomposition(P, CM, DynOpts)
               : runDynamicDecomposition(P, CM, DynOpts);
  }();

  PD.ComponentOf = DR.ComponentOf;
  // Supervision events from the dynamic phase (abandoned joins, retried
  // initial solves) are degradations of the Partition stage: the answer
  // is valid but not provably the fault-free one.
  for (const std::string &W : DR.Warnings)
    PD.Degradations.push_back({Degradation::Stage::Partition, W});

  // Cross-component orientation matching: components processed in
  // decreasing total-work order seed preferences for later ones.
  std::set<unsigned> Roots;
  for (const auto &[Nest, Root] : DR.ComponentOf)
    Roots.insert(Root);
  std::vector<unsigned> RootOrder(Roots.begin(), Roots.end());
  std::stable_sort(RootOrder.begin(), RootOrder.end(),
                   [&](unsigned A, unsigned B) {
                     auto Work = [&](unsigned Root) {
                       double W = 0;
                       for (unsigned N : DR.nestsOfComponent(Root))
                         W += CM.nestWork(N);
                       return W;
                     };
                     return Work(A) > Work(B);
                   });

  // Arrays written anywhere: never replicable, and never excluded from a
  // component's partition solve (a locally-read-only array written in
  // another component still constrains the layout).
  std::set<unsigned> GlobalWritten;
  for (const LoopNest &Nest : P.Nests)
    for (unsigned A : Nest.referencedArrays())
      if (Nest.writesArray(A))
        GlobalWritten.insert(A);

  OrientationOptions OOpts = Opts.Orientation;
  OOpts.Budget = &Budget;
  OOpts.Observe = Observe;
  for (unsigned Root : RootOrder) {
    TraceSpan ComponentSpan(Observe.Trace, "driver.component",
                            static_cast<int64_t>(Root));
    std::vector<unsigned> Nests = DR.nestsOfComponent(Root);
    PartitionResult Parts = DR.Partitions[Root];
    if (Parts.Degraded)
      PD.Degradations.push_back({Degradation::Stage::Partition,
                                 "component " + std::to_string(Root) + ": " +
                                     Parts.DegradeReason});

    // Replication: re-solve the partitions without read-only arrays so
    // they cannot constrain parallelism, then derive their kernels from
    // the computation partitions (Sec. 7.2).
    InterferenceGraph FullIG(P, Nests, /*IncludeReadOnly=*/true);
    if (Opts.EnableReplication) {
      TraceSpan Span(Observe.Trace, "driver.replication_resolve",
                     static_cast<int64_t>(Root));
      InterferenceGraph WriteIG(P, Nests, /*IncludeReadOnly=*/false,
                                &GlobalWritten);
      PartitionOptions POpts = Opts.Partition;
      POpts.Budget = &Budget;
      POpts.Observe = Observe;
      PartitionResult WriteParts =
          Opts.EnableBlocking ? solvePartitionsWithBlocks(WriteIG, POpts)
                              : solvePartitions(WriteIG, POpts);
      if (WriteParts.Degraded)
        PD.Degradations.push_back(
            {Degradation::Stage::Replication,
             "component " + std::to_string(Root) +
                 ": write-only re-solve degraded, replication skipped (" +
                 WriteParts.DegradeReason + ")"});
      // Keep the write-only solve only if it exposes at least as much
      // parallelism (it should; the constraints are a subset).
      if (!WriteParts.Degraded &&
          WriteParts.totalParallelism() >= Parts.totalParallelism())
        Parts = WriteParts;
    }
    // Fill in arrays the kept partition never saw via Eqn. 5 (and Lc for
    // blocked dims). With replication enabled both candidate solves ran on
    // a write-only graph, so read-only arrays are absent even when the
    // re-solve degraded and was discarded; orientation needs every array
    // of the full graph to have a kernel.
    for (unsigned A : FullIG.arrays()) {
      if (Parts.DataKernel.count(A))
        continue;
      VectorSpace Kernel(P.array(A).rank());
      VectorSpace Localized(P.array(A).rank());
      for (const InterferenceEdge *E : FullIG.edgesOfArray(A))
        for (const AffineAccessMap &M : E->Accesses) {
          Kernel.unionWith(
              Parts.CompKernel[E->NestId].imageUnder(M.linear()));
          Localized.unionWith(
              Parts.CompLocalized[E->NestId].imageUnder(M.linear()));
        }
      Parts.DataKernel[A] = Kernel;
      Parts.DataLocalized[A] = Localized;
    }

    OrientationResult Orient = solveOrientations(FullIG, Parts, OOpts);
    if (Orient.Degraded) {
      // Degraded components carry zero matrices; widen the matching
      // kernels to the full space so ker C / ker D stay consistent.
      for (auto &[N, C] : Orient.C)
        if (C.isZero() && Parts.CompKernel.count(N)) {
          Parts.CompKernel[N] = VectorSpace::full(C.cols());
          Parts.CompLocalized[N] = Parts.CompKernel[N];
        }
      for (auto &[A, D] : Orient.D)
        if (D.isZero() && Parts.DataKernel.count(A)) {
          Parts.DataKernel[A] = VectorSpace::full(D.cols());
          Parts.DataLocalized[A] = Parts.DataKernel[A];
        }
      for (const std::string &W : Orient.Warnings)
        PD.Degradations.push_back({Degradation::Stage::Orientation,
                                   "component " + std::to_string(Root) +
                                       ": " + W});
    }
    if (Opts.EnableIdleProjection) {
      TraceSpan Span(Observe.Trace, "driver.projection",
                     static_cast<int64_t>(Root));
      try {
        unsigned NPrime = reducedVirtualDims(FullIG, Parts);
        if (NPrime < Orient.VirtualDims && NPrime > 0) {
          projectProcessorSpace(Orient, NPrime);
          Observe.count("driver.projections_applied");
        }
      } catch (const AlpException &E) {
        PD.Degradations.push_back({Degradation::Stage::Projection,
                                   "component " + std::to_string(Root) +
                                       ": projection skipped (" +
                                       E.status().str() + ")"});
      }
    }
    DisplacementResult Disp;
    TraceSpan DispSpan(Observe.Trace, "driver.displacement",
                       static_cast<int64_t>(Root));
    try {
      Disp = solveDisplacements(FullIG, Orient);
    } catch (const AlpException &E) {
      Disp = DisplacementResult(); // Zero displacements: legal, just more
                                   // nearest-neighbor communication.
      PD.Degradations.push_back({Degradation::Stage::Displacement,
                                 "component " + std::to_string(Root) +
                                     ": zero displacements (" +
                                     E.status().str() + ")"});
    }
    DispSpan.finish();

    // Replication degrees (after projection so n is final).
    if (Opts.EnableReplication) {
      TraceSpan Span(Observe.Trace, "driver.replication_analysis",
                     static_cast<int64_t>(Root));
      try {
        for (const ReplicationInfo &RI :
             analyzeReplication(FullIG, Parts, Orient)) {
          if (RI.Degree > 0 && !GlobalWritten.count(RI.ArrayId))
            PD.ReplicatedDims[RI.ArrayId] =
                std::max(PD.ReplicatedDims[RI.ArrayId], RI.Degree);
        }
      } catch (const AlpException &E) {
        PD.Degradations.push_back({Degradation::Stage::Replication,
                                   "component " + std::to_string(Root) +
                                       ": replication analysis skipped (" +
                                       E.status().str() + ")"});
      }
    }

    PD.VirtualDims = std::max(PD.VirtualDims, Orient.VirtualDims);

    // Record per-nest computation decompositions.
    for (unsigned N : Nests) {
      CompDecomposition CD;
      CD.C = Orient.C.count(N) ? Orient.C[N]
                               : Matrix::zero(Orient.VirtualDims,
                                              P.nest(N).depth());
      CD.Gamma = Disp.Gamma.count(N) ? Disp.Gamma[N]
                                     : SymVector(CD.C.rows());
      CD.Kernel = Parts.CompKernel.count(N)
                      ? Parts.CompKernel[N]
                      : VectorSpace::full(P.nest(N).depth());
      CD.Localized =
          Parts.CompLocalized.count(N) ? Parts.CompLocalized[N] : CD.Kernel;
      PD.Comp[N] = std::move(CD);
    }
    // Record per-(array, nest) data decompositions.
    for (unsigned N : Nests)
      for (unsigned A : P.nest(N).referencedArrays()) {
        DataDecomposition DD;
        DD.D = Orient.D.count(A)
                   ? Orient.D[A]
                   : Matrix::zero(Orient.VirtualDims, P.array(A).rank());
        DD.Delta =
            Disp.Delta.count(A) ? Disp.Delta[A] : SymVector(DD.D.rows());
        DD.Kernel = Parts.DataKernel.count(A)
                        ? Parts.DataKernel[A]
                        : VectorSpace::full(P.array(A).rank());
        DD.Localized =
            Parts.DataLocalized.count(A) ? Parts.DataLocalized[A] : DD.Kernel;
        PD.Data[{A, N}] = std::move(DD);
      }

    // Seed orientation preferences for later components.
    for (const auto &[A, D] : Orient.D)
      OOpts.PreferredD.emplace(A, D);
  }

  // Remaining reorganization communication: the cut edges, per array.
  for (const CommEdge &E : DR.CutEdges)
    for (const auto &[ArrayId, Cost] : E.PerArray) {
      ReorganizationPoint RP;
      RP.ArrayId = ArrayId;
      RP.FromNest = E.U;
      RP.ToNest = E.V;
      RP.CostCycles = Cost;
      RP.Frequency = 1.0; // Cost already includes the frequency weight.
      PD.Reorganizations.push_back(RP);
    }

  } catch (const AlpException &E) {
    // A failure outside any stage's fallback (e.g. overflow in the cost
    // model or the communication graph): no sound partial answer exists.
    return E.status();
  } catch (const std::exception &E) {
    // Anything else escaping the pipeline is a library defect, but the
    // fail-soft contract still holds at this boundary: report an error
    // instead of crashing the host.
    return Status::error(StatusCode::Unsolvable,
                         std::string("internal error: ") + E.what());
  }

  Observe.count("driver.components",
                [&] {
                  std::set<unsigned> Roots;
                  for (const auto &[Nest, Root] : PD.ComponentOf)
                    Roots.insert(Root);
                  return Roots.size();
                }());
  Observe.count("driver.degradations", PD.Degradations.size());
  Observe.count("driver.reorganizations", PD.Reorganizations.size());
  if (Observe.Metrics) {
    SharedCache.stats().publishTo(*Observe.Metrics);
    // The run budget's consumed counters only see serially charged work
    // (parallel tasks run on private copies), but even so they are wall
    // and scheduling facts of this run — gauges, not counters.
    Observe.gauge("budget.used_elimination_steps",
                  static_cast<double>(Budget.UsedEliminationSteps.load(
                      std::memory_order_relaxed)));
    Observe.gauge("budget.used_solver_iterations",
                  static_cast<double>(Budget.UsedSolverIterations.load(
                      std::memory_order_relaxed)));
    // Gauges, not counters: how much scratch a run allocates depends on
    // how warm the thread's arena blocks already are, so the values are
    // facts of this run rather than deterministic payload.
    Observe.gauge("linalg.allocs", static_cast<double>(containerHeapSpills() -
                                                       HeapSpillsBefore));
    Observe.gauge("linalg.arena_bytes",
                  static_cast<double>(arenaBytesAllocated() -
                                      ArenaBytesBefore));
  }
  return PD;
}

std::string alp::printDecomposition(const Program &P,
                                    const ProgramDecomposition &PD) {
  std::ostringstream OS;
  OS << "decomposition of '" << P.Name << "' onto a " << PD.VirtualDims
     << "-d virtual processor space\n";
  for (const auto &[NestId, CD] : PD.Comp) {
    OS << "  nest " << NestId << " (component "
       << (PD.ComponentOf.count(NestId) ? PD.ComponentOf.at(NestId) : NestId)
       << "): C = " << CD.C.str() << ", gamma = " << CD.Gamma.str()
       << ", ker C = " << CD.Kernel.str();
    if (CD.isBlocked())
      OS << ", Lc = " << CD.Localized.str() << " [blocked]";
    OS << '\n';
  }
  std::set<std::pair<unsigned, std::string>> Printed;
  for (const auto &[Key, DD] : PD.Data) {
    auto [ArrayId, NestId] = Key;
    std::string Desc = DD.str();
    if (!Printed.insert({ArrayId, Desc}).second)
      continue;
    OS << "  array " << P.array(ArrayId).Name << " @nest " << NestId
       << ": D = " << DD.D.str() << ", delta = " << DD.Delta.str()
       << ", ker D = " << DD.Kernel.str();
    if (DD.isBlocked())
      OS << ", Ld = " << DD.Localized.str() << " [blocked]";
    if (PD.ReplicatedDims.count(ArrayId))
      OS << ", replicated along " << PD.ReplicatedDims.at(ArrayId)
         << " dim(s)";
    OS << '\n';
  }
  if (PD.Reorganizations.empty()) {
    OS << "  static: no reorganization communication\n";
  } else {
    for (const ReorganizationPoint &RP : PD.Reorganizations)
      OS << "  reorganize " << P.array(RP.ArrayId).Name << " between nest "
         << RP.FromNest << " and nest " << RP.ToNest << " (cost "
         << RP.CostCycles << " cycles)\n";
  }
  return OS.str();
}
