//===- core/DynamicDecomposer.cpp - Dynamic decompositions (Sec. 6) ----------===//

#include "core/DynamicDecomposer.h"

#include "support/FailPoint.h"
#include "support/Supervisor.h"

#include <algorithm>
#include <functional>
#include <set>

using namespace alp;

namespace {

/// Injection site at the head of every greedy join attempt; a fault
/// abandons the join (conservative: the components stay apart, the edge
/// stays cut) and is recorded in the result's warning ledger.
FailPoint FpDynamicJoin("core.dynamic.join");

} // namespace

std::vector<unsigned> DynamicResult::nestsOfComponent(unsigned Comp) const {
  std::vector<unsigned> Out;
  for (const auto &[Nest, C] : ComponentOf)
    if (C == Comp)
      Out.push_back(Nest);
  return Out;
}

std::vector<CommEdge> alp::buildCommGraph(const Program &P,
                                          const CostModel &CM) {
  std::map<std::pair<unsigned, unsigned>, CommEdge> Edges;
  for (const ArrayFlowEdge &E : computeArrayFlowEdges(P)) {
    if (E.FromNest == E.ToNest)
      continue; // A nest always matches its own decomposition.
    unsigned U = std::min(E.FromNest, E.ToNest);
    unsigned V = std::max(E.FromNest, E.ToNest);
    CommEdge &CE = Edges[{U, V}];
    CE.U = U;
    CE.V = V;
    double Cost = CM.reorganizationCost(E.ArrayId) * E.Frequency;
    CE.Weight += Cost;
    CE.PerArray[E.ArrayId] += Cost;
  }
  std::vector<CommEdge> Out;
  for (auto &[Key, CE] : Edges)
    Out.push_back(std::move(CE));
  return Out;
}

namespace {

/// Arrays written anywhere in the program (kept in every solve even when
/// read-only data is excluded for replication).
std::set<unsigned> globallyWritten(const Program &P) {
  std::set<unsigned> Written;
  for (const LoopNest &Nest : P.Nests)
    for (unsigned A : Nest.referencedArrays())
      if (Nest.writesArray(A))
        Written.insert(A);
  return Written;
}

/// The Single_Level greedy of Figure 6: joins components of \p Nests along
/// \p Edges (already restricted to the level) in decreasing weight order
/// whenever the re-solved partition of the union improves the graph value.
DynamicResult greedyJoin(const Program &P, const CostModel &CM,
                         const std::vector<unsigned> &Nests,
                         std::vector<CommEdge> Edges,
                         const DynamicDecomposerOptions &DOpts,
                         const std::set<unsigned> &GlobalWritten,
                         const PartitionOptions &Seeds) {
  ResourceBudget *Budget = DOpts.Budget;
  DynamicResult R;

  auto SolveWith = [&](const std::vector<unsigned> &Ids,
                       ResourceBudget *B) {
    InterferenceGraph IG(P, Ids,
                         /*IncludeReadOnly=*/!DOpts.ExcludeReadOnly,
                         &GlobalWritten);
    PartitionOptions Opts = Seeds;
    Opts.Budget = B;
    Opts.Observe = DOpts.Observe;
    return DOpts.UseBlocking ? solvePartitionsWithBlocks(IG, Opts)
                             : solvePartitions(IG, Opts);
  };

  // Union-find over nests, on a flat array indexed by nest id (ids are
  // bounded by the program's nest count). Find is on the inner loop of
  // every join evaluation, so it stays free of map lookups and type-erased
  // calls.
  unsigned MaxNest = 0;
  for (unsigned N : Nests)
    MaxNest = std::max(MaxNest, N);
  std::vector<unsigned> Parent(MaxNest + 1);
  for (unsigned N : Nests)
    Parent[N] = N;
  auto Find = [&Parent](unsigned X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  auto Members = [&](unsigned Root) {
    std::vector<unsigned> Out;
    for (unsigned N : Nests)
      if (Find(N) == Root)
        Out.push_back(N);
    return Out;
  };

  // Initial per-nest partitions and benefits, supervised: each solve
  // attempt runs on a private copy of the budget, and results land in
  // nest order.
  std::vector<PartitionResult> Initial(Nests.size());
  {
    TraceSpan InitSpan(DOpts.Observe.Trace, "dynamic.initial_solves");
    SupervisorOptions SOpts;
    SOpts.MaxAttempts = DOpts.TaskAttempts;
    SOpts.TaskDeadlineMs = DOpts.TaskDeadlineMs;
    SOpts.Observe = DOpts.Observe;
    Supervisor Sup(nullptr, Budget, SOpts);
    std::vector<SupervisedOutcome> Outcomes =
        Sup.run(Nests.size(), [&](size_t I, ResourceBudget *B) {
          Initial[I] = PartitionResult(); // Fresh slate on retry.
          ResourceBudget *TaskBudget =
              Budget || DOpts.TaskDeadlineMs ? B : nullptr;
          Initial[I] = SolveWith({Nests[I]}, TaskBudget);
          return Status::ok();
        });
    for (size_t I = 0; I != Nests.size(); ++I) {
      const SupervisedOutcome &O = Outcomes[I];
      if (O.degraded()) {
        // Every attempt threw past the solver's own fallbacks (e.g. an
        // injected OOM building the interference graph): substitute the
        // trivial partition, which the per-component degradation
        // reporting downstream surfaces like any blown solve.
        InterferenceGraph IG(P, {Nests[I]},
                             /*IncludeReadOnly=*/!DOpts.ExcludeReadOnly,
                             &GlobalWritten);
        Initial[I] = trivialPartition(IG, O.Result);
      } else if (O.retried()) {
        R.Warnings.push_back("initial partition solve of nest " +
                             std::to_string(Nests[I]) + " " +
                             Supervisor::describe(O, I));
      }
    }
  }
  std::map<unsigned, PartitionResult> Parts;
  std::map<unsigned, double> Benefit;
  std::set<unsigned> Sequential; // Nests with zero parallelism even alone.
  for (unsigned I = 0; I != Nests.size(); ++I) {
    unsigned N = Nests[I];
    Parts[N] = std::move(Initial[I]);
    Benefit[N] = CM.totalBenefit(Parts[N]);
    if (Parts[N].totalParallelism() == 0)
      Sequential.insert(N);
  }

  std::stable_sort(Edges.begin(), Edges.end(),
                   [](const CommEdge &A, const CommEdge &B) {
                     return A.Weight > B.Weight;
                   });

  if (DOpts.Policy != JoinPolicy::NeverJoin) {
    // The join loop is sequential by nature: each accept changes the
    // components the next edge sees. Every trial solve runs inline on the
    // shared budget.
    TraceSpan JoinSpan(DOpts.Observe.Trace, "dynamic.join_loop");
    for (const CommEdge &E : Edges) {
      unsigned RU = Find(E.U), RV = Find(E.V);
      if (RU == RV)
        continue;
      // Purely sequential loops are components by themselves.
      if (Sequential.count(E.U) || Sequential.count(E.V))
        continue;
      // A fault abandons the join: components stay apart, the edge stays
      // cut — a valid (merely less joined) decomposition, recorded in the
      // ledger so it can never pass as the fault-free answer. The solver
      // degrades itself on budget/overflow; what escapes it is allocation
      // failure building the joined graph, answered the same way.
      auto Abandon = [&](const Status &Why) {
        DOpts.Observe.count("dynamic.joins_abandoned");
        R.Warnings.push_back("join of nests " + std::to_string(E.U) +
                             " and " + std::to_string(E.V) + " abandoned (" +
                             Why.str() + ")");
      };
      Status JoinFault = Status::ok();
      try {
        JoinFault = FpDynamicJoin.evaluate(Budget);
      } catch (...) {
        JoinFault = statusFromCurrentException();
      }
      if (!JoinFault) {
        Abandon(JoinFault);
        continue;
      }
      DOpts.Observe.count("dynamic.joins_attempted");
      std::vector<unsigned> Joined = Members(RU);
      std::vector<unsigned> MV = Members(RV);
      Joined.insert(Joined.end(), MV.begin(), MV.end());
      PartitionResult JP;
      try {
        JP = SolveWith(Joined, Budget);
      } catch (...) {
        Abandon(statusFromCurrentException());
        continue;
      }
      double JoinedBenefit = CM.totalBenefit(JP);
      // Cross-component reorganization cost eliminated by the join.
      double Saved = 0.0;
      for (const CommEdge &Other : Edges)
        if ((Find(Other.U) == RU && Find(Other.V) == RV) ||
            (Find(Other.U) == RV && Find(Other.V) == RU))
          Saved += Other.Weight;
      double Delta = JoinedBenefit - Benefit[RU] - Benefit[RV] + Saved;
      bool Accept = DOpts.Policy == JoinPolicy::ForceSingle || Delta > 0.0;
      if (!Accept)
        continue;
      DOpts.Observe.count("dynamic.joins_kept");
      Parent[RU] = RV;
      Parts[RV] = std::move(JP);
      Benefit[RV] = JoinedBenefit;
    }
  }

  // Gather components.
  for (unsigned N : Nests)
    R.ComponentOf[N] = Find(N);
  std::set<unsigned> Roots;
  for (unsigned N : Nests)
    Roots.insert(Find(N));
  double Value = 0.0;
  for (unsigned Root : Roots) {
    R.Partitions[Root] = Parts[Root];
    Value += Benefit[Root];
  }
  for (const CommEdge &E : Edges)
    if (Find(E.U) != Find(E.V)) {
      R.CutEdges.push_back(E);
      Value -= E.Weight;
    }
  R.Value = Value;
  return R;
}

} // namespace

namespace {

/// Final-result counters shared by both public drivers.
DynamicResult published(DynamicResult R, const TraceContext &Observe) {
  std::set<unsigned> Roots;
  for (const auto &[Nest, Root] : R.ComponentOf)
    Roots.insert(Root);
  Observe.count("dynamic.components", Roots.size());
  Observe.count("dynamic.cut_edges", R.CutEdges.size());
  return R;
}

} // namespace

DynamicResult
alp::runDynamicDecomposition(const Program &P, const CostModel &CM,
                             const DynamicDecomposerOptions &Opts) {
  return published(greedyJoin(P, CM, P.nestsInOrder(),
                              buildCommGraph(P, CM), Opts,
                              globallyWritten(P), PartitionOptions()),
                   Opts.Observe);
}

DynamicResult alp::runMultiLevelDynamicDecomposition(
    const Program &P, const CostModel &CM,
    const DynamicDecomposerOptions &Opts) {
  std::set<unsigned> GlobalWritten = globallyWritten(P);
  std::vector<CommEdge> AllEdges = buildCommGraph(P, CM);

  // Collect structure contexts (node lists) with their nesting depth:
  // each sequential-loop body and branch arm is one context; the top
  // level is the depth-0 context processed last (Sec. 6.4: "each nesting
  // level is examined in a bottom-up order").
  struct Context {
    const std::vector<ProgramNode> *Nodes;
    unsigned Depth;
  };
  std::vector<Context> Contexts;
  std::function<void(const std::vector<ProgramNode> &, unsigned)> Collect =
      [&](const std::vector<ProgramNode> &Nodes, unsigned Depth) {
        for (const ProgramNode &N : Nodes) {
          switch (N.NodeKind) {
          case ProgramNode::Kind::Nest:
            break;
          case ProgramNode::Kind::SequentialLoop:
            Contexts.push_back({&N.Children, Depth + 1});
            Collect(N.Children, Depth + 1);
            break;
          case ProgramNode::Kind::Branch:
            Contexts.push_back({&N.Children, Depth + 1});
            Contexts.push_back({&N.ElseChildren, Depth + 1});
            Collect(N.Children, Depth + 1);
            Collect(N.ElseChildren, Depth + 1);
            break;
          }
        }
      };
  Collect(P.TopLevel, 0);
  std::stable_sort(Contexts.begin(), Contexts.end(),
                   [](const Context &A, const Context &B) {
                     return A.Depth > B.Depth;
                   });

  // Leaves of a subtree.
  std::function<void(const std::vector<ProgramNode> &,
                     std::vector<unsigned> &)>
      Leaves = [&](const std::vector<ProgramNode> &Nodes,
                   std::vector<unsigned> &Out) {
        for (const ProgramNode &N : Nodes) {
          switch (N.NodeKind) {
          case ProgramNode::Kind::Nest:
            Out.push_back(N.NestId);
            break;
          case ProgramNode::Kind::SequentialLoop:
            Leaves(N.Children, Out);
            break;
          case ProgramNode::Kind::Branch:
            Leaves(N.Children, Out);
            Leaves(N.ElseChildren, Out);
            break;
          }
        }
      };

  // Bottom-up: partitions found at each level seed the next; an array
  // whose decomposition differs across a level's components is "split"
  // and stops seeding (the paper's array-node splitting).
  PartitionOptions Seeds;
  std::set<unsigned> SplitArrays;
  std::vector<std::string> InnerWarnings;
  for (const Context &Ctx : Contexts) {
    std::vector<unsigned> Nests;
    Leaves(*Ctx.Nodes, Nests);
    if (Nests.size() < 2)
      continue;
    std::set<unsigned> InCtx(Nests.begin(), Nests.end());
    std::vector<CommEdge> Local;
    for (const CommEdge &E : AllEdges)
      if (InCtx.count(E.U) && InCtx.count(E.V))
        Local.push_back(E);
    DynamicResult LR = greedyJoin(P, CM, Nests, std::move(Local), Opts,
                                  GlobalWritten, Seeds);
    // Inner-level supervision events must survive into the final ledger.
    for (std::string &W : LR.Warnings)
      InnerWarnings.push_back(std::move(W));
    // Seed computation partitions.
    for (const auto &[Root, Parts] : LR.Partitions)
      for (const auto &[NestId, Kernel] : Parts.CompKernel) {
        (void)Root;
        auto [It, New] = Seeds.SeedComp.emplace(NestId, Kernel);
        if (!New)
          It->second.unionWith(Kernel);
      }
    // Seed data partitions for unsplit arrays only.
    std::map<unsigned, std::vector<VectorSpace>> PerArray;
    for (const auto &[Root, Parts] : LR.Partitions) {
      (void)Root;
      for (const auto &[ArrayId, Kernel] : Parts.DataKernel)
        PerArray[ArrayId].push_back(Kernel);
    }
    for (const auto &[ArrayId, Kernels] : PerArray) {
      bool AllEqual = true;
      for (const VectorSpace &K : Kernels)
        AllEqual &= K == Kernels.front();
      if (!AllEqual || SplitArrays.count(ArrayId)) {
        SplitArrays.insert(ArrayId);
        Seeds.SeedData.erase(ArrayId);
        continue;
      }
      auto [It, New] = Seeds.SeedData.emplace(ArrayId, Kernels.front());
      if (!New)
        It->second.unionWith(Kernels.front());
    }
  }

  // Final level: the whole program, seeded from below.
  DynamicResult R = greedyJoin(P, CM, P.nestsInOrder(), std::move(AllEdges),
                               Opts, GlobalWritten, Seeds);
  R.Warnings.insert(R.Warnings.begin(),
                    std::make_move_iterator(InnerWarnings.begin()),
                    std::make_move_iterator(InnerWarnings.end()));
  return published(std::move(R), Opts.Observe);
}
