//===- tests/ReferenceSimulator.cpp - Line-walking simulator oracle ------===//
//
// The reference costing: access maps and loop bounds evaluated in exact
// Rational arithmetic for every segment, and a segment that crosses
// clusters walked one cache line at a time. SimulatorEquivalenceTest
// compares NumaSimulator against it field for field, so it is not to be
// optimized: its directness is the point.
//
//===----------------------------------------------------------------------===//

#include "ReferenceSimulator.h"

#include <algorithm>
#include <cmath>
#include <functional>

using namespace alp;

ReferenceSimulator::ReferenceSimulator(const Program &P,
                                       const MachineParams &M,
                                       const NumaSimulator::Config &Cfg)
    : P(P), M(M), Cfg(Cfg) {}

unsigned ReferenceSimulator::clusterOfProc(unsigned Proc) const {
  return Proc / std::max(1u, M.ProcsPerCluster);
}

//===----------------------------------------------------------------------===//
// Bounds and placement
//===----------------------------------------------------------------------===//

namespace {

int64_t ceilDiv(int64_t A, int64_t B) {
  return A >= 0 ? (A + B - 1) / B : -((-A) / B);
}

int64_t rationalFloor(const Rational &R) {
  int64_t Q = R.num() / R.den();
  if (R.num() % R.den() != 0 && R.num() < 0)
    --Q;
  return Q;
}

int64_t rationalCeil(const Rational &R) {
  int64_t Q = R.num() / R.den();
  if (R.num() % R.den() != 0 && R.num() > 0)
    ++Q;
  return Q;
}

} // namespace

std::pair<int64_t, int64_t>
ReferenceSimulator::loopBounds(const LoopNest &Nest, unsigned Level,
                          const std::vector<int64_t> &Outer,
                          const RunState &S) const {
  Vector Iter(Nest.depth());
  for (unsigned I = 0; I != Nest.depth() && I < Outer.size(); ++I)
    Iter[I] = Rational(Outer[I]);
  int64_t Lo = INT64_MIN, Hi = INT64_MAX;
  for (const BoundTerm &T : Nest.Loops[Level].Lower)
    Lo = std::max(Lo, rationalCeil(T.evaluate(Iter, S.Bindings)));
  for (const BoundTerm &T : Nest.Loops[Level].Upper)
    Hi = std::min(Hi, rationalFloor(T.evaluate(Iter, S.Bindings)));
  return {Lo, Hi};
}

unsigned ReferenceSimulator::homeCluster(unsigned ArrayId,
                                    const ArrayPlacement &Placement,
                                    const std::vector<int64_t> &Index,
                                    const RunState &S) const {
  unsigned ActiveClusters = std::max(
      1u, (S.Procs + M.ProcsPerCluster - 1) / M.ProcsPerCluster);
  const ArraySymbol &A = P.array(ArrayId);
  switch (Placement.PKind) {
  case ArrayPlacement::Kind::Replicated:
    return UINT32_MAX; // Sentinel: every cluster has a copy.
  case ArrayPlacement::Kind::BlockedDim: {
    unsigned Dim = std::min<unsigned>(Placement.Dim, A.rank() - 1);
    Rational Ext = A.DimSizes[Dim].evaluate(S.Bindings);
    int64_t Extent = std::max<int64_t>(rationalFloor(Ext), 1);
    int64_t Block = ceilDiv(Extent, ActiveClusters);
    int64_t I = std::clamp<int64_t>(Index[Dim], 0, Extent - 1);
    return static_cast<unsigned>(I / std::max<int64_t>(Block, 1));
  }
  case ArrayPlacement::Kind::LinearFill: {
    // Row-major linear offset -> page -> cluster in fill order.
    int64_t Offset = 0;
    for (unsigned D = 0; D != A.rank(); ++D) {
      Rational Ext = A.DimSizes[D].evaluate(S.Bindings);
      int64_t Extent = std::max<int64_t>(rationalFloor(Ext), 1);
      Offset = Offset * Extent + std::clamp<int64_t>(Index[D], 0, Extent - 1);
    }
    double TotalElems = 1.0;
    for (unsigned D = 0; D != A.rank(); ++D) {
      Rational Ext = A.DimSizes[D].evaluate(S.Bindings);
      TotalElems *= std::max<double>(
          static_cast<double>(Ext.num()) / static_cast<double>(Ext.den()),
          1.0);
    }
    // Pages fill the active clusters evenly in address order.
    double Share = TotalElems / ActiveClusters;
    unsigned C = static_cast<unsigned>(Offset / std::max(Share, 1.0));
    return std::min(C, ActiveClusters - 1);
  }
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Segment and chunk costing
//===----------------------------------------------------------------------===//

double ReferenceSimulator::segmentCost(unsigned Proc, unsigned ArrayId,
                                  const std::vector<int64_t> &Start,
                                  const std::vector<int64_t> &StridePerIter,
                                  int64_t Length, RunState &S) const {
  if (Length <= 0)
    return 0.0;
  const ArraySymbol &A = P.array(ArrayId);
  auto PlIt = S.Current.find(ArrayId);
  ArrayPlacement Placement = PlIt != S.Current.end()
                                 ? PlIt->second
                                 : ArrayPlacement::linearFill();

  // Row-major linear stride of one iteration step.
  int64_t LinStride = 0;
  {
    int64_t Mult = 1;
    for (unsigned D = A.rank(); D != 0; --D) {
      LinStride += StridePerIter[D - 1] * Mult;
      Rational Ext = A.DimSizes[D - 1].evaluate(S.Bindings);
      Mult *= std::max<int64_t>(rationalFloor(Ext), 1);
    }
  }
  int64_t ByteStride = std::abs(LinStride) * A.ElemBytes;
  int64_t ElemsPerLine =
      ByteStride == 0
          ? Length
          : std::max<int64_t>(1, M.CacheLineBytes / std::max<int64_t>(
                                                        ByteStride, 1));
  int64_t Lines = ByteStride == 0 ? 1 : ceilDiv(Length, ElemsPerLine);

  unsigned MyCluster = clusterOfProc(Proc);
  auto LatencyOf = [&](unsigned Home) {
    if (S.AllLocal || Home == UINT32_MAX || Home == MyCluster)
      return M.LocalCycles;
    // Under a planned schedule the data arrived in a pre-posted bulk
    // message: the line moves at the hardware rate, and the software
    // overhead is charged once per planned message in plannedComm().
    if (S.PlannedComm)
      return M.RemoteCycles;
    // Without a plan every remote line is a demand-driven fetch paying
    // the full per-message software overhead; amortizing it over bulk
    // transfers is exactly what the planned schedule buys.
    return M.remoteLineCost();
  };
  auto CountLine = [&](unsigned Home, double N) {
    if (S.AllLocal || Home == UINT32_MAX || Home == MyCluster) {
      S.Res.LocalLineFetches += N;
      return;
    }
    S.Res.RemoteLineFetches += N;
    // Unplanned message-passing: every remote line is a message. Planned
    // messages are counted when the schedule's ops are charged.
    if (M.MessagePassing && !S.PlannedComm)
      S.Res.MessagesSent += N;
  };

  std::vector<int64_t> EndIdx(Start);
  for (unsigned D = 0; D != A.rank(); ++D)
    EndIdx[D] += StridePerIter[D] * (Length - 1);
  unsigned HomeStart = homeCluster(ArrayId, Placement, Start, S);
  unsigned HomeEnd = homeCluster(ArrayId, Placement, EndIdx, S);

  double Cost = 0.0;
  if (HomeStart == HomeEnd) {
    // Homogeneous segment: closed form.
    double Lat = LatencyOf(HomeStart);
    Cost = Lines * Lat + (Length - Lines) * M.CacheCycles;
    S.Res.CacheAccesses += Length - Lines;
    CountLine(HomeStart, static_cast<double>(Lines));
    return Cost;
  }
  // Heterogeneous: walk line by line.
  std::vector<int64_t> Idx(Start);
  for (int64_t L = 0; L != Lines; ++L) {
    unsigned Home = homeCluster(ArrayId, Placement, Idx, S);
    Cost += LatencyOf(Home);
    CountLine(Home, 1.0);
    for (unsigned D = 0; D != A.rank(); ++D)
      Idx[D] += StridePerIter[D] * ElemsPerLine;
  }
  Cost += (Length - Lines) * M.CacheCycles;
  S.Res.CacheAccesses += Length - Lines;
  return Cost;
}

double ReferenceSimulator::chunkCost(unsigned Proc, const LoopNest &Nest,
                                const std::vector<LoopRange> &Ranges,
                                RunState &S) const {
  unsigned Depth = Nest.depth();
  std::vector<int64_t> Outer(Depth, 0);
  double Total = 0.0;

  auto RangeFor = [&](unsigned Level) -> std::pair<int64_t, int64_t> {
    auto B = loopBounds(Nest, Level, Outer, S);
    for (const LoopRange &R : Ranges)
      if (R.Level == Level) {
        B.first = std::max(B.first, R.Lo);
        B.second = std::min(B.second, R.Hi);
      }
    return B;
  };

  // Recursive enumeration of all loops but the innermost; the innermost is
  // costed as a segment per statement access.
  std::function<void(unsigned)> Rec = [&](unsigned Level) {
    if (Level + 1 == Depth) {
      auto [Lo, Hi] = RangeFor(Level);
      int64_t Len = Hi - Lo + 1;
      if (Len <= 0)
        return;
      Outer[Level] = Lo;
      Vector Iter(Depth);
      for (unsigned I = 0; I != Depth; ++I)
        Iter[I] = Rational(Outer[I]);
      for (const Statement &Stmt : Nest.Body) {
        Total += static_cast<double>(Stmt.WorkCycles) * Len;
        S.Res.ComputeCycles += static_cast<double>(Stmt.WorkCycles) * Len;
        for (const ArrayAccess &Acc : Stmt.Accesses) {
          // Start = f(iter at Lo); stride = F * e_inner.
          Vector StartQ = Acc.Map.evaluate(Iter, S.Bindings);
          std::vector<int64_t> Start(Acc.Map.arrayDim());
          std::vector<int64_t> Stride(Acc.Map.arrayDim());
          for (unsigned D = 0; D != Acc.Map.arrayDim(); ++D) {
            Start[D] = rationalFloor(StartQ[D]);
            Stride[D] =
                rationalFloor(Acc.Map.linear().at(D, Depth - 1));
          }
          double C = segmentCost(Proc, Acc.ArrayId, Start, Stride, Len, S);
          Total += C;
          S.Res.MemoryCycles += C;
        }
      }
      return;
    }
    auto [Lo, Hi] = RangeFor(Level);
    for (int64_t V = Lo; V <= Hi; ++V) {
      Outer[Level] = V;
      Rec(Level + 1);
    }
  };
  Rec(0);
  return Total;
}

//===----------------------------------------------------------------------===//
// Nest execution
//===----------------------------------------------------------------------===//

void ReferenceSimulator::reorganizeIfNeeded(unsigned NestId, RunState &S) {
  const LoopNest &Nest = P.nest(NestId);
  unsigned ActiveClusters =
      std::max(1u, (S.Procs + M.ProcsPerCluster - 1) / M.ProcsPerCluster);
  for (unsigned A : Nest.referencedArrays()) {
    auto Want = Cfg.PlacementAt.find({A, NestId});
    if (Want == Cfg.PlacementAt.end())
      continue;
    auto Cur = S.Current.find(A);
    if (Cur != S.Current.end() && Cur->second == Want->second)
      continue;
    if (Cur == S.Current.end() || ActiveClusters == 1) {
      // First touch (or a single cluster, where every layout coincides):
      // adopt without cost.
      S.Current[A] = Want->second;
      continue;
    }
    // Move the whole array: each active processor copies its share, one
    // remote read and one remote write per cache line.
    double Elems = 1.0;
    for (const SymAffine &Dim : P.array(A).DimSizes) {
      Rational V = Dim.evaluate(S.Bindings);
      Elems *= std::max<double>(
          static_cast<double>(V.num()) / static_cast<double>(V.den()), 1.0);
    }
    double Lines = Elems * P.array(A).ElemBytes / M.CacheLineBytes;
    double PerLine = S.PlannedComm ? M.RemoteCycles : M.bulkRemoteLineCost();
    double Cycles = std::max(
        Lines * 2.0 * PerLine / std::max(1u, S.Procs),
        Lines / std::max(M.RemoteLinesPerCycle, 1e-9));
    if (M.MessagePassing) {
      if (S.PlannedComm) {
        // The planned redistribute: one pre-arranged bulk exchange per
        // processor; the software overhead is paid once on the critical
        // path instead of per message.
        Cycles += M.MessageOverheadCycles;
        S.Res.MessagesSent += S.Procs;
      } else {
        S.Res.MessagesSent +=
            Lines * 2.0 / std::max(M.BulkLinesPerMessage, 1.0);
      }
    }
    S.Res.ReorgCycles += Cycles;
    S.Res.Cycles += Cycles;
    S.Current[A] = Want->second;
  }
}

void ReferenceSimulator::plannedNestComm(unsigned NestId, RunState &S) const {
  auto It = Cfg.CommSched.PerNest.find(NestId);
  if (It == Cfg.CommSched.PerNest.end())
    return;
  double Cycles = 0.0;
  for (const CommScheduleOp &Op : It->second) {
    switch (Op.OpKind) {
    case CommScheduleOp::Kind::Shift:
      // One aggregated boundary exchange; every processor sends
      // concurrently, so the critical path pays the software overhead
      // once per planned message.
      Cycles += M.MessageOverheadCycles * Op.MessagesPerExecution;
      S.Res.MessagesSent += Op.MessagesPerExecution * S.Procs;
      break;
    case CommScheduleOp::Kind::BlockBoundary:
      // The per-block boundary train: overlapped isends hide everything
      // but the pipeline fill; otherwise each boundary pays the
      // overhead.
      Cycles += M.MessageOverheadCycles *
                (Op.Overlapped ? 1.0 : Op.MessagesPerExecution);
      S.Res.MessagesSent += Op.MessagesPerExecution * S.Procs;
      break;
    case CommScheduleOp::Kind::Broadcast: {
      double Hops = std::ceil(std::log2(std::max<double>(S.Procs, 2.0)));
      double Lines = Op.ElementsPerMessage * P.array(Op.ArrayId).ElemBytes /
                     std::max(1u, M.CacheLineBytes);
      Cycles += Op.MessagesPerExecution *
                (Hops * M.MessageOverheadCycles + Lines * M.RemoteCycles);
      S.Res.MessagesSent +=
          Op.MessagesPerExecution * std::max<double>(S.Procs - 1.0, 1.0);
      break;
    }
    case CommScheduleOp::Kind::Redistribute:
      // Cross-nest layout changes are charged by reorganizeIfNeeded's
      // placement walk; only access-level redistributes add their
      // per-execution exchange here.
      if (Op.CrossNest)
        break;
      Cycles += M.MessageOverheadCycles * Op.MessagesPerExecution;
      S.Res.MessagesSent += Op.MessagesPerExecution * S.Procs;
      break;
    }
  }
  S.Res.Cycles += Cycles;
  S.Res.MemoryCycles += Cycles;
}

void ReferenceSimulator::runNest(unsigned NestId, RunState &S) {
  const LoopNest &Nest = P.nest(NestId);
  reorganizeIfNeeded(NestId, S);
  if (S.PlannedComm)
    plannedNestComm(NestId, S);
  double RemoteBefore = S.Res.RemoteLineFetches;
  // Remote traffic of the whole nest is capped by the interconnect: the
  // nest cannot finish faster than the remote lines can move.
  auto BandwidthBound = [&](double ComputedTime) {
    double RemoteLines = S.Res.RemoteLineFetches - RemoteBefore;
    double MinTime = RemoteLines / std::max(M.RemoteLinesPerCycle, 1e-9);
    return std::max(ComputedTime, MinTime);
  };

  NestSchedule Sched;
  auto SIt = Cfg.Schedules.find(NestId);
  if (SIt != Cfg.Schedules.end())
    Sched = SIt->second;
  if (S.Procs == 1)
    Sched.ExecMode = NestSchedule::Mode::Sequential;

  switch (Sched.ExecMode) {
  case NestSchedule::Mode::Sequential: {
    double T = chunkCost(0, Nest, {}, S);
    S.Res.Cycles += BandwidthBound(T);
    return;
  }
  case NestSchedule::Mode::Forall: {
    unsigned Level = std::min<unsigned>(Sched.DistLoop, Nest.depth() - 1);
    auto [Lo, Hi] = loopBounds(Nest, Level, {}, S);
    int64_t Extent = std::max<int64_t>(Hi - Lo + 1, 1);
    int64_t Strip = ceilDiv(Extent, S.Procs);
    double MaxT = 0.0;
    for (unsigned Pr = 0; Pr != S.Procs; ++Pr) {
      int64_t SLo = Lo + Pr * Strip;
      int64_t SHi = std::min<int64_t>(SLo + Strip - 1, Hi);
      if (SLo > SHi)
        continue;
      double T = chunkCost(Pr, Nest, {{Level, SLo, SHi}}, S);
      MaxT = std::max(MaxT, T);
    }
    S.Res.Cycles += BandwidthBound(MaxT) + M.BarrierCycles;
    S.Res.SyncCycles += M.BarrierCycles;
    return;
  }
  case NestSchedule::Mode::Wavefront2D: {
    // Figure 3(b): a near-square processor grid owns one 2-d block each;
    // block (r, c) waits for (r-1, c) and (r, c-1). Only the blocks on
    // one anti-diagonal run concurrently, so processors idle during the
    // pipeline fill and drain.
    unsigned DLevel = std::min<unsigned>(Sched.DistLoop, Nest.depth() - 1);
    unsigned BLevel = std::min<unsigned>(Sched.PipeLoop, Nest.depth() - 1);
    unsigned PR = 1;
    while ((PR + 1) * (PR + 1) <= S.Procs)
      ++PR;
    unsigned PC = S.Procs / PR;
    auto [DLo, DHi] = loopBounds(Nest, DLevel, {}, S);
    auto [BLo, BHi] = loopBounds(Nest, BLevel, {}, S);
    int64_t RStrip = ceilDiv(std::max<int64_t>(DHi - DLo + 1, 1), PR);
    int64_t CStrip = ceilDiv(std::max<int64_t>(BHi - BLo + 1, 1), PC);
    std::vector<std::vector<double>> Finish(PR,
                                            std::vector<double>(PC, 0.0));
    double Total = 0.0, SyncTotal = 0.0;
    for (unsigned R = 0; R != PR; ++R)
      for (unsigned C = 0; C != PC; ++C) {
        int64_t RLo = DLo + R * RStrip;
        int64_t RHi2 = std::min<int64_t>(RLo + RStrip - 1, DHi);
        int64_t CLo = BLo + C * CStrip;
        int64_t CHi = std::min<int64_t>(CLo + CStrip - 1, BHi);
        double Cost = 0.0;
        if (RLo <= RHi2 && CLo <= CHi)
          Cost = chunkCost(R * PC + C, Nest,
                           {{DLevel, RLo, RHi2}, {BLevel, CLo, CHi}}, S);
        double Ready = 0.0;
        if (R > 0) {
          Ready = std::max(Ready, Finish[R - 1][C] + M.SyncCycles);
          SyncTotal += M.SyncCycles;
        }
        if (C > 0) {
          Ready = std::max(Ready, Finish[R][C - 1] + M.SyncCycles);
          SyncTotal += M.SyncCycles;
        }
        Finish[R][C] = Ready + Cost;
        Total = std::max(Total, Finish[R][C]);
      }
    S.Res.Cycles += BandwidthBound(Total) + M.BarrierCycles;
    S.Res.SyncCycles += SyncTotal + M.BarrierCycles;
    return;
  }
  case NestSchedule::Mode::Pipelined: {
    unsigned DLevel = std::min<unsigned>(Sched.DistLoop, Nest.depth() - 1);
    unsigned BLevel = std::min<unsigned>(Sched.PipeLoop, Nest.depth() - 1);
    auto [DLo, DHi] = loopBounds(Nest, DLevel, {}, S);
    auto [BLo, BHi] = loopBounds(Nest, BLevel, {}, S);
    int64_t DExtent = std::max<int64_t>(DHi - DLo + 1, 1);
    int64_t BExtent = std::max<int64_t>(BHi - BLo + 1, 1);
    int64_t Strip = ceilDiv(DExtent, S.Procs);
    int64_t BS = std::max<int64_t>(Sched.BlockSize, 1);
    int64_t NumBlocks = ceilDiv(BExtent, BS);
    // Wavefront DP over (proc, block).
    std::vector<double> PrevRow(NumBlocks, 0.0);
    double Finish = 0.0;
    double SyncTotal = 0.0;
    for (unsigned Pr = 0; Pr != S.Procs; ++Pr) {
      int64_t SLo = DLo + Pr * Strip;
      int64_t SHi = std::min<int64_t>(SLo + Strip - 1, DHi);
      std::vector<double> Row(NumBlocks, 0.0);
      double PrevInRow = 0.0;
      for (int64_t B = 0; B != NumBlocks; ++B) {
        double Ready = PrevInRow;
        if (Pr > 0)
          Ready = std::max(Ready, PrevRow[B] + M.SyncCycles);
        double Cost = 0.0;
        if (SLo <= SHi) {
          int64_t CLo = BLo + B * BS;
          int64_t CHi = std::min<int64_t>(CLo + BS - 1, BHi);
          Cost = chunkCost(Pr, Nest,
                           {{DLevel, SLo, SHi}, {BLevel, CLo, CHi}}, S);
          // Synchronization is not free for the processor either: the
          // wait/signal pair occupies it once per block.
          Cost += M.SyncCycles;
        }
        Row[B] = Ready + Cost;
        if (Pr > 0)
          SyncTotal += M.SyncCycles;
        PrevInRow = Row[B];
        Finish = std::max(Finish, Row[B]);
      }
      PrevRow = std::move(Row);
    }
    S.Res.Cycles += BandwidthBound(Finish) + M.BarrierCycles;
    S.Res.SyncCycles += SyncTotal + M.BarrierCycles;
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Structure-tree walk
//===----------------------------------------------------------------------===//

void ReferenceSimulator::runNodes(const std::vector<ProgramNode> &Nodes,
                             RunState &S) {
  for (const ProgramNode &N : Nodes) {
    switch (N.NodeKind) {
    case ProgramNode::Kind::Nest:
      runNest(N.NestId, S);
      break;
    case ProgramNode::Kind::SequentialLoop: {
      Rational TripQ = N.TripCount.evaluate(S.Bindings);
      int64_t Trip = std::max<int64_t>(rationalFloor(TripQ), 0);
      if (Trip == 0)
        break;
      // Simulate the first iteration (placements settle), then one steady
      // iteration, and extrapolate the remaining Trip - 2.
      Rational SavedBinding;
      bool HadBinding = S.Bindings.count(N.IndexName);
      if (HadBinding)
        SavedBinding = S.Bindings[N.IndexName];
      S.Bindings[N.IndexName] = SavedBinding; // Lower bound value.
      runNodes(N.Children, S);
      if (Trip > 1) {
        SimResult AfterFirst = S.Res;
        S.Bindings[N.IndexName] = SavedBinding + Rational(1);
        runNodes(N.Children, S);
        if (Trip > 2) {
          double K = static_cast<double>(Trip - 2);
          auto Extrapolate = [&](double SimResult::*F) {
            S.Res.*F += (S.Res.*F - AfterFirst.*F) * K;
          };
          Extrapolate(&SimResult::Cycles);
          Extrapolate(&SimResult::ComputeCycles);
          Extrapolate(&SimResult::MemoryCycles);
          Extrapolate(&SimResult::ReorgCycles);
          Extrapolate(&SimResult::SyncCycles);
          Extrapolate(&SimResult::CacheAccesses);
          Extrapolate(&SimResult::LocalLineFetches);
          Extrapolate(&SimResult::RemoteLineFetches);
          Extrapolate(&SimResult::MessagesSent);
        }
      }
      if (HadBinding)
        S.Bindings[N.IndexName] = SavedBinding;
      break;
    }
    case ProgramNode::Kind::Branch: {
      // Expected cost: weight each arm; keep the likelier arm's state.
      RunState ThenS = S;
      runNodes(N.Children, ThenS);
      RunState ElseS = S;
      runNodes(N.ElseChildren, ElseS);
      double P1 = N.TakenProbability;
      RunState &Keep = P1 >= 0.5 ? ThenS : ElseS;
      double Blend = P1 * ThenS.Res.Cycles + (1 - P1) * ElseS.Res.Cycles;
      Keep.Res.Cycles = Blend;
      S = std::move(Keep);
      break;
    }
    }
  }
}

SimResult ReferenceSimulator::run(unsigned NumProcs) {
  RunState S;
  S.Procs = std::max(1u, std::min(NumProcs, M.NumProcs));
  // One processor exchanges nothing: the planned schedule only applies
  // to actual multi-processor message-passing runs.
  S.PlannedComm = M.MessagePassing && !Cfg.CommSched.empty() && S.Procs > 1;
  S.Bindings = P.SymbolBindings;
  S.Current.clear();
  for (const auto &[A, Pl] : Cfg.InitialPlacement)
    S.Current[A] = Pl;
  if (S.PlannedComm) {
    // One-time prologue operations (hoisted broadcasts): a log-depth
    // forwarding tree, each stage one bulk message.
    for (const CommScheduleOp &Op : Cfg.CommSched.Prologue) {
      double Hops = std::ceil(std::log2(std::max<double>(S.Procs, 2.0)));
      double Lines = Op.ElementsPerMessage * P.array(Op.ArrayId).ElemBytes /
                     std::max(1u, M.CacheLineBytes);
      double C = Op.MessagesPerExecution *
                 (Hops * M.MessageOverheadCycles + Lines * M.RemoteCycles);
      S.Res.Cycles += C;
      S.Res.MemoryCycles += C;
      S.Res.MessagesSent +=
          Op.MessagesPerExecution * std::max<double>(S.Procs - 1.0, 1.0);
    }
  }
  runNodes(P.TopLevel, S);
  return S.Res;
}

double ReferenceSimulator::sequentialCycles() {
  RunState S;
  S.Procs = 1;
  S.AllLocal = true;
  S.Bindings = P.SymbolBindings;
  for (const auto &[A, Pl] : Cfg.InitialPlacement)
    S.Current[A] = Pl;
  runNodes(P.TopLevel, S);
  return S.Res.Cycles;
}
