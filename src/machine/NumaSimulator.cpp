//===- machine/NumaSimulator.cpp - DASH-like NUMA simulator ------------------===//

#include "machine/NumaSimulator.h"

#include "support/CheckedInt.h"
#include "support/Diagnostics.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <tuple>

using namespace alp;

std::string SimResult::str() const {
  std::ostringstream OS;
  OS << "cycles=" << Cycles << " compute=" << ComputeCycles
     << " memory=" << MemoryCycles << " reorg=" << ReorgCycles
     << " sync=" << SyncCycles << " cache=" << CacheAccesses
     << " localLines=" << LocalLineFetches
     << " remoteLines=" << RemoteLineFetches
     << " messages=" << MessagesSent;
  return OS.str();
}

void SimResult::publishTo(MetricsRegistry &MR) const {
  MR.setGauge("sim.cycles", Cycles);
  MR.setGauge("sim.compute_cycles", ComputeCycles);
  MR.setGauge("sim.memory_cycles", MemoryCycles);
  MR.setGauge("sim.reorg_cycles", ReorgCycles);
  MR.setGauge("sim.sync_cycles", SyncCycles);
  MR.setGauge("sim.cache_accesses", CacheAccesses);
  MR.setGauge("sim.local_line_fetches", LocalLineFetches);
  MR.setGauge("sim.remote_line_fetches", RemoteLineFetches);
  MR.setGauge("sim.messages", MessagesSent);
}

NumaSimulator::NumaSimulator(const Program &P, const MachineParams &M)
    : P(P), M(M) {}

void NumaSimulator::setPlacement(unsigned ArrayId, unsigned NestId,
                                 ArrayPlacement Placement) {
  Cfg.PlacementAt[{ArrayId, NestId}] = Placement;
}

void NumaSimulator::setStaticPlacement(unsigned ArrayId,
                                       ArrayPlacement Placement) {
  Cfg.InitialPlacement[ArrayId] = Placement;
  for (const LoopNest &Nest : P.Nests)
    Cfg.PlacementAt[{ArrayId, Nest.Id}] = Placement;
}

void NumaSimulator::setInitialPlacement(unsigned ArrayId,
                                        ArrayPlacement Placement) {
  Cfg.InitialPlacement[ArrayId] = Placement;
}

void NumaSimulator::setSchedule(unsigned NestId, NestSchedule Schedule) {
  Cfg.Schedules[NestId] = Schedule;
}

void NumaSimulator::setCommSchedule(CommSchedule Schedule) {
  Cfg.CommSched = std::move(Schedule);
}

unsigned NumaSimulator::clusterOfProc(unsigned Proc) const {
  return Proc / std::max(1u, M.ProcsPerCluster);
}

//===----------------------------------------------------------------------===//
// Integer costing data
//===----------------------------------------------------------------------===//

namespace {

/// Overflow anywhere in index or bound arithmetic reports as the exact
/// rational layer would: a recoverable RationalOverflow.
constexpr const char *Arith = "rational arithmetic";

int64_t floorDiv(int64_t A, int64_t B) {
  int64_t Q = A / B;
  return A % B != 0 && (A < 0) != (B < 0) ? Q - 1 : Q;
}

int64_t ceilDiv(int64_t A, int64_t B) {
  int64_t Q = A / B;
  return A % B != 0 && (A < 0) == (B < 0) ? Q + 1 : Q;
}

int64_t rationalFloor(const Rational &R) {
  return floorDiv(R.num(), R.den());
}

/// (Coeffs . X + Const) / Den over a nest's loop indices X, with integer
/// coefficients and Den > 0: an access-map row or a loop-bound term with
/// its symbolic constant evaluated once per nest.
struct IntAffine {
  SmallVec<int64_t, 8> Coeffs;
  int64_t Const = 0;
  int64_t Den = 1;
  /// An overflow while preparing the row. It is rethrown where the row is
  /// first evaluated, so a row the walk never reaches cannot fail the run.
  std::exception_ptr Failed;

  /// Normalizes (sum_k Coeff(k) x_k) + Const under \p Bindings.
  template <typename CoeffFn>
  IntAffine(unsigned N, CoeffFn Coeff, const SymAffine &Const,
            const std::map<std::string, Rational> &Bindings) {
    try {
      Rational C = Const.evaluate(Bindings);
      Den = C.den();
      for (unsigned K = 0; K != N; ++K)
        Den = lcm64(Den, Coeff(K).den());
      Coeffs.resize(N);
      for (unsigned K = 0; K != N; ++K)
        Coeffs[K] =
            checkedMul64(Coeff(K).num(), Den / Coeff(K).den(), Arith);
      this->Const = checkedMul64(C.num(), Den / C.den(), Arith);
    } catch (const AlpException &) {
      Failed = std::current_exception();
    }
  }

  int64_t numerator(const int64_t *X) const {
    if (Failed)
      std::rethrow_exception(Failed);
    int64_t Sum = 0;
    for (unsigned K = 0, E = Coeffs.size(); K != E; ++K)
      if (Coeffs[K] != 0)
        Sum = checkedAdd64(Sum, checkedMul64(Coeffs[K], X[K], Arith), Arith);
    return checkedAdd64(Sum, Const, Arith);
  }
  int64_t floorAt(const int64_t *X) const {
    int64_t N = numerator(X);
    return Den == 1 ? N : floorDiv(N, Den);
  }
  int64_t ceilAt(const int64_t *X) const {
    int64_t N = numerator(X);
    return Den == 1 ? N : ceilDiv(N, Den);
  }
};

/// Accesses per cache line of an access stepping \p Stride through a
/// row-major array of \p Extents, or 0 when the step does not move. Only a
/// step shorter than one line needs its exact size, so the row-major
/// stride is formed in 128 bits and saturates instead of overflowing: a
/// step beyond 64 bits is one line per access.
int64_t elemsPerLine(const SmallVec<int64_t, 4> &Stride,
                     const SmallVec<int64_t, 4> &Extents, unsigned ElemBytes,
                     unsigned LineBytes) {
  constexpr __int128 Cap = static_cast<__int128>(1) << 100;
  __int128 Lin = 0, Mult = 1;
  for (unsigned D = Stride.size(); D-- > 0;) {
    Lin = std::clamp<__int128>(Lin + Stride[D] * Mult, -Cap, Cap);
    Mult = std::min<__int128>(Mult * Extents[D], INT64_MAX);
  }
  __int128 Abs = Lin < 0 ? -Lin : Lin;
  if (Abs == 0 || ElemBytes == 0)
    return 0;
  if (Abs >= LineBytes)
    return 1;
  int64_t Bytes = static_cast<int64_t>(Abs) * ElemBytes;
  return std::max<int64_t>(1, LineBytes / Bytes);
}

} // namespace

/// One array access of a nest, ready for segment costing.
struct NumaSimulator::AccessPlan {
  SmallVec<IntAffine, 4> Rows;  ///< Start index per array dimension.
  SmallVec<int64_t, 4> Stride;  ///< Array-space step of the innermost loop.
  SmallVec<int64_t, 4> Extents; ///< Integer extent per array dimension.
  ArrayPlacement::Kind Kind = ArrayPlacement::Kind::LinearFill;
  unsigned Dim = 0;   ///< BlockedDim: the distributed dimension ...
  int64_t Block = 1;  ///< ... and its per-cluster block.
  double FillDiv = 1; ///< LinearFill: elements per cluster (>= 1).
  unsigned Clusters = 1;
  /// Accesses per cache line; 0 when the access does not move (a
  /// zero-stride segment touches one line however long it is).
  int64_t ElemsPerLine = 0;
  /// Every stride has one sign, so the linear-fill home is monotone along
  /// the segment.
  bool Monotone = true;
  /// An overflow while preparing the line stride, rethrown on first use.
  std::exception_ptr Failed;

  /// Cluster holding element \p Index (a Replicated array never asks).
  unsigned homeOf(const int64_t *Index) const {
    if (Kind == ArrayPlacement::Kind::BlockedDim)
      return static_cast<unsigned>(
          std::clamp<int64_t>(Index[Dim], 0, Extents[Dim] - 1) / Block);
    return fillHome([&](unsigned D) { return Index[D]; });
  }

  /// LinearFill: row-major offset -> page -> cluster in fill order; pages
  /// fill the active clusters evenly in address order. An offset beyond
  /// 64 bits (no machine could hold such an array) saturates.
  template <typename IndexFn> unsigned fillHome(IndexFn Index) const {
    __int128 Offset = 0;
    for (unsigned D = 0, E = Extents.size(); D != E; ++D)
      Offset = std::min<__int128>(Offset * Extents[D] +
                                      std::clamp<int64_t>(Index(D), 0,
                                                          Extents[D] - 1),
                                  UINT64_MAX);
    unsigned C = static_cast<unsigned>(static_cast<double>(Offset) / FillDiv);
    return std::min(C, Clusters - 1);
  }
};

/// Everything fixed while one nest runs.
struct NumaSimulator::NestPlan {
  unsigned Depth = 0;
  std::vector<std::vector<IntAffine>> Lower, Upper; ///< Per loop level.
  struct StmtPlan {
    double Work;
    unsigned FirstAccess, EndAccess;
  };
  std::vector<StmtPlan> Stmts;
  std::vector<AccessPlan> Accesses;

  /// Integer bounds of loop \p Level given the loop values \p Outer.
  std::pair<int64_t, int64_t> bounds(unsigned Level,
                                     const int64_t *Outer) const {
    int64_t Lo = INT64_MIN, Hi = INT64_MAX;
    for (const IntAffine &T : Lower[Level])
      Lo = std::max(Lo, T.ceilAt(Outer));
    for (const IntAffine &T : Upper[Level])
      Hi = std::min(Hi, T.floorAt(Outer));
    return {Lo, Hi};
  }
};

void NumaSimulator::rebind(RunState &S) {
  for (ArrayShape &Sh : S.Shapes)
    Sh.Valid = false;
}

const NumaSimulator::ArrayShape &
NumaSimulator::shapeOf(unsigned ArrayId, RunState &S) const {
  ArrayShape &Sh = S.Shapes[ArrayId];
  if (Sh.Valid)
    return Sh;
  const ArraySymbol &A = P.array(ArrayId);
  Sh.Extents.resize(A.rank());
  Sh.Elems = 1.0;
  for (unsigned D = 0; D != A.rank(); ++D) {
    Rational Ext = A.DimSizes[D].evaluate(S.Bindings);
    Sh.Extents[D] = std::max<int64_t>(rationalFloor(Ext), 1);
    Sh.Elems *= std::max<double>(
        static_cast<double>(Ext.num()) / static_cast<double>(Ext.den()), 1.0);
  }
  Sh.Valid = true;
  return Sh;
}

NumaSimulator::NestPlan NumaSimulator::planNest(const LoopNest &Nest,
                                                RunState &S) const {
  NestPlan Plan;
  unsigned Depth = Plan.Depth = Nest.depth();
  unsigned Clusters =
      std::max(1u, (S.Procs + M.ProcsPerCluster - 1) / M.ProcsPerCluster);
  for (const Loop &L : Nest.Loops) {
    auto Terms = [&](const std::vector<BoundTerm> &Src) {
      std::vector<IntAffine> Out;
      Out.reserve(Src.size());
      for (const BoundTerm &T : Src)
        Out.emplace_back(
            Depth, [&](unsigned K) { return T.OuterCoeffs[K]; }, T.Const,
            S.Bindings);
      return Out;
    };
    Plan.Lower.push_back(Terms(L.Lower));
    Plan.Upper.push_back(Terms(L.Upper));
  }

  for (const Statement &Stmt : Nest.Body) {
    unsigned First = Plan.Accesses.size();
    for (const ArrayAccess &Acc : Stmt.Accesses) {
      AccessPlan &A = Plan.Accesses.emplace_back();
      const Matrix &F = Acc.Map.linear();
      unsigned Rank = Acc.Map.arrayDim();
      for (unsigned D = 0; D != Rank; ++D) {
        A.Rows.emplace_back(
            Depth, [&](unsigned K) { return F.at(D, K); },
            Acc.Map.constant()[D], S.Bindings);
        A.Stride.push_back(rationalFloor(F.at(D, Depth - 1)));
      }
      auto PlIt = S.Current.find(Acc.ArrayId);
      ArrayPlacement Placement = PlIt != S.Current.end()
                                     ? PlIt->second
                                     : ArrayPlacement::linearFill();
      // A rank-0 array is one element at offset 0.
      A.Kind = Rank == 0 ? ArrayPlacement::Kind::LinearFill : Placement.PKind;
      A.Clusters = Clusters;
      bool AnyNeg = false, AnyPos = false;
      for (int64_t St : A.Stride) {
        AnyNeg |= St < 0;
        AnyPos |= St > 0;
      }
      A.Monotone = !(AnyNeg && AnyPos);
      try {
        const ArrayShape &Sh = shapeOf(Acc.ArrayId, S);
        A.Extents = Sh.Extents;
        if (Rank != 0) {
          A.Dim = std::min<unsigned>(Placement.Dim, Rank - 1);
          A.Block = (A.Extents[A.Dim] - 1) / Clusters + 1;
        }
        A.FillDiv = std::max(Sh.Elems / Clusters, 1.0);
        A.ElemsPerLine = elemsPerLine(A.Stride, A.Extents,
                                      P.array(Acc.ArrayId).ElemBytes,
                                      M.CacheLineBytes);
      } catch (const AlpException &) {
        A.Failed = std::current_exception();
      }
    }
    Plan.Stmts.push_back({static_cast<double>(Stmt.WorkCycles), First,
                          static_cast<unsigned>(Plan.Accesses.size())});
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Segment and chunk costing
//===----------------------------------------------------------------------===//

double NumaSimulator::segmentCost(unsigned Proc, const AccessPlan &A,
                                  const int64_t *Start, int64_t Length,
                                  RunState &S) const {
  if (A.Failed)
    std::rethrow_exception(A.Failed);
  unsigned Rank = A.Stride.size();
  SmallVec<int64_t, 4> End(Rank);
  for (unsigned D = 0; D != Rank; ++D)
    End[D] = checkedAdd64(
        Start[D], checkedMul64(A.Stride[D], Length - 1, Arith), Arith);
  int64_t PerLine = A.ElemsPerLine ? A.ElemsPerLine : Length;
  int64_t Lines = (Length - 1) / PerLine + 1;

  unsigned MyCluster = clusterOfProc(Proc);
  bool AllLocal = S.AllLocal || A.Kind == ArrayPlacement::Kind::Replicated;
  // Charges \p N lines homed on cluster \p Home.
  auto Charge = [&](unsigned Home, int64_t N) {
    double Count = static_cast<double>(N);
    if (AllLocal || Home == MyCluster) {
      S.Res.LocalLineFetches += Count;
      return Count * M.LocalCycles;
    }
    S.Res.RemoteLineFetches += Count;
    // Unplanned message-passing: every remote line is a message. Planned
    // messages are counted when the schedule's ops are charged.
    if (M.MessagePassing && !S.PlannedComm)
      S.Res.MessagesSent += Count;
    // Under a planned schedule the data arrived in a pre-posted bulk
    // message: the line moves at the hardware rate, and the software
    // overhead is charged once per planned message in plannedComm().
    // Without a plan every remote line is a demand-driven fetch paying
    // the full per-message software overhead; amortizing it over bulk
    // transfers is exactly what the planned schedule buys.
    return Count * (S.PlannedComm ? M.RemoteCycles : M.remoteLineCost());
  };

  double Cost = 0.0;
  unsigned HomeStart = AllLocal ? 0 : A.homeOf(Start);
  if (AllLocal || HomeStart == A.homeOf(End.data())) {
    // Homogeneous segment: closed form.
    Cost = Charge(HomeStart, Lines);
  } else if (A.Kind == ArrayPlacement::Kind::BlockedDim) {
    // Line L sits at index V0 + L * Step of the blocked dimension, whose
    // home changes only at block boundaries: divide to find each run.
    __int128 V0 = Start[A.Dim];
    __int128 Step = static_cast<__int128>(A.Stride[A.Dim]) * PerLine;
    int64_t Extent = A.Extents[A.Dim];
    unsigned Last = static_cast<unsigned>((Extent - 1) / A.Block);
    for (int64_t L = 0; L != Lines;) {
      __int128 V = V0 + Step * L;
      unsigned Home = static_cast<unsigned>(
          std::clamp<__int128>(V, 0, Extent - 1) / A.Block);
      __int128 Run = Lines - L;
      if (Step > 0 && Home != Last)
        Run = ((Home + static_cast<__int128>(1)) * A.Block - 1 - V) / Step + 1;
      else if (Step < 0 && Home != 0)
        Run = (V - static_cast<__int128>(Home) * A.Block) / -Step + 1;
      int64_t N = static_cast<int64_t>(std::min<__int128>(Run, Lines - L));
      Cost += Charge(Home, N);
      L += N;
    }
  } else {
    // LinearFill: line L starts at Start + L * PerLine * Stride, which
    // stays between Start and End, so no step can overflow.
    auto HomeAt = [&](int64_t L) {
      int64_t Steps = L * PerLine;
      return A.fillHome(
          [&](unsigned D) { return Start[D] + A.Stride[D] * Steps; });
    };
    for (int64_t L = 0; L != Lines;) {
      unsigned Home = HomeAt(L);
      int64_t RunEnd = L; // Last line of the run homed on Home.
      if (A.Monotone) {
        // Gallop while the home holds, then bisect the last step: a run of
        // R lines costs O(log R) probes, however long the segment.
        int64_t Hi = Lines - 1;
        for (int64_t Step = 1; RunEnd < Hi; Step *= 2) {
          int64_t Probe = std::min(RunEnd + Step, Hi);
          if (HomeAt(Probe) != Home) {
            Hi = Probe - 1;
            break;
          }
          RunEnd = Probe;
        }
        while (RunEnd < Hi) {
          int64_t Mid = RunEnd + (Hi - RunEnd + 1) / 2;
          if (HomeAt(Mid) == Home)
            RunEnd = Mid;
          else
            Hi = Mid - 1;
        }
      }
      Cost += Charge(Home, RunEnd - L + 1);
      L = RunEnd + 1;
    }
  }
  Cost += (Length - Lines) * M.CacheCycles;
  S.Res.CacheAccesses += Length - Lines;
  return Cost;
}

double NumaSimulator::chunkCost(unsigned Proc, const NestPlan &Plan,
                                std::initializer_list<LoopRange> Ranges,
                                RunState &S) const {
  unsigned Depth = Plan.Depth;
  SmallVec<int64_t, 8> Outer(Depth, 0), Next(Depth), Last(Depth);
  SmallVec<int64_t, 8> RangeLo(Depth, INT64_MIN), RangeHi(Depth, INT64_MAX);
  for (const LoopRange &R : Ranges) {
    RangeLo[R.Level] = std::max(RangeLo[R.Level], R.Lo);
    RangeHi[R.Level] = std::min(RangeHi[R.Level], R.Hi);
  }
  auto RangeFor = [&](unsigned Level) {
    auto B = Plan.bounds(Level, Outer.data());
    return std::make_pair(std::max(B.first, RangeLo[Level]),
                          std::min(B.second, RangeHi[Level]));
  };

  // The innermost loop is costed as one segment per statement access.
  double Total = 0.0;
  SmallVec<int64_t, 8> Start;
  auto Innermost = [&] {
    auto [Lo, Hi] = RangeFor(Depth - 1);
    if (Lo > Hi)
      return;
    int64_t Len = checkedAdd64(checkedSub64(Hi, Lo, Arith), 1, Arith);
    Outer[Depth - 1] = Lo;
    for (const NestPlan::StmtPlan &Stmt : Plan.Stmts) {
      Total += Stmt.Work * Len;
      S.Res.ComputeCycles += Stmt.Work * Len;
      for (unsigned I = Stmt.FirstAccess; I != Stmt.EndAccess; ++I) {
        const AccessPlan &A = Plan.Accesses[I];
        Start.resize(A.Rows.size());
        for (unsigned D = 0; D != A.Rows.size(); ++D)
          Start[D] = A.Rows[D].floorAt(Outer.data());
        double C = segmentCost(Proc, A, Start.data(), Len, S);
        Total += C;
        S.Res.MemoryCycles += C;
      }
    }
  };

  // Odometer over the outer loops. Outer[L] keeps the last value loop L
  // took, as the bounds of later visits see it.
  if (Depth == 1) {
    Innermost();
    return Total;
  }
  auto Enter = [&](unsigned Level) {
    std::tie(Next[Level], Last[Level]) = RangeFor(Level);
  };
  unsigned Level = 0;
  Enter(0);
  for (;;) {
    if (Next[Level] > Last[Level]) {
      if (Level == 0)
        break;
      --Level;
      continue;
    }
    Outer[Level] = Next[Level]++;
    if (Level + 2 == Depth) {
      Innermost();
    } else {
      ++Level;
      Enter(Level);
    }
  }
  return Total;
}

//===----------------------------------------------------------------------===//
// Nest execution
//===----------------------------------------------------------------------===//

void NumaSimulator::reorganizeIfNeeded(unsigned NestId, RunState &S) {
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
    double Lines =
        shapeOf(A, S).Elems * P.array(A).ElemBytes / M.CacheLineBytes;
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
    Observe.count("sim.reorganizations");
  }
}

void NumaSimulator::plannedNestComm(unsigned NestId, RunState &S) const {
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

void NumaSimulator::runNest(unsigned NestId, RunState &S) {
  const LoopNest &Nest = P.nest(NestId);
  reorganizeIfNeeded(NestId, S);
  if (S.PlannedComm)
    plannedNestComm(NestId, S);
  NestPlan Plan = planNest(Nest, S);
  // The distributed loops' bounds are read with every loop at zero.
  SmallVec<int64_t, 8> Zeros(Nest.depth(), 0);
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
    double T = chunkCost(0, Plan, {}, S);
    S.Res.Cycles += BandwidthBound(T);
    return;
  }
  case NestSchedule::Mode::Forall: {
    unsigned Level = std::min<unsigned>(Sched.DistLoop, Nest.depth() - 1);
    auto [Lo, Hi] = Plan.bounds(Level, Zeros.data());
    int64_t Extent = std::max<int64_t>(Hi - Lo + 1, 1);
    int64_t Strip = ceilDiv(Extent, S.Procs);
    double MaxT = 0.0;
    for (unsigned Pr = 0; Pr != S.Procs; ++Pr) {
      int64_t SLo = Lo + Pr * Strip;
      int64_t SHi = std::min<int64_t>(SLo + Strip - 1, Hi);
      if (SLo > SHi)
        continue;
      double T = chunkCost(Pr, Plan, {{Level, SLo, SHi}}, S);
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
    auto [DLo, DHi] = Plan.bounds(DLevel, Zeros.data());
    auto [BLo, BHi] = Plan.bounds(BLevel, Zeros.data());
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
          Cost = chunkCost(R * PC + C, Plan,
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
    auto [DLo, DHi] = Plan.bounds(DLevel, Zeros.data());
    auto [BLo, BHi] = Plan.bounds(BLevel, Zeros.data());
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
          Cost = chunkCost(Pr, Plan,
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

void NumaSimulator::runNodes(const std::vector<ProgramNode> &Nodes,
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
      rebind(S);
      runNodes(N.Children, S);
      if (Trip > 1) {
        SimResult AfterFirst = S.Res;
        S.Bindings[N.IndexName] = SavedBinding + Rational(1);
        rebind(S);
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
      rebind(S);
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

namespace {

/// Injection site at the head of every simulation run; a fault surfaces
/// as AlpException for the tool-level stage guard.
FailPoint FpSimulateRun("machine.simulate.run");

} // namespace

SimResult NumaSimulator::run(unsigned NumProcs) {
  TraceSpan Span(Observe.Trace, "sim.run", NumProcs);
  FpSimulateRun.evaluateOrThrow();
  Observe.count("sim.runs");
  RunState S;
  S.Procs = std::max(1u, std::min(NumProcs, M.NumProcs));
  // One processor exchanges nothing: the planned schedule only applies
  // to actual multi-processor message-passing runs.
  S.PlannedComm = M.MessagePassing && !Cfg.CommSched.empty() && S.Procs > 1;
  S.Bindings = P.SymbolBindings;
  S.Shapes.resize(P.Arrays.size());
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
  if (Observe.Metrics)
    S.Res.publishTo(*Observe.Metrics);
  return S.Res;
}

double NumaSimulator::sequentialCycles() {
  RunState S;
  S.Procs = 1;
  S.AllLocal = true;
  S.Bindings = P.SymbolBindings;
  S.Shapes.resize(P.Arrays.size());
  for (const auto &[A, Pl] : Cfg.InitialPlacement)
    S.Current[A] = Pl;
  runNodes(P.TopLevel, S);
  return S.Res.Cycles;
}
