//===- machine/NumaSimulator.cpp - DASH-like NUMA simulator ------------------===//

#include "machine/NumaSimulator.h"

#include "support/CheckedInt.h"
#include "support/Diagnostics.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <bit>
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

/// The last value in [From, To] up to which \p Holds stays true, given that
/// it holds at From and, once false, stays false: gallop while it holds,
/// then bisect the last step, so a stretch of R values costs O(log R)
/// probes.
template <typename Pred>
int64_t lastWhile(int64_t From, int64_t To, Pred Holds) {
  int64_t Lo = From, Hi = To;
  for (uint64_t Step = 1; Lo < Hi; Step *= 2) {
    int64_t Probe = Lo + static_cast<int64_t>(
                             std::min<uint64_t>(Step, Hi - Lo));
    if (!Holds(Probe)) {
      Hi = Probe - 1;
      break;
    }
    Lo = Probe;
  }
  while (Lo < Hi) {
    int64_t Mid = Lo + (Hi - Lo + 1) / 2;
    if (Holds(Mid))
      Lo = Mid;
    else
      Hi = Mid - 1;
  }
  return Lo;
}

/// sum_{i < N} floor((A * i + B) / Div) for N, A, B >= 0 and Div >= 1, in
/// O(log) steps (the Euclid-like reduction of the classic floor sum).
__int128 floorSum(__int128 N, __int128 Div, __int128 A, __int128 B) {
  __int128 Sum = 0;
  for (;;) {
    if (A >= Div) {
      Sum += N * (N - 1) / 2 * (A / Div);
      A %= Div;
    }
    if (B >= Div) {
      Sum += N * (B / Div);
      B %= Div;
    }
    __int128 Top = A * N + B;
    if (Top < Div)
      return Sum;
    N = Top / Div;
    B = Top % Div;
    std::swap(Div, A);
  }
}

/// log2 of the largest power of two dividing \p V (finite), capped at 0:
/// every multiple of 2^grainExp(V) below 2^(53 + grainExp(V)) is a double.
int grainExp(double V) {
  auto Bits = std::bit_cast<uint64_t>(V);
  int Exp = static_cast<int>(Bits >> 52 & 0x7ff);
  uint64_t Mant = Bits & ((uint64_t(1) << 52) - 1);
  if (Exp == 0) { // Zero or subnormal: V = Mant * 2^-1074.
    if (Mant == 0)
      return 0;
    return -1074 + std::countr_zero(Mant);
  }
  // V = (2^52 + Mant) * 2^(Exp - 1075).
  return std::min(0, Exp - 1075 +
                         std::countr_zero(Mant | uint64_t(1) << 52));
}

/// True when adding a sum of non-negative summands, each a multiple of
/// 2^Grain (Grain <= 0), to \p Acc gives \p Acc + \p Delta exactly in any
/// order and grouping. It holds when \p Acc is a non-negative multiple of
/// 2^Grain too and the result stays below 2^(53 + Grain): then every
/// partial sum, of any order, is a multiple of 2^Grain no larger than the
/// result, so a double holds it and no addition rounds. \p Delta is the sum
/// computed in doubles; rounding is monotone, so it reaches the bound
/// exactly when the true sum does, and below the bound it is the true sum.
bool exactSum(double Acc, double Delta, int Grain) {
  if (!(Acc >= 0) || !std::isfinite(Acc))
    return false;
  int Exp = 53 + std::min(Grain, grainExp(Acc));
  if (Exp < -1022)
    return false; // Below the normal doubles; no cost is this fine.
  // 2^Exp, assembled from its exponent bits.
  return Acc + Delta <
         std::bit_cast<double>(static_cast<uint64_t>(Exp + 1023) << 52);
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
  /// The start index's step per unit of loop Depth-2 where the innermost
  /// lower bound does not move (Stride times that bound's slope is added
  /// where it does).
  SmallVec<int64_t, 4> XStep;
  /// An overflow while preparing the line stride, rethrown on first use.
  std::exception_ptr Failed;

  /// Cluster holding element \p Index (a Replicated array never asks).
  unsigned homeOf(const int64_t *Index) const {
    if (Kind == ArrayPlacement::Kind::BlockedDim)
      return static_cast<unsigned>(
          std::clamp<int64_t>(Index[Dim], 0, Extents[Dim] - 1) / Block);
    return fillHome([&](unsigned D) { return Index[D]; });
  }

  /// The index of a segment's last access, checked like every index.
  void segmentEnd(const int64_t *Start, int64_t Length, int64_t *End) const {
    for (unsigned D = 0, R = Stride.size(); D != R; ++D)
      End[D] = checkedAdd64(
          Start[D], checkedMul64(Stride[D], Length - 1, Arith), Arith);
  }

  /// Splits the segment of \p Length accesses from \p Start to \p End
  /// into maximal runs of lines on one home and calls Charge(Home, Lines)
  /// for each, in line order (home 0 for all lines when \p AllLocal).
  /// Returns the number of lines the segment touches.
  template <typename ChargeFn>
  int64_t chargeLines(const int64_t *Start, const int64_t *End,
                      int64_t Length, bool AllLocal, ChargeFn Charge) const;

  /// Lines a segment of \p Length > 0 accesses touches.
  int64_t linesOf(int64_t Length) const {
    return ElemsPerLine ? (Length - 1) / ElemsPerLine + 1 : 1;
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
  /// Loop Depth-2 can be costed in runs (costRuns): every bound term reads
  /// only strictly-outer loops, each innermost one is affine in loop
  /// Depth-2, and so is every access's start index wherever the innermost
  /// lower bound is (each row's coefficients on the two innermost loops
  /// are multiples of its denominator). Whatever failed to prepare is met
  /// value by value, where the walk raises it.
  bool Runs = false;

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
  // Loops X and I are the two innermost; the runs need Depth >= 2.
  unsigned X = Depth - 2, I = Depth - 1;
  Plan.Runs = Depth >= 2;
  for (const Loop &L : Nest.Loops) {
    unsigned Level = Plan.Lower.size();
    auto Terms = [&](const std::vector<BoundTerm> &Src) {
      std::vector<IntAffine> Out;
      Out.reserve(Src.size());
      for (const BoundTerm &T : Src) {
        const IntAffine &Bound = Out.emplace_back(
            Depth, [&](unsigned K) { return T.OuterCoeffs[K]; }, T.Const,
            S.Bindings);
        // The frontend only lets a bound read strictly-outer loops; a
        // hand-built nest whose bounds read others is walked value by
        // value, as those see stale loop values.
        Plan.Runs &= !Bound.Failed;
        for (unsigned K = Level; K < Depth && Plan.Runs; ++K)
          Plan.Runs &= Bound.Coeffs[K] == 0;
        if (Level == I && Plan.Runs)
          Plan.Runs &= Bound.Coeffs[X] % Bound.Den == 0;
      }
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
        const IntAffine &Row = A.Rows.emplace_back(
            Depth, [&](unsigned K) { return F.at(D, K); },
            Acc.Map.constant()[D], S.Bindings);
        A.Stride.push_back(rationalFloor(F.at(D, Depth - 1)));
        Plan.Runs = Plan.Runs && !Row.Failed &&
                    Row.Coeffs[X] % Row.Den == 0 &&
                    Row.Coeffs[I] % Row.Den == 0;
        if (Plan.Runs)
          A.XStep.push_back(Row.Coeffs[X] / Row.Den);
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
        Plan.Runs = false;
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

template <typename ChargeFn>
int64_t NumaSimulator::AccessPlan::chargeLines(const int64_t *Start,
                                               const int64_t *End,
                                               int64_t Length, bool AllLocal,
                                               ChargeFn Charge) const {
  int64_t PerLine = ElemsPerLine ? ElemsPerLine : Length;
  int64_t Lines = linesOf(Length);
  unsigned HomeStart = AllLocal ? 0 : homeOf(Start);
  if (AllLocal || HomeStart == homeOf(End)) {
    // Homogeneous segment: closed form.
    Charge(HomeStart, Lines);
  } else if (Kind == ArrayPlacement::Kind::BlockedDim) {
    // Line L sits at index V0 + L * Step of the blocked dimension, whose
    // home changes only at block boundaries: divide to find each run.
    __int128 V0 = Start[Dim];
    __int128 Step = static_cast<__int128>(Stride[Dim]) * PerLine;
    int64_t Extent = Extents[Dim];
    unsigned Last = static_cast<unsigned>((Extent - 1) / Block);
    for (int64_t L = 0; L != Lines;) {
      __int128 V = V0 + Step * L;
      unsigned Home = static_cast<unsigned>(
          std::clamp<__int128>(V, 0, Extent - 1) / Block);
      __int128 Run = Lines - L;
      if (Step > 0 && Home != Last)
        Run = ((Home + static_cast<__int128>(1)) * Block - 1 - V) / Step + 1;
      else if (Step < 0 && Home != 0)
        Run = (V - static_cast<__int128>(Home) * Block) / -Step + 1;
      int64_t N = static_cast<int64_t>(std::min<__int128>(Run, Lines - L));
      Charge(Home, N);
      L += N;
    }
  } else {
    // LinearFill: line L starts at Start + L * PerLine * Stride, which
    // stays between Start and End, so no step can overflow.
    auto HomeAt = [&](int64_t L) {
      int64_t Steps = L * PerLine;
      return fillHome([&](unsigned D) { return Start[D] + Stride[D] * Steps; });
    };
    for (int64_t L = 0; L != Lines;) {
      unsigned Home = HomeAt(L);
      // The last line of the run homed on Home.
      int64_t RunEnd =
          Monotone ? lastWhile(L, Lines - 1,
                               [&](int64_t P) { return HomeAt(P) == Home; })
                   : L;
      Charge(Home, RunEnd - L + 1);
      L = RunEnd + 1;
    }
  }
  return Lines;
}

double NumaSimulator::segmentCost(unsigned Proc, const AccessPlan &A,
                                  const int64_t *Start, int64_t Length,
                                  RunState &S) const {
  if (A.Failed)
    std::rethrow_exception(A.Failed);
  SmallVec<int64_t, 4> End(A.Stride.size());
  A.segmentEnd(Start, Length, End.data());

  unsigned MyCluster = clusterOfProc(Proc);
  bool AllLocal = S.AllLocal || A.Kind == ArrayPlacement::Kind::Replicated;
  double Cost = 0.0;
  int64_t Lines = A.linesOf(Length);
  // Charges \p N lines homed on cluster \p Home.
  auto Charge = [&](unsigned Home, int64_t N) {
    bool Local = AllLocal || Home == MyCluster;
    double &Fetches =
        Local ? S.Res.LocalLineFetches : S.Res.RemoteLineFetches;
    // Unplanned message-passing: every remote line is a message. Planned
    // messages are counted when the schedule's ops are charged.
    bool Messages = !Local && M.MessagePassing && !S.PlannedComm;
    // Under a planned schedule the data arrived in a pre-posted bulk
    // message: the line moves at the hardware rate, and the software
    // overhead is charged once per planned message in plannedComm().
    // Without a plan every remote line is a demand-driven fetch paying
    // the full per-message software overhead; amortizing it over bulk
    // transfers is exactly what the planned schedule buys.
    double Latency = Local ? M.LocalCycles
                     : S.PlannedComm ? M.RemoteCycles
                                     : M.remoteLineCost();
    double Count = static_cast<double>(N);
    // A segment on one home is one product; one that crosses clusters
    // (N < Lines) sums its lines one by one, so a run of them is one
    // product only where that is exact (exactSum).
    if (N < Lines &&
        !(Latency >= 0 && std::isfinite(Latency) &&
          exactSum(Cost, Count * Latency, grainExp(Latency)) &&
          exactSum(Fetches, Count, 0) &&
          (!Messages || exactSum(S.Res.MessagesSent, Count, 0)))) {
      for (int64_t L = 0; L != N; ++L) {
        Fetches += 1;
        if (Messages)
          S.Res.MessagesSent += 1;
        Cost += Latency;
      }
      return;
    }
    Fetches += Count;
    if (Messages)
      S.Res.MessagesSent += Count;
    Cost += Count * Latency;
  };
  A.chargeLines(Start, End.data(), Length, AllLocal, Charge);
  Cost += (Length - Lines) * M.CacheCycles;
  S.Res.CacheAccesses += Length - Lines;
  return Cost;
}

bool NumaSimulator::costRuns(unsigned Proc, const NestPlan &Plan,
                             int64_t *Outer, int64_t XLo, int64_t XHi,
                             int64_t RangeLo, int64_t RangeHi, RunState &S,
                             double &Total) const {
  unsigned X = Plan.Depth - 2, I = Plan.Depth - 1;
  double RemoteCost = S.PlannedComm ? M.RemoteCycles : M.remoteLineCost();
  bool CountMessages = M.MessagePassing && !S.PlannedComm;
  // Every line cost is a multiple of 2^Grain (work costs are integers).
  int Grain = 0;
  for (double C : {M.LocalCycles, RemoteCost, M.CacheCycles}) {
    if (!(C >= 0) || !std::isfinite(C))
      return false;
    Grain = std::min(Grain, grainExp(C));
  }
  // Whether adding these sums to the counters they go to is exact in any
  // order (exactSum). With nothing to add: whether any run can be.
  auto Exact = [&](double Compute, double Memory, double Cache, double Local,
                   double Remote) {
    return exactSum(Total, Compute + Memory, Grain) &&
           exactSum(S.Res.ComputeCycles, Compute, 0) &&
           exactSum(S.Res.MemoryCycles, Memory, Grain) &&
           exactSum(S.Res.CacheAccesses, Cache, 0) &&
           exactSum(S.Res.LocalLineFetches, Local, 0) &&
           exactSum(S.Res.RemoteLineFetches, Remote, 0) &&
           (!CountMessages || exactSum(S.Res.MessagesSent, Remote, 0));
  };
  if (!Exact(0, 0, 0, 0, 0) ||
      static_cast<__int128>(XHi) - XLo >= int64_t(1) << 62)
    return false;
  // Sums past this cannot be exact doubles; stop counting them early.
  constexpr __int128 Cap = static_cast<__int128>(1) << 100;

  // Every index and bound computed here, with the walk's checked
  // arithmetic, is one the value-by-value walk computes too: the ends of a
  // stretch over which it is affine, so it overflows at an end if anywhere
  // in between. An overflow raised here is the walk's, in its words.

  // The innermost bounds as affine functions of x: value at XLo and slope.
  struct Term {
    int64_t V0, Slope;
  };
  SmallVec<Term, 8> Lower, Upper;
  auto Collect = [&](const std::vector<IntAffine> &Src, bool IsUpper,
                     int64_t Range, SmallVec<Term, 8> &Dst) {
    for (const IntAffine &T : Src) {
      auto At = [&](int64_t V) {
        Outer[X] = V;
        return IsUpper ? T.floorAt(Outer) : T.ceilAt(Outer);
      };
      At(XHi);
      Dst.push_back({At(XLo), T.Coeffs[X] / T.Den});
    }
    Dst.push_back({Range, 0});
  };
  Collect(Plan.Lower[I], false, RangeLo, Lower);
  Collect(Plan.Upper[I], true, RangeHi, Upper);
  auto Val = [&](const Term &T, int64_t V) {
    return T.V0 + static_cast<__int128>(T.Slope) * (V - XLo);
  };

  __int128 Len = 0, Local = 0, Remote = 0, Cache = 0;
  uint64_t Runs = 0;
  unsigned MyCluster = clusterOfProc(Proc);
  SmallVec<int64_t, 4> Start, End, Probe, ProbeEnd;
  SmallVec<__int128, 4> Step, EndStep;

  // One piece [P0, P1] of loop X: the same lower term L and upper term H
  // win throughout, so Lo(x) and Len(x) = Len0 + N (x - P0) are affine,
  // and Len(x) >= 1.
  auto Piece = [&](int64_t P0, int64_t P1, const Term &L, const Term &H,
                   __int128 Len0, __int128 N) {
    auto LoAt = [&](int64_t V) { return static_cast<int64_t>(Val(L, V)); };
    auto LenAt = [&](int64_t V) { return Len0 + N * (V - P0); };
    for (int64_t V : {P0, P1})
      checkedAdd64(checkedSub64(static_cast<int64_t>(Val(H, V)), LoAt(V),
                                Arith),
                   1, Arith);
    if (std::max(LenAt(P0), LenAt(P1)) * (P1 - P0 + 1) > Cap)
      return false;
    // Accesses and lines over the values [V, W] of the piece.
    auto SumLen = [&](int64_t V, int64_t W) {
      __int128 Count = W - V + 1;
      return Count * LenAt(V) + N * (Count * (Count - 1) / 2);
    };
    auto SumLines = [&](const AccessPlan &A, int64_t V, int64_t W) {
      __int128 Count = W - V + 1;
      if (N == 0 || !A.ElemsPerLine)
        return Count * A.linesOf(static_cast<int64_t>(LenAt(V)));
      // Lines(x) = (Len(x) - 1) / ElemsPerLine + 1, summed from the end
      // where Len is smallest.
      if (N >= 0)
        return Count + floorSum(Count, A.ElemsPerLine, N, LenAt(V) - 1);
      return Count + floorSum(Count, A.ElemsPerLine, -N, LenAt(W) - 1);
    };
    Len += SumLen(P0, P1);

    for (const AccessPlan &A : Plan.Accesses) {
      bool AllLocal = S.AllLocal || A.Kind == ArrayPlacement::Kind::Replicated;
      auto Charge = [&](unsigned Home, __int128 Lines) {
        (AllLocal || Home == MyCluster ? Local : Remote) += Lines;
      };
      unsigned Rank = A.Rows.size();
      // The start and end indices are affine in x over the piece; compute
      // them as the walk does at both ends, where they overflow if
      // anywhere. Within the piece each steps by XStep plus the innermost
      // stride times the slope of the lower bound (and of the length, for
      // the end); both steps are below 2^64, as the ends are int64.
      for (SmallVec<int64_t, 4> *Idx : {&Start, &End, &Probe, &ProbeEnd})
        Idx->resize(Rank);
      for (auto [V, Idx, EndIdx] :
           {std::tuple(P1, &Probe, &ProbeEnd), std::tuple(P0, &Start, &End)}) {
        Outer[X] = V;
        Outer[I] = LoAt(V);
        for (unsigned D = 0; D != Rank; ++D)
          (*Idx)[D] = A.Rows[D].floorAt(Outer);
        A.segmentEnd(Idx->data(), static_cast<int64_t>(LenAt(V)),
                     EndIdx->data());
      }
      Step.resize(Rank);
      EndStep.resize(Rank);
      bool AnyNeg = false, AnyPos = false;
      for (unsigned D = 0; D != Rank; ++D) {
        Step[D] = EndStep[D] = 0; // A one-value piece takes no step.
        if (P1 != P0) {
          Step[D] = A.XStep[D] + static_cast<__int128>(A.Stride[D]) * L.Slope;
          EndStep[D] = Step[D] + A.Stride[D] * N;
        }
        for (__int128 St : {Step[D], EndStep[D]}) {
          AnyNeg |= St < 0;
          AnyPos |= St > 0;
        }
      }
      // Each home moves one way along x (a blocked home always does), so
      // the values where start and end share a home are one stretch.
      bool Monotone =
          A.Kind == ArrayPlacement::Kind::BlockedDim || !(AnyNeg && AnyPos);
      auto Homes = [&](int64_t V) {
        for (unsigned D = 0; D != Rank; ++D) {
          Probe[D] = static_cast<int64_t>(Start[D] + Step[D] * (V - P0));
          ProbeEnd[D] = static_cast<int64_t>(End[D] + EndStep[D] * (V - P0));
        }
        return std::pair(A.homeOf(Probe.data()), A.homeOf(ProbeEnd.data()));
      };

      for (int64_t V = P0;;) {
        int64_t Last = V;
        __int128 Lines;
        if (AllLocal) {
          Last = P1;
          Lines = SumLines(A, V, Last);
          Charge(0, Lines);
        } else if (auto [HS, HE] = Homes(V); HS == HE) {
          // (a) A run of segments that each lie on home HS; most runs
          // reach the end of the piece, so that is tried first.
          auto OnHS = [&, HS = HS](int64_t W) {
            return Homes(W) == std::pair(HS, HS);
          };
          if (Monotone)
            Last = OnHS(P1) ? P1 : lastWhile(V, P1, OnHS);
          Lines = SumLines(A, V, Last);
          Charge(HS, Lines);
        } else if (A.Kind == ArrayPlacement::Kind::BlockedDim &&
                   Step[A.Dim] == 0 && EndStep[A.Dim] == 0) {
          // (b) The blocked index and the length stay put: every segment
          // left in the piece splits like this one.
          Last = P1;
          __int128 Count = P1 - V + 1;
          int64_t SegLen = static_cast<int64_t>(LenAt(V));
          Lines = Count * A.chargeLines(Probe.data(), ProbeEnd.data(), SegLen,
                                        false,
                                        [&](unsigned Home, int64_t N) {
                                          Charge(Home, N * Count);
                                        });
        } else {
          int64_t SegLen = static_cast<int64_t>(LenAt(V));
          Lines = A.chargeLines(Probe.data(), ProbeEnd.data(), SegLen, false,
                                Charge);
        }
        Cache += SumLen(V, Last) - Lines;
        ++Runs;
        if (Last == P1)
          break;
        V = Last + 1;
      }
    }
    return Len <= Cap && Local <= Cap && Remote <= Cap && Cache <= Cap;
  };

  // Split [XLo, XHi] where a bound term takes over or the innermost range
  // turns empty or non-empty. Past its value at P0, a term with a larger
  // slope than the winning lower bound overtakes it after Gap / dSlope
  // values; likewise for the upper bound.
  for (int64_t P0 = XLo;;) {
    const Term *L = &Lower[0], *H = &Upper[0];
    for (const Term &T : Lower)
      if (Val(T, P0) > Val(*L, P0) ||
          (Val(T, P0) == Val(*L, P0) && T.Slope > L->Slope))
        L = &T;
    for (const Term &T : Upper)
      if (Val(T, P0) < Val(*H, P0) ||
          (Val(T, P0) == Val(*H, P0) && T.Slope < H->Slope))
        H = &T;
    __int128 P1 = XHi;
    for (const Term &T : Lower)
      if (T.Slope > L->Slope)
        P1 = std::min<__int128>(
            P1, P0 + (Val(*L, P0) - Val(T, P0)) /
                         (static_cast<__int128>(T.Slope) - L->Slope));
    for (const Term &T : Upper)
      if (T.Slope < H->Slope)
        P1 = std::min<__int128>(
            P1, P0 + (Val(T, P0) - Val(*H, P0)) /
                         (static_cast<__int128>(H->Slope) - T.Slope));
    __int128 Len0 = Val(*H, P0) - Val(*L, P0) + 1;
    __int128 N = static_cast<__int128>(H->Slope) - L->Slope;
    if (Len0 >= 1) {
      if (N < 0)
        P1 = std::min<__int128>(P1, P0 + (Len0 - 1) / -N);
      if (!Piece(P0, static_cast<int64_t>(P1), *L, *H, Len0, N))
        return false;
    } else if (N > 0) {
      P1 = std::min<__int128>(P1, P0 + -Len0 / N);
    }
    if (P1 == XHi)
      break;
    P0 = static_cast<int64_t>(P1) + 1;
  }

  // Commit the runs as one sum per counter if each is exact; otherwise the
  // caller walks the values one by one.
  double WorkSum = 0.0;
  for (const NestPlan::StmtPlan &Stmt : Plan.Stmts)
    WorkSum += Stmt.Work;
  auto D = [](__int128 V) { return static_cast<double>(V); };
  double Compute = WorkSum * D(Len);
  double Memory = D(Local) * M.LocalCycles + D(Remote) * RemoteCost +
                  D(Cache) * M.CacheCycles;
  if (!Exact(Compute, Memory, D(Cache), D(Local), D(Remote)))
    return false;
  Total += Compute + Memory;
  S.Res.ComputeCycles += Compute;
  S.Res.MemoryCycles += Memory;
  S.Res.CacheAccesses += D(Cache);
  S.Res.LocalLineFetches += D(Local);
  S.Res.RemoteLineFetches += D(Remote);
  if (CountMessages)
    S.Res.MessagesSent += D(Remote);
  S.Segments += Runs;
  return true;
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

  // One value of every outer loop: the innermost loop is costed as one
  // segment per statement access.
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
        ++S.Segments;
      }
    }
  };
  if (Depth == 1) {
    Innermost();
    return Total;
  }

  // Loop Depth-2 under fixed outer loops: in runs where costRuns can prove
  // the sums exact, else one value at a time.
  unsigned X = Depth - 2;
  auto SecondInnermost = [&] {
    auto [XLo, XHi] = RangeFor(X);
    if (XLo > XHi)
      return;
    if (Plan.Runs && costRuns(Proc, Plan, Outer.data(), XLo, XHi,
                              RangeLo[X + 1], RangeHi[X + 1], S, Total))
      return;
    for (int64_t V = XLo; V <= XHi; ++V) {
      Outer[X] = V;
      Innermost();
    }
  };
  if (Depth == 2) {
    SecondInnermost();
    return Total;
  }

  // Odometer over the loops outside X. Outer[L] keeps the last value loop
  // L took, as the bounds of later visits see it.
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
    if (Level + 1 == X) {
      SecondInnermost();
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
      Keep.Segments = ThenS.Segments + ElseS.Segments - S.Segments;
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
  Observe.count("sim.segments", S.Segments);
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
