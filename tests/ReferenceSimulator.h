//===- tests/ReferenceSimulator.h - Line-walking oracle ---------*- C++ -*-===//
///
/// \file
/// A test-only copy of the NUMA simulator with its original costing: every
/// segment re-evaluates its access map and loop bounds in Rational
/// arithmetic, and a segment that crosses clusters is walked line by line.
/// It takes a configured NumaSimulator's placements and schedules and must
/// produce the same SimResult field for field.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_TESTS_REFERENCESIMULATOR_H
#define ALP_TESTS_REFERENCESIMULATOR_H

#include "machine/NumaSimulator.h"

namespace alp {

class ReferenceSimulator {
public:
  ReferenceSimulator(const Program &P, const MachineParams &M,
                     const NumaSimulator::Config &Cfg);

  SimResult run(unsigned NumProcs);
  double sequentialCycles();

private:
  const Program &P;
  MachineParams M;
  NumaSimulator::Config Cfg;

  struct RunState {
    unsigned Procs = 1;
    bool AllLocal = false;
    bool PlannedComm = false;
    std::map<unsigned, ArrayPlacement> Current;
    std::map<std::string, Rational> Bindings;
    SimResult Res;
  };

  unsigned clusterOfProc(unsigned Proc) const;
  unsigned homeCluster(unsigned ArrayId, const ArrayPlacement &Placement,
                       const std::vector<int64_t> &Index,
                       const RunState &S) const;
  double segmentCost(unsigned Proc, unsigned ArrayId,
                     const std::vector<int64_t> &Start,
                     const std::vector<int64_t> &StridePerIter,
                     int64_t Length, RunState &S) const;
  struct LoopRange {
    unsigned Level;
    int64_t Lo, Hi;
  };
  double chunkCost(unsigned Proc, const LoopNest &Nest,
                   const std::vector<LoopRange> &Ranges, RunState &S) const;
  void runNodes(const std::vector<ProgramNode> &Nodes, RunState &S);
  void runNest(unsigned NestId, RunState &S);
  void reorganizeIfNeeded(unsigned NestId, RunState &S);
  void plannedNestComm(unsigned NestId, RunState &S) const;
  std::pair<int64_t, int64_t> loopBounds(const LoopNest &Nest, unsigned Level,
                                         const std::vector<int64_t> &Outer,
                                         const RunState &S) const;
};

} // namespace alp

#endif // ALP_TESTS_REFERENCESIMULATOR_H
