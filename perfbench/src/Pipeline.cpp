//===- perfbench/src/Pipeline.cpp - compile_corpus and simulate_corpus -----===//
//
// runLayered replays core/CompileSession.cpp's pipeline for the selections
// the corpus workloads use, calling each layer's public function from here
// so its time can be taken from outside. Every format string and the order
// of prints, checks and early returns follow CompileSession::run; the
// traced run compares the bytes of both on every unit, so any drift shows
// as a failed output check.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "alp.h"
#include "analysis/Lint.h"
#include "service/DecompositionCache.h"
#include "support/Status.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

using namespace alp;
using namespace bench;

UnitOutput bench::runSession(const CompileRequest &Req) {
  char *OutBuf = nullptr, *ErrBuf = nullptr;
  size_t OutLen = 0, ErrLen = 0;
  std::FILE *Out = open_memstream(&OutBuf, &OutLen);
  std::FILE *Err = open_memstream(&ErrBuf, &ErrLen);
  if (!Out || !Err)
    throw std::runtime_error("open_memstream failed");
  UnitOutput U;
  U.Exit = CompileSession::run(Req, Out, Err).ExitCode;
  std::fclose(Out);
  std::fclose(Err);
  U.Out.assign(OutBuf, OutLen);
  U.Err.assign(ErrBuf, ErrLen);
  std::free(OutBuf);
  std::free(ErrBuf);
  return U;
}

namespace {

/// Adds each span's self time (its duration minus the time its direct
/// children on the same thread cover) to \p Out, for the names wanted.
void addSpanSelfTimes(const std::vector<Tracer::Event> &Events,
                      std::map<std::string, double> &Out) {
  static const std::set<std::string> Wanted(decomposeSubRows().begin(),
                                            decomposeSubRows().end());
  struct Open {
    const Tracer::Event *E;
    uint64_t ChildNs;
  };
  std::map<uint32_t, std::vector<Open>> Stacks;
  auto Close = [&](const Open &O) {
    if (Wanted.count(O.E->Name))
      Out[O.E->Name] += static_cast<double>(O.E->DurNs - std::min(O.ChildNs, O.E->DurNs)) / 1e6;
  };
  for (const Tracer::Event &E : Events) { // Parents precede children.
    std::vector<Open> &S = Stacks[E.Tid];
    while (!S.empty() && S.back().E->StartNs + S.back().E->DurNs <= E.StartNs) {
      Close(S.back());
      S.pop_back();
    }
    if (!S.empty())
      S.back().ChildNs += E.DurNs;
    S.push_back({&E, 0});
  }
  for (auto &[Tid, S] : Stacks)
    for (const Open &O : S)
      Close(O);
}

double spanTotalMs(const std::vector<Tracer::Event> &Events, const char *Name,
                   uint64_t FromNs, uint64_t ToNs, uint64_t *Count = nullptr) {
  double Ms = 0;
  for (const Tracer::Event &E : Events)
    if (std::string(E.Name) == Name && E.StartNs >= FromNs &&
        E.StartNs + E.DurNs <= ToNs) {
      Ms += static_cast<double>(E.DurNs) / 1e6;
      if (Count)
        ++*Count;
    }
  return Ms;
}

} // namespace

UnitOutput bench::runLayered(const CompileRequest &Req, Layers &L,
                             DecomposeAgreement &A) {
  if (Req.DoLint || Req.DoFuse || Req.DoIr || Req.DoDeps || Req.DoSpmd ||
      Req.DoComm || Req.Format != DiagFormat::Text ||
      (!Req.EmitMode.empty() && Req.EmitMode != "spmd"))
    throw std::logic_error("runLayered: unsupported request selection");

  UnitOutput U;
  Tracer Trace;
  MetricsRegistry Metrics;
  DriverOptions Opts = Req.Driver;
  Opts.Observe = TraceContext{&Trace, &Metrics};
  const TraceContext CountOnly{nullptr, &Metrics};

  auto Finish = [&](int Exit) -> UnitOutput & {
    U.Exit = Exit;
    std::vector<Tracer::Event> Events = Trace.events();
    addSpanSelfTimes(Events, L.SubSelfMs);
    A.SpanMs += spanTotalMs(Events, "driver.decompose", 0, UINT64_MAX);
    for (const char *C : {"dep.pairs", "dep.tier2_exact_tested",
                          "dynamic.joins_attempted", "dynamic.joins_kept",
                          "comm.messages", "comm.elements"})
      L.count(C, static_cast<double>(Metrics.counter(C)));
    return U;
  };
  auto RunStage = [&](const char *StageName, const auto &Fn) -> bool {
    try {
      Fn();
      return true;
    } catch (...) {
      Status S = statusFromCurrentException();
      U.Err += format("error: %s failed: %s\n", StageName, S.str().c_str());
      return false;
    }
  };

  DiagnosticEngine OwnDiags;
  const DiagnosticEngine *Diags =
      Req.PreParsedDiags ? Req.PreParsedDiags.get() : &OwnDiags;
  std::optional<Program> Prog;
  if (Req.PreParsed) // The caller timed its keying parse as frontend.
    Prog = *Req.PreParsed;
  else
    Prog = L.time("frontend", [&] { return compileDsl(Req.Source, OwnDiags); });
  for (const Diagnostic &D : Diags->diagnostics())
    U.Err += Req.FileName + ":" + D.str() + "\n";
  if (!Prog)
    return Finish(1);
  Program P = std::move(*Prog);
  L.count("ir.nests", static_cast<double>(P.nestsInOrder().size()));
  for (unsigned Id : P.nestsInOrder())
    L.count("ir.accesses", static_cast<double>(P.nest(Id).accesses().size()));

  MachineParams M;
  M.NumProcs = Req.Procs;
  M.BlockSize = Req.Block;
  if (Req.MachineName == "touchstone") {
    M.ProcsPerCluster = 1;
    M.MessagePassing = true;
  }
  CodegenOptions CG = CodegenOptions::forMachine(M);
  CG.Miscompile = Req.Miscompile;

  auto Outside0 = Clock::now();
  Expected<ProgramDecomposition> R = L.time(
      "core.decompose", [&] { return decomposeOrError(P, M, Opts); });
  A.OutsideMs += msBetween(Outside0, Clock::now());
  if (!R.hasValue()) {
    U.Err += format("error: decomposition failed: %s\n",
                    R.status().str().c_str());
    return Finish(3);
  }
  ProgramDecomposition PD = R.takeValue();
  U.Out += L.time("core.report", [&] { return printDecomposition(P, PD); });

  auto LintBase = [&](ResourceBudget &Budget) {
    LintOptions LO;
    LO.CheckRaces = false;
    LO.CheckModel = false;
    LO.CheckDecomposition = false;
    LO.CheckSchedule = false;
    LO.BlockSize = CG.BlockSize;
    LO.Budget = &Budget;
    LO.Miscompile = Req.Miscompile;
    LO.Observe = CountOnly;
    return LO;
  };

  if (!Req.EmitMode.empty() && Req.SelSchedule) {
    ResourceBudget Budget = Opts.Budget;
    LintOptions LO = LintBase(Budget);
    LO.CheckSchedule = true;
    LintResult LR;
    if (!RunStage("schedule verification", [&] {
          LR = L.time("analysis.schedule_verify",
                      [&] { return runLintPasses(P, &PD, LO); });
        }))
      return Finish(3);
    if (LR.hasErrors() || (Req.WError && LR.hasWarnings())) {
      for (const Diagnostic &D : LR.Diags)
        U.Err += "schedule: " + D.strWithNotes() + "\n";
      return Finish(1);
    }
  }

  if (!Req.EmitMode.empty() && !RunStage("codegen", [&] {
        // The planner runs inside emitSpmd; its own codegen.plan_comm span
        // splits the call into planning and emission self time.
        CodegenOptions MsgCG = CG;
        MsgCG.EmitMessages = true;
        MsgCG.Observe = TraceContext{&Trace, &Metrics};
        uint64_t From = Trace.nowNs();
        auto T0 = Clock::now();
        std::string Text = emitSpmd(P, PD, MsgCG);
        double Ms = msBetween(T0, Clock::now());
        uint64_t PlanCalls = 0;
        double PlanMs = spanTotalMs(Trace.events(), "codegen.plan_comm", From,
                                    Trace.nowNs(), &PlanCalls);
        L.add("codegen.plan_comm", PlanMs, PlanCalls);
        L.add("codegen.emit_spmd", Ms - PlanMs);
        L.count("spmd.bytes", static_cast<double>(Text.size()));
        U.Out += "\n=== SPMD (message passing) ===\n" + Text;
      }))
    return Finish(3);

  if (Req.DoVerify) {
    // One runLintPasses call with both families equals the two calls
    // below: the passes run in registry order (decomp, schedule) against
    // one shared budget, and the merged diagnostics are re-normalized.
    ResourceBudget Budget = Opts.Budget;
    LintOptions LO = LintBase(Budget);
    LO.ScheduleBlockSize = M.BlockSize;
    LintOptions DecompLO = LO, SchedLO = LO;
    DecompLO.CheckDecomposition = Req.SelDecomp;
    SchedLO.CheckSchedule = Req.SelSchedule;
    LintResult LR;
    if (!RunStage("verification", [&] {
          LR = L.time("analysis.decomp_verify",
                      [&] { return runLintPasses(P, &PD, DecompLO); });
          LintResult S = L.time("analysis.schedule_verify",
                                [&] { return runLintPasses(P, &PD, SchedLO); });
          LR.Diags.insert(LR.Diags.end(), S.Diags.begin(), S.Diags.end());
          LR.Unchecked.insert(LR.Unchecked.end(), S.Unchecked.begin(),
                              S.Unchecked.end());
          normalizeLintDiagnostics(LR.Diags);
        }))
      return Finish(3);
    if (!LR.hasErrors() && !(Req.WError && LR.hasWarnings())) {
      U.Out += "\nverify: all decomposition invariants hold\n";
    } else {
      for (const Diagnostic &D : LR.Diags)
        U.Err += "verify: " + D.strWithNotes() + "\n";
      return Finish(1);
    }
  }

  if (Req.DoSim && !RunStage("simulation", [&] {
        auto T0 = Clock::now();
        NumaSimulator Sim(P, M);
        double SetupMs = msBetween(T0, Clock::now());
        if (M.MessagePassing) {
          CodegenOptions PlanCG = CG;
          PlanCG.Observe = CountOnly;
          Sim.setCommSchedule(L.time("codegen.plan_comm", [&] {
            return planCommunication(P, PD, PlanCG).schedule();
          }));
        }
        T0 = Clock::now();
        applyDecomposition(Sim, P, PD);
        double Seq = Sim.sequentialCycles();
        L.add("machine.sim_setup", SetupMs + msBetween(T0, Clock::now()));
        U.Out += format("\n=== simulation (machine: %s, %u procs) ===\n",
                        Req.MachineName.c_str(), Req.Procs);
        U.Out += format("sequential: %.3g cycles\n", Seq);
        SimResult Last;
        for (unsigned Pr = 1; Pr <= Req.Procs; Pr *= 2) {
          SimResult SR = L.time("machine.sim_run", [&] { return Sim.run(Pr); });
          U.Out += format("%3u procs: %12.3g cycles  speedup %6.2f  "
                          "(reorg %.2g, sync %.2g, remote lines %.3g",
                          Pr, SR.Cycles, Seq / SR.Cycles, SR.ReorgCycles,
                          SR.SyncCycles, SR.RemoteLineFetches);
          if (M.MessagePassing)
            U.Out += format(", msgs %.3g", SR.MessagesSent);
          U.Out += ")\n";
          Last = SR;
        }
        L.count("sim.remote_lines", Last.RemoteLineFetches);
        L.count("sim.messages", Last.MessagesSent);
      }))
    return Finish(3);

  if (PD.degraded()) {
    U.Err += PD.degradationReport();
    U.Err += format("note: decomposition is sound but degraded (%zu stage "
                    "fallback(s))\n",
                    PD.Degradations.size());
    return Finish(4);
  }
  return Finish(0);
}

//===----------------------------------------------------------------------===//
// The corpus workloads
//===----------------------------------------------------------------------===//

namespace {

/// Size of the seeded generator share of compile_corpus: large enough that
/// its p99 spans some thirty distinct programs.
constexpr uint64_t CompileGenerated = 3000, SelfCheckGenerated = 6;
/// simulate_corpus's generated programs: six per family from the seed-7
/// corpus, spread over the measured `--simulate` cost of the family's first
/// 24 programs that simulate in under 300 ms on the reference box (4-core
/// Intel Xeon), listed family by family, cheapest first. Their costs there
/// run from 1 to 290 ms; the paper programs add 27-204 ms. Costlier
/// programs (0.3-5.6 s; 7 to 15 of the 24 in every family but cycle and
/// imperfect) are left out: a sample with seven of them spent four fifths
/// of each pass on them, so a 30 s run timed every program only four times
/// and its p50 and tail moved 15-30% from run to run. The sample is fixed,
/// and --seed only orders it: seeded draws of heavy-tailed costs moved
/// every figure 20-55% between seeds. The degraded programs among them
/// (exit 4) stay in.
constexpr uint64_t SimulateCorpusSeed = 7;
const std::vector<uint64_t> SimulatePrograms = {
    18,  126, 114, 54,  108, 132, // triangular
    61,  1,   73,  79,  55,  121, // wavefront
    128, 98,  38,  32,  110, 140, // cycle
    141, 111, 21,  63,  69,  99,  // broadcast
    34,  16,  10,  94,  82,  4,   // imperfect
    11,  77,  83,  113, 29,  47,  // adversarial
};
constexpr unsigned SetupReps = 11;
/// Calibration samples (taken every 250 ms) that scale one unit's time.
constexpr size_t RecentSamples = 5;

struct Corpus {
  std::vector<Input> Inputs;
  std::vector<CompileRequest> Requests;
  std::vector<std::string> Expected; ///< Golden stdout, or empty.
};

Corpus buildCorpus(const Options &O, bool Simulate) {
  Corpus C;
  if (Simulate) {
    C.Inputs = generatedPrograms(
        SimulateCorpusSeed,
        O.SelfCheck ? std::vector<uint64_t>(SimulatePrograms.begin(),
                                            SimulatePrograms.begin() + 2)
                    : SimulatePrograms);
    for (Input &In :
         paperPrograms(O.Root, {"conduct", "fig1", "fig5", "adi"}))
      C.Inputs.push_back(std::move(In));
  } else {
    C.Inputs = generatedPrograms(
        O.Seed, 0, O.SelfCheck ? SelfCheckGenerated : CompileGenerated);
    for (Input &In : paperPrograms(O.Root))
      C.Inputs.push_back(std::move(In));
    for (Input &In : promotedTemplates(O.Root))
      C.Inputs.push_back(std::move(In));
    for (Input &In : examplePrograms(O.Root))
      C.Inputs.push_back(std::move(In));
  }
  for (size_t I = 0; I != C.Inputs.size(); ++I) {
    const Input &In = C.Inputs[I];
    CompileRequest Req;
    Req.FileName = In.Name;
    Req.Source = In.Source;
    if (Simulate) {
      // Alternate machines so both the cache-line walk (dash) and the
      // planned-message costing (touchstone) are timed.
      Req.MachineName = I % 2 ? "touchstone" : "dash";
      Req.DoSim = true;
    } else {
      Req.MachineName = "touchstone";
      Req.EmitMode = "spmd";
      Req.DoVerify = true;
    }
    C.Requests.push_back(std::move(Req));
    C.Expected.push_back(Simulate ? "" : goldenStdout(O.Root, In));
  }
  return C;
}

/// What is kept of a program's first output: later passes must match its
/// digest. Keeping no bytes leaves peak_rss_mb to the compiler.
struct Outcome {
  int Exit = 0;
  uint64_t Digest = 0;
  std::optional<double> Speedup;
};

uint64_t outputDigest(const UnitOutput &U) {
  return fnv1aHash(std::to_string(U.Exit) + '\0' + U.Out + '\0' + U.Err);
}

/// The speedup printed on the last (largest processor count) line.
std::optional<double> lastSpeedup(const std::string &Out) {
  size_t Pos = Out.rfind("speedup ");
  if (Pos == std::string::npos)
    return std::nullopt;
  return std::strtod(Out.c_str() + Pos + 8, nullptr);
}

} // namespace

RunReport bench::runCorpusWorkload(const Options &O, bool Simulate) {
  RunReport R;
  std::vector<double> SetupS;
  Corpus C;
  // Kernel samples bracket every set-up and scale setup_s.
  Calibration SetupCal;
  SetupCal.sample();
  for (unsigned Rep = 0; Rep != (O.SelfCheck ? 1 : SetupReps); ++Rep) {
    auto T0 = Clock::now();
    C = buildCorpus(O, Simulate);
    SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
    SetupCal.sample();
  }
  const size_t N = C.Inputs.size();
  R.line("inputs: " + std::to_string(N) + " (" + composition(C.Inputs) + ")");

  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  shuffleInPlace(Order, O.Seed);

  std::vector<std::optional<Outcome>> First(N);
  std::vector<std::vector<double>> LatMs(N), ScaledMs(N);
  std::vector<double> UntracedMs, TracedMs;
  uint64_t FailUnits = 0, DegradedUnits = 0;
  Layers L;
  DecomposeAgreement Agree;

  // Whole passes only, so every run weighs the inputs alike.
  auto Start = Clock::now(), PassStart = Start;
  std::vector<double> PassS;
  Calibration Cal;
  std::vector<size_t> PassFrom = {0}; // First calibration sample per pass.
  for (size_t K = 0;; ++K) {
    if (K % N == 0 && K > 0) {
      PassS.push_back(msBetween(PassStart, Clock::now()) / 1e3);
      PassStart = Clock::now();
      if (O.SelfCheck || msBetween(Start, PassStart) >= O.Seconds * 1e3)
        break;
      PassFrom.push_back(Cal.size());
    }
    Cal.sampleIfDue();
    size_t I = Order[K % N];
    const CompileRequest &Req = C.Requests[I];
    ++R.Attempted;
    bool Failed = false;
    UnitOutput U;
    auto T0 = Clock::now();
    try {
      U = runSession(Req);
    } catch (const std::exception &E) {
      Failed = true;
      R.fail(Req.FileName + ": session threw: " + E.what());
    }
    auto T1 = Clock::now();
    LatMs[I].push_back(msBetween(T0, T1));
    // Contention drifts within seconds: scale by the last few samples.
    ScaledMs[I].push_back(
        msBetween(T0, T1) *
        Cal.factor(Cal.size() > RecentSamples ? Cal.size() - RecentSamples : 0));
    if (O.Trace && !Failed) {
      UntracedMs.push_back(msBetween(T0, T1));
      auto T2 = Clock::now();
      try {
        Layers UnitL;
        UnitOutput V = runLayered(Req, UnitL, Agree);
        TracedMs.push_back(msBetween(T2, Clock::now()));
        // Counters describe the corpus, so each program counts once.
        L.merge(UnitL, /*WithCounts=*/!First[I]);
        if (!(V == U)) {
          Failed = true;
          R.fail(Req.FileName + ": traced output differs from CompileSession::run");
        }
      } catch (const std::exception &E) {
        Failed = true;
        R.fail(Req.FileName + ": traced replay threw: " + E.what());
      }
    }
    const uint64_t Digest = outputDigest(U);
    if (!Failed && !First[I])
      First[I] = Outcome{U.Exit, Digest,
                         Simulate ? lastSpeedup(U.Out) : std::nullopt};
    else if (!Failed && (First[I]->Exit != U.Exit || First[I]->Digest != Digest)) {
      Failed = true;
      R.fail(Req.FileName + ": output differs between passes");
    }
    if (!Failed && !C.Expected[I].empty() &&
        (U.Exit != 0 || U.Out != C.Expected[I])) {
      Failed = true;
      R.fail(Req.FileName + ": SPMD differs from testdata/codegen golden");
    }
    if (Failed)
      ++R.Failed;
    if (Failed || U.Exit == 1 || U.Exit == 3)
      ++FailUnits;
    else if (U.Exit == 4)
      ++DegradedUnits;
  }
  std::string Passes;
  for (double P : PassS)
    Passes += format(" %.3f", P);
  R.line("pass seconds:" + Passes);

  // Known compiler outcomes, by name, and the digest of every output.
  std::string Rejected, Degraded, DigestBytes;
  std::vector<double> LogSpeedups;
  for (size_t I = 0; I != N; ++I) {
    if (!First[I])
      continue;
    const Outcome &U = *First[I];
    if (U.Exit == 1 || U.Exit == 3)
      Rejected += format(" %s(exit %d)", C.Inputs[I].Name.c_str(), U.Exit);
    if (U.Exit == 4)
      Degraded += " " + C.Inputs[I].Name;
    DigestBytes += C.Inputs[I].Name + '\0' +
                   format("%016llx", static_cast<unsigned long long>(U.Digest));
    if (U.Speedup && *U.Speedup > 0)
      LogSpeedups.push_back(std::log(*U.Speedup));
  }
  R.line("programs failing (exit 1/3):" + (Rejected.empty() ? " none" : Rejected));
  R.line("programs degraded (exit 4):" + (Degraded.empty() ? " none" : Degraded));
  R.line(format("output_digest: %016llx",
                static_cast<unsigned long long>(fnv1aHash(DigestBytes))));

  double FailShare = R.Attempted ? double(FailUnits) / R.Attempted : 0;
  double DegradedShare = R.Attempted ? double(DegradedUnits) / R.Attempted : 0;
  double Geomean = 0;
  if (!LogSpeedups.empty())
    Geomean = std::exp(std::accumulate(LogSpeedups.begin(), LogSpeedups.end(), 0.0) /
                       LogSpeedups.size());

  if (!O.Trace) {
    // Each program's time is its median over the passes, so a burst during
    // one pass does not move it; throughput is the median pass's rate, each
    // pass scaled by its own calibration.
    std::vector<double> PerPass;
    std::string Factors;
    for (size_t P = 0; P != PassS.size(); ++P) {
      double F = Cal.factor(PassFrom[P],
                            P + 1 < PassFrom.size() ? PassFrom[P + 1] : SIZE_MAX);
      PerPass.push_back(static_cast<double>(N) / PassS[P] / F);
      Factors += format(" %.4f", F);
    }
    std::vector<double> ProgramMs, RawMs;
    for (size_t I = 0; I != N; ++I) {
      ProgramMs.push_back(median(ScaledMs[I]));
      RawMs.push_back(median(LatMs[I]));
    }
    Tail T = tailOf(ProgramMs);
    // The programs the tail is taken among, costliest first.
    std::vector<size_t> ByCost(N);
    std::iota(ByCost.begin(), ByCost.end(), 0);
    std::sort(ByCost.begin(), ByCost.end(),
              [&](size_t A, size_t B) { return ProgramMs[A] > ProgramMs[B]; });
    std::string Costliest;
    for (size_t J = 0; J != std::min<size_t>(N, T.Beyond + 2); ++J)
      Costliest += format(" %s=%.2f", C.Inputs[ByCost[J]].Name.c_str(),
                          ProgramMs[ByCost[J]]);
    R.line("costliest programs (ms):" + Costliest);
    R.line(format("latency over %zu programs, each the median of its %zu "
                  "passes; latency_ms_tail is p%.1f (%zu beyond)",
                  T.Samples, PassS.size(), T.Percentile, T.Beyond));
    R.line("calibration factor per pass (reference kernel 1.0 ms):" + Factors);
    R.line(SetupCal.describe() + " (setup_s)");
    R.line(format("raw: setup_s %.6f, latency_ms_p50 %.6f, latency_ms_tail "
                  "%.6f",
                  median(SetupS), median(RawMs), tailOf(RawMs).Value));
    R.line(format("fail_share %.6f share; degraded_share %.6f share", FailShare,
                  DegradedShare));
    if (Simulate)
      R.line(format("sim_speedup_geomean %.6f x over %zu programs", Geomean,
                    LogSpeedups.size()));
    R.metric("setup_s", median(SetupS) * SetupCal.factor(), "s");
    R.metric("latency_ms_p50", median(ProgramMs), "ms");
    R.metric("latency_ms_tail", T.Value, "ms");
    R.metric("throughput_per_s", median(PerPass), "1/s");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  double Untraced = std::accumulate(UntracedMs.begin(), UntracedMs.end(), 0.0);
  double Traced = std::accumulate(TracedMs.begin(), TracedMs.end(), 0.0);
  double Covered = 0;
  for (const auto &[Name, Row] : L.Rows)
    Covered += Row.SelfMs;
  double Gap = Agree.OutsideMs > 0
                   ? std::fabs(Agree.OutsideMs - Agree.SpanMs) / Agree.OutsideMs
                   : 0;
  reportLayers(L, Traced, R);
  R.metric("fail_share", FailShare, "share");
  R.metric("degraded_share", DegradedShare, "share");
  R.metric("sim_speedup_geomean", Geomean, "x");
  R.metric("trace.overhead_share", Untraced > 0 ? Traced / Untraced - 1 : 0,
           "share");
  R.metric("trace.unattributed_share", Traced > 0 ? 1 - Covered / Traced : 0,
           "share");
  R.metric("trace.decompose_gap_share", Gap, "share");
  R.line(format("core.decompose timed outside %.2f ms vs driver.decompose "
                "span %.2f ms (gap %.2f%%)",
                Agree.OutsideMs, Agree.SpanMs, 100 * Gap));
  if (O.SelfCheck && Gap > 0.05)
    R.fail("core.decompose outside timing and driver.decompose span "
           "disagree by more than 5%");
  return R;
}
