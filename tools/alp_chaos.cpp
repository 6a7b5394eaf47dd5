//===- tools/alp_chaos.cpp - Fault-injection chaos harness ------*- C++ -*-===//
//
// alp_chaos: sweep every registered failpoint site crossed with every
// injection mode over a corpus of programs, and assert the three clauses
// of the robustness contract (docs/ROBUSTNESS.md):
//
//   never crashes — every case ends in a value or an error Status; an
//       abort / uncaught exception fails the sweep (terminate handler
//       prints the offending case x site x mode);
//   never hangs  — a watchdog thread aborts the process when a single
//       case exceeds --timeout-ms (default 30s), printing "HANG at ...";
//   never lies   — a faulted run that still succeeds must either produce
//       byte-identical output to the un-faulted baseline, or carry MORE
//       degradation-ledger entries than the baseline. Output that
//       silently diverges with no ledger entry is a failure.
//
//   alp_chaos [--corpus DIR]... [file.alp]... [--site NAME] [--mode M]
//             [--timeout-ms N] [--report FILE] [--verbose]
//
// Each case runs the full in-process pipeline: compile -> decomposeOrError
// -> print -> SPMD emission (shared + message-passing) -> communication
// plan + analysis -> a short simulation. Bounded trigger counts are only
// deterministic while one program compiles at a time, so the harness runs
// its cases one after another (each compile is single-threaded).
//
// Exit 0 iff every (case, site, mode) combination upheld the contract.
//
//===----------------------------------------------------------------------===//

#include "alp.h"

#include "support/AtomicFile.h"
#include "support/CliFlags.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace alp;

namespace {

//===----------------------------------------------------------------------===//
// Watchdog: "never hangs"
//===----------------------------------------------------------------------===//

/// Bumped at the start of every pipeline run; the watchdog aborts when a
/// run stays on the same generation past the deadline.
std::atomic<uint64_t> CaseGen{0};
std::atomic<bool> InCase{false};
std::mutex LabelMutex;
std::string CurrentLabel; // Guarded by LabelMutex.

void setLabel(const std::string &L) {
  std::lock_guard<std::mutex> Lock(LabelMutex);
  CurrentLabel = L;
}

void startWatchdog(uint64_t TimeoutMs) {
  std::thread([TimeoutMs] {
    uint64_t LastGen = CaseGen.load();
    auto LastChange = std::chrono::steady_clock::now();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      uint64_t Gen = CaseGen.load();
      if (Gen != LastGen || !InCase.load()) {
        LastGen = Gen;
        LastChange = std::chrono::steady_clock::now();
        continue;
      }
      auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - LastChange)
                         .count();
      if (static_cast<uint64_t>(Elapsed) > TimeoutMs) {
        std::string Label;
        {
          std::lock_guard<std::mutex> Lock(LabelMutex);
          Label = CurrentLabel;
        }
        std::fprintf(stderr, "alp_chaos: HANG at %s (> %llu ms)\n",
                     Label.c_str(),
                     static_cast<unsigned long long>(TimeoutMs));
        std::abort();
      }
    }
  }).detach();
}

//===----------------------------------------------------------------------===//
// One pipeline run
//===----------------------------------------------------------------------===//

/// Everything observable about one pipeline run. `Ok` distinguishes a
/// clean failure (parse error, error Status, or an exception absorbed at
/// the tool boundary — all allowed) from a success whose Output and
/// ledger feed the never-lies comparison.
struct RunResult {
  bool Ok = false;
  std::string Error;
  std::string Output;
  size_t Degradations = 0;
};

DriverOptions chaosOptions() {
  DriverOptions Opts;
  // Modest budget: adversarial corpus entries degrade instead of
  // grinding, and budget-exhaust injection has finite limits to poison.
  Opts.Budget.MaxFMConstraints = 2048;
  Opts.Budget.MaxEliminationSteps = 1 << 18;
  Opts.Budget.MaxSolverIterations = 1 << 14;
  return Opts;
}

/// Runs the whole pipeline on \p Text. Never throws: any exception that
/// reaches the harness boundary is the clean-failure path (alpc's stage
/// guards do the same and exit 3).
RunResult runPipeline(const std::string &Text) {
  RunResult RR;
  try {
    DiagnosticEngine Diags;
    std::optional<Program> Prog = compileDsl(Text, Diags);
    if (!Prog) {
      RR.Error = "parse error";
      return RR;
    }
    Program P = std::move(*Prog);

    MachineParams M;
    M.NumProcs = 4;
    Expected<ProgramDecomposition> R =
        decomposeOrError(P, M, chaosOptions());
    if (!R.hasValue()) {
      RR.Error = R.status().str();
      return RR;
    }
    ProgramDecomposition PD = R.takeValue();

    std::ostringstream Out;
    Out << printDecomposition(P, PD);
    CodegenOptions CG = CodegenOptions::forMachine(M);
    Out << emitSpmd(P, PD, CG);
    CodegenOptions MsgCG = CG;
    MsgCG.EmitMessages = true;
    Out << emitSpmd(P, PD, MsgCG);
    Out << planCommunication(P, PD, CG).report(P);
    Out << analyzeCommunication(P, PD, CG).report(P);

    NumaSimulator Sim(P, M);
    applyDecomposition(Sim, P, PD);
    SimResult SR = Sim.run(2);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "cycles=%.6g\n", SR.Cycles);
    Out << Buf;

    RR.Ok = true;
    RR.Output = Out.str();
    RR.Degradations = PD.Degradations.size();
    return RR;
  } catch (...) {
    RR.Error = statusFromCurrentException().str();
    return RR;
  }
}

//===----------------------------------------------------------------------===//
// The sweep
//===----------------------------------------------------------------------===//

struct Case {
  std::string Name;
  std::string Text;
};

/// Tiny built-in programs so the sweep is meaningful with no corpus on
/// the command line: a parallel stencil-ish nest and a two-nest program
/// that exercises joining.
const char *BuiltinCases[][2] = {
    {"builtin:stencil",
     "program chaos1;\n"
     "param N = 32;\n"
     "array A[N + 1, N + 1], B[N + 1, N + 1];\n"
     "forall i0 = 1 to N {\n"
     "  forall i1 = 1 to N {\n"
     "    A[i0, i1] = f(B[i0 - 1, i1], B[i0, i1 - 1]) @cost(8);\n"
     "  }\n"
     "}\n"},
    {"builtin:two-nest",
     "program chaos2;\n"
     "param N = 16;\n"
     "array A[N + 1], B[N + 1];\n"
     "forall i0 = 0 to N {\n"
     "  A[i0] = f(A[i0], A[i0]) @cost(4);\n"
     "}\n"
     "for i0 = 1 to N {\n"
     "  B[i0] = f(A[i0], B[i0 - 1]) @cost(4);\n"
     "}\n"},
};

/// One spec string for (site, mode): unbounded triggers for the faulting
/// modes (every hit fires — deterministic), a short bounded delay for
/// delay mode so sweeps stay fast.
std::string specFor(const std::string &Site, FailPointMode Mode) {
  std::string Spec = Site + ":" + failPointModeName(Mode);
  if (Mode == FailPointMode::Delay)
    Spec += ":2:1";
  return Spec;
}

struct Failure {
  std::string Case, Site, Mode, Why;
};

void jsonEscape(std::ostringstream &OS, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (C == '\n')
      OS << "\\n";
    else
      OS << C;
  }
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> CorpusDirs;
  std::vector<std::string> Files;
  std::string SiteFilter, ModeFilter, ReportPath;
  uint64_t TimeoutMs = 30000;
  bool Verbose = false;

  const std::vector<FlagSpec> Table = {
      {"--corpus", "DIR",
       "also sweep every *.alp in DIR (repeatable; sorted order)",
       [&](const std::string &V) {
         CorpusDirs.push_back(V);
         return true;
       }},
      {"--site", "NAME", "restrict the sweep to one failpoint site",
       [&](const std::string &V) {
         SiteFilter = V;
         return true;
       }},
      {"--mode", "M", "restrict the sweep to one injection mode",
       [&](const std::string &V) {
         ModeFilter = V;
         return true;
       }},
      {"--timeout-ms", "N",
       "per-case watchdog deadline in milliseconds (default 30000)",
       [&](const std::string &V) { return parseU64(V, TimeoutMs); }},
      {"--report", "FILE", "write the JSON sweep report to FILE",
       [&](const std::string &V) {
         ReportPath = V;
         return true;
       }},
      {"--verbose", nullptr, "print each case x site x mode as it runs",
       [&](const std::string &) {
         Verbose = true;
         return true;
       }},
  };
  const CliParser Cli{argv[0], "[options] [file.alp]...",
                      "Sweeps every failpoint site x injection mode over a "
                      "program corpus and\nasserts the robustness contract: "
                      "never crashes, never hangs, never lies\n"
                      "(docs/ROBUSTNESS.md).",
                      Table};
  switch (parseCommandLine(Cli, argc, argv, Files)) {
  case CliAction::Proceed:
    break;
  case CliAction::ExitSuccess:
    return 0;
  case CliAction::ExitUsage:
    return 2;
  }

  // The sweep owns the registry: whatever ALP_FAILPOINTS armed does not
  // belong in the baseline.
  FailPointRegistry &Registry = FailPointRegistry::instance();
  Registry.reset();

  std::set_terminate([] {
    std::string Label;
    {
      std::lock_guard<std::mutex> Lock(LabelMutex);
      Label = CurrentLabel;
    }
    std::fprintf(stderr, "alp_chaos: CRASH at %s\n", Label.c_str());
    std::abort();
  });
  startWatchdog(TimeoutMs);

  // Assemble the corpus: built-ins, explicit files, then every *.alp in
  // each corpus dir (sorted — the sweep order is deterministic).
  std::vector<Case> Cases;
  for (const auto &B : BuiltinCases)
    Cases.push_back({B[0], B[1]});
  namespace fs = std::filesystem;
  for (const std::string &Dir : CorpusDirs) {
    if (!fs::is_directory(Dir)) {
      std::fprintf(stderr, "error: corpus dir '%s' not found\n",
                   Dir.c_str());
      return 2;
    }
    std::vector<fs::path> Found;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".alp")
        Found.push_back(E.path());
    std::sort(Found.begin(), Found.end());
    for (const fs::path &F : Found)
      Files.push_back(F.string());
  }
  for (const std::string &F : Files) {
    std::ifstream In(F);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", F.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Cases.push_back({F, Buf.str()});
  }

  const std::vector<std::string> Sites = Registry.names();
  std::vector<FailPointMode> Modes;
  for (FailPointMode M : allFailPointModes()) {
    if (!ModeFilter.empty() && ModeFilter != failPointModeName(M))
      continue;
    Modes.push_back(M);
  }
  if (!ModeFilter.empty() && Modes.empty()) {
    std::fprintf(stderr, "error: unknown mode '%s'\n", ModeFilter.c_str());
    return 2;
  }
  if (!SiteFilter.empty() && !Registry.find(SiteFilter)) {
    std::fprintf(stderr, "error: unknown site '%s'\n", SiteFilter.c_str());
    return 2;
  }

  std::vector<Failure> Failures;
  uint64_t Runs = 0;

  auto TimedRun = [&](const std::string &Label,
                      const std::string &Text) -> RunResult {
    setLabel(Label);
    CaseGen.fetch_add(1);
    InCase.store(true);
    RunResult RR = runPipeline(Text);
    InCase.store(false);
    ++Runs;
    return RR;
  };

  for (const Case &C : Cases) {
    RunResult Baseline = TimedRun(C.Name + " [baseline]", C.Text);
    if (Verbose)
      std::fprintf(stderr, "case %s: baseline %s\n", C.Name.c_str(),
                   Baseline.Ok ? "ok" : Baseline.Error.c_str());

    for (const std::string &Site : Sites) {
      if (!SiteFilter.empty() && Site != SiteFilter)
        continue;
      for (FailPointMode Mode : Modes) {
        const std::string Spec = specFor(Site, Mode);
        const std::string Label = C.Name + " [" + Spec + "]";
        Registry.reset();
        if (Status S = Registry.configure(Spec); !S.isOk()) {
          Failures.push_back({C.Name, Site, failPointModeName(Mode),
                              "configure failed: " + S.str()});
          continue;
        }
        RunResult Faulted = TimedRun(Label, C.Text);
        Registry.reset();

        // Never lies: a faulted success must match the baseline byte for
        // byte or admit the divergence in the degradation ledger.
        if (Faulted.Ok && Baseline.Ok &&
            Faulted.Output != Baseline.Output &&
            Faulted.Degradations <= Baseline.Degradations)
          Failures.push_back({C.Name, Site, failPointModeName(Mode),
                              "silent divergence: output changed with no "
                              "new degradation-ledger entry"});
        // Delay injections do not fault: the result must be identical.
        else if (Mode == FailPointMode::Delay && Baseline.Ok &&
                 (!Faulted.Ok || Faulted.Output != Baseline.Output))
          Failures.push_back({C.Name, Site, failPointModeName(Mode),
                              "delay injection changed the result: " +
                                  (Faulted.Ok ? "output differs"
                                              : Faulted.Error)});
        else if (Verbose)
          std::fprintf(stderr, "  %-44s %s\n", Spec.c_str(),
                       !Faulted.Ok ? "clean error"
                       : Faulted.Output == Baseline.Output
                           ? "identical"
                           : "degraded");
      }
    }
  }
  setLabel("report");

  if (!ReportPath.empty()) {
    std::ostringstream OS;
    OS << "{\n  \"runs\": " << Runs
       << ",\n  \"cases\": " << Cases.size()
       << ",\n  \"sites\": " << Sites.size()
       << ",\n  \"failures\": [";
    for (size_t I = 0; I != Failures.size(); ++I) {
      OS << (I ? ",\n    " : "\n    ") << "{\"case\": \"";
      jsonEscape(OS, Failures[I].Case);
      OS << "\", \"site\": \"" << Failures[I].Site << "\", \"mode\": \""
         << Failures[I].Mode << "\", \"why\": \"";
      jsonEscape(OS, Failures[I].Why);
      OS << "\"}";
    }
    OS << (Failures.empty() ? "]" : "\n  ]") << "\n}\n";
    if (Status S = writeFileAtomic(ReportPath, OS.str()); !S.isOk())
      std::fprintf(stderr, "error: cannot write report: %s\n",
                   S.str().c_str());
  }

  for (const Failure &F : Failures)
    std::fprintf(stderr, "alp_chaos: FAIL %s [%s:%s]: %s\n",
                 F.Case.c_str(), F.Site.c_str(), F.Mode.c_str(),
                 F.Why.c_str());
  std::printf("chaos: %llu run(s) over %zu case(s) x %zu site(s) x %zu "
              "mode(s): %zu failure(s)\n",
              static_cast<unsigned long long>(Runs), Cases.size(),
              Sites.size(), Modes.size(), Failures.size());
  return Failures.empty() ? 0 : 1;
}
