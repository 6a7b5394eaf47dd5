//===- tools/alpc.cpp - The alp compiler driver -----------------*- C++ -*-===//
//
// alpc: compile an affine DSL program and report the decomposition.
//
//   alpc <file.alp> [options]
//
// Options are declared in a single table (support/CliFlags.h) that drives
// parsing, --help generation, and unknown-flag errors. Every value-taking
// flag accepts both "--flag=value" and "--flag value".
//
// The pipeline itself lives in core/CompileSession.h; this file is flag
// parsing, source ingestion, one CompileSession::run call, and the
// --trace/--stats artifact writes.
//
// Batch mode: --batch=<dir> compiles every *.alp file under <dir>
// (sorted, non-recursive) through the service-layer BatchSession
// (service/Batch.h) — shared-cache dedup, one persistent worker pool
// with warm per-worker arena reuse, and a jobs-deterministic aggregate
// report (--batch-report=<file>, '-' for stdout). The semantic flags
// above apply to every item. Batch exit code: 1 if any item failed
// (exit 1/2/3), else 4 if any degraded, else 0.
//
// Observability: --trace=<file> writes a Chrome trace-event JSON of the
// pipeline's spans (load in chrome://tracing or Perfetto); --stats=<file>
// writes the versioned stats JSON (counters, gauges, span aggregates);
// "--stats=-" writes it to stdout.
//
// Fault injection: --failpoints=site:mode[:count[:delay_ms]],... (or the
// ALP_FAILPOINTS environment variable) arms deterministic injection sites
// throughout the pipeline; see docs/ROBUSTNESS.md for the catalog.
//
// Exit codes: 0 success; 1 cannot open / parse / verify failure; 2 usage;
// 3 a pipeline stage failed outright (decomposition, codegen, simulation,
// or an injected fault with no degraded form); 4 success but degraded
// (some stage fell back to a conservative answer — report on stderr).
//
//===----------------------------------------------------------------------===//

#include "alp.h"

#include "analysis/Lint.h"
#include "core/CompileSession.h"
#include "service/Batch.h"
#include "service/DecompositionCache.h"
#include "support/AtomicFile.h"
#include "support/CliFlags.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace alp;

namespace {

/// Source ingestion: fired after the input file is opened but before its
/// contents are consumed.
FailPoint FpIoRead("io.read");

/// --batch driver: reads every *.alp file directly under \p Dir (sorted
/// by path, so the batch is independent of directory enumeration order),
/// runs them through one BatchSession with the parsed flags as the
/// per-item template, prints a one-line verdict per item, and writes the
/// aggregate report.
int runBatch(const CompileRequest &Template, unsigned Jobs,
             const std::string &Dir, const std::string &ReportPath) {
  namespace fs = std::filesystem;
  std::error_code EC;
  std::vector<std::string> Files;
  fs::directory_iterator It(Dir, EC);
  if (EC) {
    std::fprintf(stderr, "error: cannot read batch directory '%s': %s\n",
                 Dir.c_str(), EC.message().c_str());
    return 1;
  }
  for (const fs::directory_entry &E : It)
    if (E.is_regular_file() && E.path().extension() == ".alp")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::fprintf(stderr, "error: no .alp files under '%s'\n", Dir.c_str());
    return 1;
  }

  std::vector<CompileRequest> Items;
  Items.reserve(Files.size());
  for (const std::string &F : Files) {
    std::ifstream In(F);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", F.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    CompileRequest Req = Template;
    Req.FileName = F;
    Req.Source = Buf.str();
    Items.push_back(std::move(Req));
  }

  DecompositionCache Cache;
  BatchOptions BOpts;
  BOpts.Jobs = Jobs;
  BOpts.Cache = &Cache;
  BatchSession Session(BOpts);
  std::vector<BatchItemResult> Results = Session.run(Items);

  bool AnyFail = false, AnyDegraded = false;
  for (size_t I = 0; I != Results.size(); ++I) {
    const BatchItemResult &R = Results[I];
    const char *Served =
        R.CacheHit ? "cache" : R.DedupHit ? "dedup" : "compile";
    const char *Verdict = R.ExitCode == 0   ? "ok"
                          : R.ExitCode == 4 ? "degraded"
                                            : "failed";
    std::printf("%s: %s (exit %d, %s)\n", Files[I].c_str(), Verdict,
                R.ExitCode, Served);
    if (R.ExitCode == 4)
      AnyDegraded = true;
    else if (R.ExitCode != 0) {
      AnyFail = true;
      std::fprintf(stderr, "%s", R.Error.c_str());
    }
  }

  if (!ReportPath.empty()) {
    std::string Report = Session.reportJson();
    if (ReportPath == "-") {
      std::printf("%s", Report.c_str());
    } else if (Status S = writeFileAtomic(ReportPath, Report); !S.isOk()) {
      std::fprintf(stderr, "error: cannot write batch report: %s\n",
                   S.str().c_str());
      return 1;
    }
  }
  return AnyFail ? 1 : AnyDegraded ? 4 : 0;
}

} // namespace

int main(int argc, char **argv) {
  // Arm failpoints from the environment first; --failpoints specs layer
  // on top (both go through the same registry).
  if (Status S = FailPointRegistry::instance().configureFromEnv();
      !S.isOk()) {
    std::fprintf(stderr, "error: ALP_FAILPOINTS: %s\n", S.str().c_str());
    return 2;
  }
  CompileRequest Req;
  DriverOptions &Opts = Req.Driver;
  std::string LintPassesSpec;
  std::string TracePath, StatsPath;
  std::string BatchDir, BatchReportPath;
  unsigned BatchJobs = 1;

  auto BoolFlag = [](bool &Target, bool Value) {
    return [&Target, Value](const std::string &) {
      Target = Value;
      return true;
    };
  };
  auto U64Flag = [](uint64_t &Target) {
    return [&Target](const std::string &V) { return parseU64(V, Target); };
  };

  const std::vector<FlagSpec> Table = {
      {"--no-local-phase", nullptr, "skip Wolf-Lam canonicalization",
       BoolFlag(Opts.RunLocalPhase, false)},
      {"--no-blocking", nullptr,
       "disable blocked (pipelined) decompositions",
       BoolFlag(Opts.EnableBlocking, false)},
      {"--no-replication", nullptr, "disable read-only replication",
       BoolFlag(Opts.EnableReplication, false)},
      {"--no-projection", nullptr, "disable idle-processor projection",
       BoolFlag(Opts.EnableIdleProjection, false)},
      {"--force-single", nullptr, "join every nest into one component",
       [&](const std::string &) {
         Opts.Policy = JoinPolicy::ForceSingle;
         return true;
       }},
      {"--never-join", nullptr, "keep every nest in its own component",
       [&](const std::string &) {
         Opts.Policy = JoinPolicy::NeverJoin;
         return true;
       }},
      {"--multi-level", nullptr,
       "decompose the loop-nest hierarchy level by level",
       BoolFlag(Opts.MultiLevel, true)},
      {"--fuse", nullptr, "run the loop-fusion post-pass",
       BoolFlag(Req.DoFuse, true)},
      {"--spmd", nullptr, "print the generated SPMD pseudo-code",
       BoolFlag(Req.DoSpmd, true)},
      {"--emit", "spmd|comm-plan",
       "codegen backend: 'spmd' prints message-passing SPMD code driven "
       "by the planned communication schedule; 'comm-plan' prints the "
       "schedule itself",
       [&](const std::string &V) {
         if (V != "spmd" && V != "comm-plan") {
           std::fprintf(stderr, "unknown emit mode '%s'\n", V.c_str());
           return false;
         }
         Req.EmitMode = V;
         return true;
       }},
      {"--machine", "dash|touchstone",
       "machine preset: 'dash' (cache-coherent NUMA, default) or "
       "'touchstone' (message-passing multicomputer)",
       [&](const std::string &V) {
         if (V != "dash" && V != "touchstone") {
           std::fprintf(stderr, "unknown machine '%s'\n", V.c_str());
           return false;
         }
         Req.MachineName = V;
         return true;
       }},
      {"--comm", nullptr, "print the communication analysis",
       BoolFlag(Req.DoComm, true)},
      {"--print-ir", nullptr, "print the canonicalized IR",
       BoolFlag(Req.DoIr, true)},
      {"--deps", nullptr, "print the dependences of every nest",
       BoolFlag(Req.DoDeps, true)},
      {"--lint", nullptr,
       "run the alp-lint passes (race detector, affine-model lints, and "
       "the SPMD schedule verifier when the program decomposes) and "
       "render the diagnostics instead of reporting a decomposition",
       BoolFlag(Req.DoLint, true)},
      {"--lint-passes", "list|help",
       "restrict --lint / --verify to a comma-separated list of pass "
       "families; 'help' lists the registered pass ids",
       [&](const std::string &V) {
         LintPassesSpec = V;
         return true;
       }},
      {"--miscompile", "mode",
       "test-only: seed one schedule miscompilation so the schedule "
       "verifier can prove its checkers fire (drop-transfer, "
       "shrink-aggregation, reorder-recv, reorder-barrier, drop-recv, "
       "alias-buffer)",
       [&](const std::string &V) {
         if (!parseMiscompileMode(V, Req.Miscompile)) {
           std::fprintf(stderr, "unknown miscompile mode '%s'\n", V.c_str());
           return false;
         }
         return true;
       }},
      {"--verify", nullptr,
       "validate the decomposition (Theorem 4.1 invariants + SPMD "
       "communication coverage)",
       BoolFlag(Req.DoVerify, true)},
      {"--Werror", nullptr, "treat lint/verify warnings as errors",
       BoolFlag(Req.WError, true)},
      {"--diagnostics-format", "text|json|sarif",
       "how --lint / --verify diagnostics are rendered",
       [&](const std::string &V) {
         if (V == "text")
           Req.Format = DiagFormat::Text;
         else if (V == "json")
           Req.Format = DiagFormat::Json;
         else if (V == "sarif")
           Req.Format = DiagFormat::Sarif;
         else {
           std::fprintf(stderr, "unknown diagnostics format '%s'\n",
                        V.c_str());
           return false;
         }
         return true;
       }},
      {"--simulate", nullptr, "simulate on the NUMA machine (1..procs)",
       BoolFlag(Req.DoSim, true)},
      {"--procs", "N", "machine size for --simulate (default 32)",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U))
           return false;
         Req.Procs = static_cast<unsigned>(U);
         return true;
       }},
      {"--block", "N", "pipeline block size (default 4)",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U))
           return false;
         Req.Block = static_cast<int64_t>(U);
         return true;
       }},
      {"--max-fm", "N",
       "cap live Fourier-Motzkin constraints (0 = off)",
       U64Flag(Opts.Budget.MaxFMConstraints)},
      {"--max-steps", "N", "cap FM elimination steps (0 = off)",
       U64Flag(Opts.Budget.MaxEliminationSteps)},
      {"--max-iters", "N", "cap solver fixpoint iterations (0 = off)",
       U64Flag(Opts.Budget.MaxSolverIterations)},
      {"--deadline-ms", "N",
       "wall-clock budget for the pipeline (0 = off)",
       U64Flag(Opts.DeadlineMs)},
      {"--jobs", "N",
       "programs compiled concurrently by --batch (0 = all hardware "
       "threads); output is identical for every value",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U))
           return false;
         BatchJobs = static_cast<unsigned>(U);
         return true;
       }},
      {"--failpoints", "site:mode[:count[:delay_ms]],...",
       "arm deterministic fault-injection sites (modes: throw, oom, "
       "status-error, budget-exhaust, delay; see docs/ROBUSTNESS.md)",
       [&](const std::string &V) {
         Status S = FailPointRegistry::instance().configureList(V);
         if (!S.isOk()) {
           std::fprintf(stderr, "error: --failpoints: %s\n",
                        S.str().c_str());
           return false;
         }
         return true;
       }},
      {"--task-retries", "N",
       "extra attempts per supervised task on a shrunken budget before it "
       "degrades to its stage's conservative fallback (default 1)",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U))
           return false;
         Opts.TaskAttempts = static_cast<unsigned>(U) + 1;
         return true;
       }},
      {"--task-deadline-ms", "N",
       "per-attempt wall-clock deadline for each supervised task (0 = off; "
       "an armed task deadline trades determinism for boundedness)",
       U64Flag(Opts.TaskDeadlineMs)},
      {"--trace", "file",
       "write a Chrome trace-event JSON of the pipeline's spans",
       [&](const std::string &V) {
         TracePath = V;
         return true;
       }},
      {"--stats", "file",
       "write the versioned stats JSON (counters / gauges / span "
       "aggregates); '-' writes to stdout",
       [&](const std::string &V) {
         StatsPath = V;
         return true;
       }},
      {"--batch", "dir",
       "compile every *.alp file under <dir> (sorted) as one batch: "
       "shared-cache dedup, warm per-worker arena reuse, and a "
       "jobs-deterministic aggregate report",
       [&](const std::string &V) {
         BatchDir = V;
         return true;
       }},
      {"--batch-report", "file",
       "write the batch aggregate stats JSON (schema v2, kind 'batch'); "
       "'-' writes to stdout",
       [&](const std::string &V) {
         BatchReportPath = V;
         return true;
       }},
  };

  const CliParser Cli{argv[0],
                      "<file.alp> [options]",
                      "Compiles an affine DSL program, decomposes it for a "
                      "scalable\nparallel machine, and reports the result.",
                      Table};
  if (argc < 2) {
    printUsage(Cli);
    return 2;
  }
  std::vector<std::string> Positionals;
  switch (parseCommandLine(Cli, argc, argv, Positionals)) {
  case CliAction::Proceed:
    break;
  case CliAction::ExitSuccess:
    return 0;
  case CliAction::ExitUsage:
    return 2;
  }
  // Pass-family selection (--lint-passes). "help" lists the registry and
  // exits; otherwise the comma-separated ids gate the Check* options so
  // the fuzzer / chaos tool can isolate a single checker.
  if (!LintPassesSpec.empty()) {
    if (LintPassesSpec == "help") {
      std::printf("registered lint pass families:\n");
      for (const std::unique_ptr<LintPass> &Pass :
           createLintPasses(LintOptions()))
        std::printf("  %-10s %s\n", Pass->id(), Pass->description());
      return 0;
    }
    Req.LintPassesExplicit = true;
    Req.SelRace = Req.SelModel = Req.SelDecomp = Req.SelSchedule = false;
    std::string Spec = LintPassesSpec;
    while (!Spec.empty()) {
      size_t Comma = Spec.find(',');
      std::string Id = Spec.substr(0, Comma);
      Spec = Comma == std::string::npos ? "" : Spec.substr(Comma + 1);
      if (Id == "race")
        Req.SelRace = true;
      else if (Id == "model")
        Req.SelModel = true;
      else if (Id == "decomp")
        Req.SelDecomp = true;
      else if (Id == "schedule")
        Req.SelSchedule = true;
      else {
        std::fprintf(stderr,
                     "unknown lint pass '%s' (see --lint-passes=help)\n",
                     Id.c_str());
        printUsage(Cli);
        return 2;
      }
    }
  }

  if (!BatchDir.empty()) {
    if (!Positionals.empty()) {
      std::fprintf(stderr, "error: --batch takes no input file operand\n");
      return 2;
    }
    if (!TracePath.empty() || !StatsPath.empty()) {
      std::fprintf(stderr,
                   "error: --trace/--stats do not apply in batch mode; "
                   "use --batch-report\n");
      return 2;
    }
    return runBatch(Req, BatchJobs, BatchDir, BatchReportPath);
  }

  if (Positionals.empty()) {
    printUsage(Cli);
    return 2;
  }
  Req.FileName = Positionals.back();
  const char *FileName = Req.FileName.c_str();

  std::ifstream In(FileName);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", FileName);
    return 1;
  }
  try {
    FpIoRead.evaluateOrThrow();
  } catch (...) {
    Status S = statusFromCurrentException();
    std::fprintf(stderr, "error: cannot read '%s': %s\n", FileName,
                 S.str().c_str());
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Req.Source = Buf.str();

  Req.WantTrace = !TracePath.empty();
  Req.WantStats = !StatsPath.empty();
  // Artifacts land via temp-file + atomic rename (support/AtomicFile.h),
  // so a reader never observes a truncated file. Returning false maps to
  // exit 1 on otherwise-successful runs.
  Req.WriteArtifacts = [&](const CompileArtifacts &A) -> bool {
    if (A.HasTrace) {
      if (Status S = writeFileAtomic(TracePath, A.TraceJson); !S.isOk()) {
        std::fprintf(stderr, "error: cannot write trace file: %s\n",
                     S.str().c_str());
        return false;
      }
    }
    if (A.HasStats) {
      if (StatsPath == "-") {
        std::printf("%s", A.StatsJson.c_str());
      } else if (Status S = writeFileAtomic(StatsPath, A.StatsJson);
                 !S.isOk()) {
        std::fprintf(stderr, "error: cannot write stats file: %s\n",
                     S.str().c_str());
        return false;
      }
    }
    return true;
  };

  return CompileSession::run(Req, stdout, stderr).ExitCode;
}
