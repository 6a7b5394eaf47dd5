//===- perfbench/src/main.cpp - alp end-to-end benchmark driver ------------===//
//
//   alp_bench --root <checkout> --workload <compile_corpus|simulate_corpus|
//             serve_mixed|all> --seed N --seconds S --trace 0|1
//   alp_bench --root <checkout> --self-check
//   alp_bench --root <checkout> --workload serve_mixed --seconds S --capacity
//
// Prints the hardware and build fingerprint, the run's detail lines and
// metric table, and as its last line one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). --self-check runs every workload untraced and traced on a
// tiny input set, runs every output check, and exits 1 when one fails.
// --capacity measures the closed-loop capacity and cold latency that
// serve_mixed's offered rate and latency limit are derived from.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace bench;

namespace {

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  unsigned Max = __get_cpuid_max(0x80000000, nullptr);
  if (Max >= 0x80000004) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S(Brand);
    size_t B = S.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B);
  }
#endif
  return "unknown";
}

void printFingerprint(const Options &O) {
  std::printf("alp_bench: workload %s, seed %llu, %.0f s, trace %d%s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, O.SelfCheck ? ", self-check" : "");
  std::printf("machine: nproc %u, cpu %s\n",
              std::thread::hardware_concurrency(), cpuModel().c_str());
  std::printf("build: %s %s, %s, flags '%s', asserts %s\n",
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, ALP_BENCH_BUILD_TYPE, ALP_BENCH_CXX_FLAGS,
#ifdef NDEBUG
              "off"
#else
              "on"
#endif
  );
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

RunReport runWorkload(const Options &O) {
  if (O.Workload == "compile_corpus")
    return runCorpusWorkload(O, /*Simulate=*/false);
  if (O.Workload == "simulate_corpus")
    return runCorpusWorkload(O, /*Simulate=*/true);
  if (O.Workload == "serve_mixed")
    return O.Capacity ? runServeCapacity(O) : runServeWorkload(O);
  throw std::invalid_argument("unknown workload '" + O.Workload + "'");
}

/// Prints \p R's detail lines and metric table under \p Title.
void printReport(const std::string &Title, const RunReport &R) {
  std::printf("== %s ==\n", Title.c_str());
  for (const std::string &L : R.Lines)
    std::printf("%s\n", L.c_str());
  std::printf("%-44s %18s %s\n", "metric", "value", "unit");
  for (const Metric &M : R.Metrics)
    std::printf("%-44s %18.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("attempted %llu, failed %llu, output checks %s\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.CheckFailures.empty() ? "pass" : "FAIL");
  for (const std::string &F : R.CheckFailures)
    std::printf("  check failed: %s\n", F.c_str());
}

void printResult(const RunReport &R) {
  std::string Json = "{\"correct\": ";
  Json += R.CheckFailures.empty() && R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool FirstMetric = true;
  for (const Metric &M : R.Metrics) {
    double V = std::isfinite(M.Value) ? M.Value : 0;
    Json += (FirstMetric ? "" : ", ") + jsonString(M.Name) +
            format(": {\"value\": %.17g, \"unit\": ", V) + jsonString(M.Unit) +
            "}";
    FirstMetric = false;
  }
  std::printf("%s}}\n", Json.c_str());
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --root DIR (--workload NAME --seed N --seconds S "
               "--trace 0|1 | --self-check | --workload serve_mixed "
               "--seconds S --capacity)\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  O.Workload = "all";
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--self-check" || A == "--capacity") {
      (A == "--capacity" ? O.Capacity : O.SelfCheck) = true;
      continue;
    }
    if (!(V = Value()))
      return usage(argv[0]);
    char *End = nullptr;
    if (A == "--root")
      O.Root = V;
    else if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, &End, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, &End);
    else if (A == "--trace")
      O.Trace = std::strtol(V, &End, 10) != 0;
    else
      return usage(argv[0]);
    if (End && *End)
      return usage(argv[0]);
  }
  if (O.Seconds <= 0 || (O.Capacity && O.Workload != "serve_mixed"))
    return usage(argv[0]);

  try {
    if (O.Workload != "all" && !O.SelfCheck) {
      printFingerprint(O);
      RunReport R = runWorkload(O);
      printReport(O.Workload + (O.Trace ? " (traced)" : ""), R);
      printResult(R);
      return 0;
    }
    // Every workload, untraced then traced; metric names get the workload
    // as a prefix in the combined result.
    printFingerprint(O);
    RunReport All;
    for (const char *W : {"compile_corpus", "simulate_corpus", "serve_mixed"})
      for (bool Traced : {false, true}) {
        Options Sub = O;
        Sub.Workload = W;
        Sub.Trace = Traced;
        RunReport R = runWorkload(Sub);
        std::string Title = std::string(W) + (Traced ? " (traced)" : "");
        printReport(Title, R);
        All.Attempted += R.Attempted;
        All.Failed += R.Failed;
        for (const Metric &M : R.Metrics)
          All.Metrics.push_back(
              {std::string(W) + (Traced ? ".traced." : ".") + M.Name, M.Value,
               M.Unit});
        for (const std::string &F : R.CheckFailures)
          All.CheckFailures.push_back(Title + ": " + F);
      }
    printResult(All);
    return O.SelfCheck && (!All.CheckFailures.empty() || All.Failed) ? 1 : 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "alp_bench: %s\n", E.what());
    return 2;
  }
}
