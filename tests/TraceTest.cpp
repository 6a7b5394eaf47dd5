//===- tests/TraceTest.cpp - Observability layer tests ---------------------===//
//
// Covers the tracer/metrics contract: span nesting on the compile thread,
// the zero-allocation disabled path, Chrome trace well-formedness, the
// stats golden counters, and batch --jobs counter determinism.
//
//===----------------------------------------------------------------------===//

#include "DecomposeForTest.h"
#include "core/Driver.h"
#include "frontend/Lowering.h"
#include "service/Batch.h"
#include "support/FailPoint.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

// Global allocation counter: the disabled-tracer path must not allocate.
static std::atomic<uint64_t> GAllocations{0};

void *operator new(std::size_t Size) {
  GAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

// Replaced too so that every block the deletes below free came from
// malloc (std::stable_sort's temporary buffer uses the nothrow form).
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  GAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

// Out of line: inlined into gtest's `new TestClass`, GCC reports the
// malloc/free pair as a mismatched new/delete (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

using namespace alp;

namespace {

Program compile(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = compileDsl(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    reportFatalError("test program failed to compile:\n" + Diags.str());
  return std::move(*P);
}

// Three nests with cross-nest reuse: enough work that the local phase,
// dynamic decomposition, and orientation stages all run.
const char *PipelineSrc = R"(
program tracer;
param N = 63;
array X[N + 1, N + 1], Y[N + 1, N + 1];
forall i = 0 to N { for j = 1 to N {
  X[i, j] = f1(X[i, j], X[i, j - 1]) @cost(20); } }
forall j = 0 to N { for i = 1 to N {
  X[i, j] = f2(X[i, j], X[i - 1, j]) @cost(20); } }
forall i = 0 to N { forall j = 0 to N {
  Y[i, j] = g(X[i, j], Y[i, j]) @cost(8); } }
)";

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry MR;
  EXPECT_EQ(MR.counter("a"), 0u);
  MR.add("a");
  MR.add("a", 2);
  MR.add("zero", 0); // Creates the key so key sets match across runs.
  MR.setGauge("g", 1.5);
  MR.setGauge("g", 2.5); // Last write wins.
  EXPECT_EQ(MR.counter("a"), 3u);
  EXPECT_EQ(MR.counter("zero"), 0u);
  EXPECT_DOUBLE_EQ(MR.gauge("g"), 2.5);
  EXPECT_EQ(MR.counters().size(), 2u);
  EXPECT_EQ(MR.gauges().size(), 1u);
  MR.clear();
  EXPECT_TRUE(MR.counters().empty());
}

TEST(MetricsTest, CountersJsonIsCanonical) {
  MetricsRegistry A, B;
  A.add("x.second", 2);
  A.add("x.first", 1);
  // Same totals reached in a different order / by different increments.
  B.add("x.first", 1);
  B.add("x.second");
  B.add("x.second");
  EXPECT_EQ(A.renderCountersJson(), B.renderCountersJson());
  EXPECT_NE(A.renderCountersJson().find("\"x.first\": 1"),
            std::string::npos);
}

TEST(TraceTest, DisabledSpanDoesNotAllocate) {
  TraceContext Null; // No tracer, no registry.
  uint64_t Before = GAllocations.load(std::memory_order_relaxed);
  for (int I = 0; I != 4096; ++I) {
    TraceSpan S(Null.Trace, "never.recorded", I);
    Null.count("never.counted");
    Null.gauge("never.gauged", 1.0);
    EXPECT_FALSE(S.active());
  }
  EXPECT_EQ(GAllocations.load(std::memory_order_relaxed), Before);
}

TEST(TraceTest, SpanMoveAndIdempotentFinish) {
  Tracer T;
  {
    TraceSpan A(&T, "alpha", 7);
    TraceSpan B = std::move(A);
    EXPECT_FALSE(A.active());
    EXPECT_TRUE(B.active());
    B.finish();
    B.finish(); // Second finish records nothing.
  }
  std::vector<Tracer::Event> Evs = T.events();
  ASSERT_EQ(Evs.size(), 1u);
  EXPECT_STREQ(Evs[0].Name, "alpha");
  EXPECT_EQ(Evs[0].Detail, 7);
}

TEST(TraceTest, SpansNestUnderPhasesOnCompileThread) {
  Program P = compile(PipelineSrc);
  MachineParams M;
  Tracer Trace;
  MetricsRegistry Metrics;
  DriverOptions Opts;
  Opts.Observe = {&Trace, &Metrics};
  decomposeForTest(P, M, Opts);

  std::vector<Tracer::Event> Evs = Trace.events();
  ASSERT_FALSE(Evs.empty());
  // events() orders parents before children: the pipeline root is first.
  EXPECT_STREQ(Evs[0].Name, "driver.decompose");
  uint64_t RootStart = Evs[0].StartNs;
  uint64_t RootEnd = Evs[0].StartNs + Evs[0].DurNs;

  uint64_t PhaseStart = 0, PhaseEnd = 0;
  unsigned Canon = 0;
  for (const Tracer::Event &E : Evs) {
    // A compile is single-threaded: every span is on the root's thread
    // and falls inside the pipeline root span.
    EXPECT_EQ(E.Tid, Evs[0].Tid) << E.Name;
    EXPECT_GE(E.StartNs, RootStart) << E.Name;
    EXPECT_LE(E.StartNs + E.DurNs, RootEnd) << E.Name;
    if (std::string(E.Name) == "driver.local_phase") {
      PhaseStart = E.StartNs;
      PhaseEnd = E.StartNs + E.DurNs;
    }
  }
  ASSERT_GT(PhaseEnd, 0u) << "driver.local_phase span missing";
  for (const Tracer::Event &E : Evs)
    if (std::string(E.Name) == "local.canonicalize") {
      ++Canon;
      // Per-nest task spans nest (in time) under their phase, and carry
      // the nest id in Detail.
      EXPECT_GE(E.StartNs, PhaseStart);
      EXPECT_LE(E.StartNs + E.DurNs, PhaseEnd);
      EXPECT_GE(E.Detail, 0);
    }
  EXPECT_EQ(Canon, 3u) << "one canonicalize span per nest";
}

TEST(TraceTest, ChromeTraceIsWellFormed) {
  Program P = compile(PipelineSrc);
  MachineParams M;
  Tracer Trace;
  DriverOptions Opts;
  Opts.Observe.Trace = &Trace;
  decomposeForTest(P, M, Opts);

  std::ostringstream OS;
  Trace.writeChromeTrace(OS);
  std::string Json = OS.str();

  // Structural checks: balanced braces/brackets (no span name contains
  // either), the trace-event envelope, and one record per event.
  long Brace = 0, Bracket = 0;
  for (char C : Json) {
    Brace += C == '{' ? 1 : C == '}' ? -1 : 0;
    Bracket += C == '[' ? 1 : C == ']' ? -1 : 0;
    EXPECT_GE(Brace, 0);
    EXPECT_GE(Bracket, 0);
  }
  EXPECT_EQ(Brace, 0);
  EXPECT_EQ(Bracket, 0);
  EXPECT_NE(Json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  size_t Records = 0;
  for (size_t Pos = 0; (Pos = Json.find("\"ph\": \"X\"", Pos)) !=
                       std::string::npos;
       Pos += 1)
    ++Records;
  EXPECT_EQ(Records, Trace.events().size());
}

TEST(TraceTest, StatsJsonCarriesSchemaVersionAndSections) {
  MetricsRegistry MR;
  MR.add("c.one", 1);
  MR.setGauge("g.one", 0.5);
  Tracer T;
  { TraceSpan S(&T, "stage.one"); }
  std::string Json = renderStatsJson(&MR, &T);
  EXPECT_NE(Json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(Json.find("\"c.one\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"gauges\": {"), std::string::npos);
  EXPECT_NE(Json.find("\"g.one\": 0.5"), std::string::npos);
  EXPECT_NE(Json.find("\"spans\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"stage.one\""), std::string::npos);
  // Null sinks render an empty but valid document.
  std::string Empty = renderStatsJson(nullptr, nullptr);
  EXPECT_NE(Empty.find("\"schema_version\": 2"), std::string::npos);
}

TEST(TraceTest, CountersIdenticalAcrossJobs) {
  // Eight distinct programs (each `param N` differs, so nothing dedups),
  // compiled by a batch of one worker and of four.
  std::vector<CompileRequest> Items;
  for (unsigned N = 15; N <= 127; N += 16) {
    std::string Src = PipelineSrc;
    Src.replace(Src.find("N = 63"), 6, "N = " + std::to_string(N));
    CompileRequest Req;
    Req.FileName = "tracer_" + std::to_string(N) + ".alp";
    Req.Source = std::move(Src);
    Req.DoSpmd = true;
    Items.push_back(std::move(Req));
  }
  std::string Renders[2];
  unsigned JobCounts[2] = {1, 4};
  for (int Run = 0; Run != 2; ++Run) {
    BatchOptions Opts;
    Opts.Jobs = JobCounts[Run];
    BatchSession Session(Opts);
    Session.run(Items);
    Renders[Run] = Session.metrics().renderCountersJson();
  }
  // The determinism contract: the aggregated counter payload is
  // byte-identical for every --jobs value (gauges are exempt).
  EXPECT_NE(Renders[0].find("\"dep.pairs\""), std::string::npos);
  EXPECT_EQ(Renders[0], Renders[1]);
}

namespace {

// Golden counters for a checked-in program: catches silent changes to
// what the pipeline publishes (adding a counter, losing one, or a stage
// charging different totals). Regenerate with
// tests/update_observability_golden.sh after an intentional change.
void expectGoldenCounters(const std::string &Stem) {
  Program P = compile(readFile(std::string(ALP_TESTDATA_DIR) + "/" + Stem +
                               ".alp"));
  MachineParams M;
  MetricsRegistry Metrics;
  DriverOptions Opts;
  Opts.Observe.Metrics = &Metrics;
  decomposeForTest(P, M, Opts);
  // alpc publishes the process-wide fault-injection total alongside the
  // pipeline counters (and the golden is regenerated through alpc), so
  // mirror it here; it is 0 when nothing is armed.
  Metrics.add("failpoint.triggered",
              FailPointRegistry::instance().triggeredCount());
  std::string Golden = readFile(std::string(ALP_TESTDATA_DIR) +
                                "/observability/" + Stem +
                                "_counters.golden.json");
  EXPECT_EQ(Metrics.renderCountersJson() + "\n", Golden) << Stem;
}

} // namespace

TEST(TraceTest, StatsGoldenCountersForFig1) { expectGoldenCounters("fig1"); }

// Conduct's dynamic join evaluates many edges: its partition.* counters
// pin that every trial solve is counted once.
TEST(TraceTest, StatsGoldenCountersForConduct) {
  expectGoldenCounters("conduct");
}
