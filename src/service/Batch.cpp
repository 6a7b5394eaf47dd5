//===- service/Batch.cpp - Batch compilation API --------------------------===//

#include "service/Batch.h"

#include "frontend/Lowering.h"
#include "service/DecompositionCache.h"
#include "support/Diagnostics.h"
#include "support/StatsReport.h"
#include "support/Supervisor.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_map>

using namespace alp;

namespace {

/// Mirrors ServerOptions::RequestDeadlineMs: never extends a deadline the
/// request already carries.
void clampDeadline(CompileRequest &Req, uint64_t MaxMs) {
  if (MaxMs &&
      (Req.Driver.DeadlineMs == 0 || Req.Driver.DeadlineMs > MaxMs))
    Req.Driver.DeadlineMs = MaxMs;
}

} // namespace

CaptureResult alp::runSessionCaptured(const CompileRequest &Req) {
  CaptureResult R;
  char *OutBuf = nullptr, *ErrBuf = nullptr;
  size_t OutLen = 0, ErrLen = 0;
  std::FILE *OutF = open_memstream(&OutBuf, &OutLen);
  std::FILE *ErrF = open_memstream(&ErrBuf, &ErrLen);
  if (!OutF || !ErrF) {
    if (OutF)
      std::fclose(OutF);
    if (ErrF)
      std::fclose(ErrF);
    std::free(OutBuf);
    std::free(ErrBuf);
    R.ExitCode = 3;
    R.Err = "error: service: cannot allocate capture streams\n";
    return R;
  }
  CompileResult CR = CompileSession::run(Req, OutF, ErrF);
  R.ExitCode = CR.ExitCode;
  R.LintErrors = CR.Lints.count(Diagnostic::Kind::Error);
  R.LintWarnings = CR.Lints.count(Diagnostic::Kind::Warning);
  if (CR.Decomposition)
    R.Degradations = static_cast<unsigned>(CR.Decomposition->Degradations.size());
  std::fclose(OutF);
  std::fclose(ErrF);
  R.Out.assign(OutBuf, OutLen);
  R.Err.assign(ErrBuf, ErrLen);
  std::free(OutBuf);
  std::free(ErrBuf);
  return R;
}

BatchSession::BatchSession(const BatchOptions &O)
    : Opts(O), Pool(Opts.Jobs ? Opts.Jobs : ThreadPool::hardwareConcurrency()) {}

std::vector<BatchItemResult>
BatchSession::run(const std::vector<CompileRequest> &Items) {
  const size_t N = Items.size();
  std::vector<BatchItemResult> Res(N);

  // Pass 1 — pre-key every item in parallel. Pure per item: parse the
  // source and form the canonical whole-program key. Parse failures keep
  // no key and compile individually (the session re-renders the
  // diagnostics deterministically).
  struct KeyInfo {
    bool HaveKey = false;
    RequestKey Key;
    /// The pre-key parse, kept so the compile pass skips re-parsing
    /// (CompileRequest::PreParsed).
    std::shared_ptr<const Program> Prog;
    std::shared_ptr<const DiagnosticEngine> Diags;
  };
  std::vector<KeyInfo> Keys(N);
  Pool.parallelFor(N, [&](size_t I) {
    CompileRequest Req = Items[I];
    clampDeadline(Req, Opts.RequestDeadlineMs);
    auto Diags = std::make_shared<DiagnosticEngine>();
    std::optional<Program> P = compileDsl(Req.Source, *Diags);
    if (P) {
      Keys[I].Key = canonicalRequestKey(Req, *P);
      Keys[I].HaveKey = true;
      Keys[I].Prog = std::make_shared<const Program>(std::move(*P));
      Keys[I].Diags = std::move(Diags);
    }
  });

  // Pass 2 — resolve serially in request order, so which item is the
  // compiling representative of a duplicate group, and what counts as a
  // cache hit, are pure functions of the request list and the cache's
  // prior contents (no lookup/insert race with concurrent compiles).
  enum class Serve { Compile, Cache, Dedup };
  std::vector<Serve> How(N, Serve::Compile);
  std::vector<size_t> RepIndex(N, 0); // Dedup: index of the representative.
  std::unordered_map<std::string, size_t> RepOf;
  std::vector<size_t> ToCompile;
  for (size_t I = 0; I != N; ++I) {
    if (!Keys[I].HaveKey) {
      ToCompile.push_back(I);
      continue;
    }
    auto It = RepOf.find(Keys[I].Key.Repr);
    if (It != RepOf.end()) {
      How[I] = Serve::Dedup;
      RepIndex[I] = It->second;
      continue;
    }
    if (Opts.Cache) {
      DecompositionCache::Entry Cached;
      if (Opts.Cache->lookup(Keys[I].Key, Cached)) {
        How[I] = Serve::Cache;
        Res[I].CacheHit = true;
        Res[I].ExitCode = Cached.ExitCode;
        Res[I].Output = std::move(Cached.Output);
        Res[I].Error = std::move(Cached.Error);
        continue;
      }
    }
    RepOf.emplace(Keys[I].Key.Repr, I);
    ToCompile.push_back(I);
  }

  // Pass 3 — compile the representatives under the Supervisor on the
  // persistent pool. Each compile runs whole on the worker that picked it
  // up, with that thread's warm arena blocks, and publishes its counters
  // into the shared aggregate registry (a deterministic merge).
  std::vector<CaptureResult> Captured(ToCompile.size());
  SupervisorOptions SOpts;
  SOpts.MaxAttempts = Opts.MaxAttempts;
  SOpts.Observe = TraceContext{nullptr, &Agg};
  Supervisor Sup(&Pool, nullptr, SOpts);
  std::vector<SupervisedOutcome> Outcomes =
      Sup.run(ToCompile.size(), [&](size_t K, ResourceBudget *) -> Status {
        size_t I = ToCompile[K];
        CompileRequest Req = Items[I];
        clampDeadline(Req, Opts.RequestDeadlineMs);
        Req.PreParsed = Keys[I].Prog;
        Req.PreParsedDiags = Keys[I].Diags;
        Req.Driver.Observe = TraceContext{nullptr, &Agg};
        Captured[K] = runSessionCaptured(Req);
        return Status::ok();
      });

  // Pass 4 — merge serially in request order: land compiled results,
  // insert them into the shared cache, then copy dedup hits from their
  // representative, and tally.
  for (size_t K = 0; K != ToCompile.size(); ++K) {
    size_t I = ToCompile[K];
    if (K < Outcomes.size() && Outcomes[K].degraded()) {
      // Same shape as the service's supervised-compile failure path.
      Captured[K] = CaptureResult{};
      Captured[K].ExitCode = 3;
      Captured[K].Err = "error: service: " + Outcomes[K].Result.str() + "\n";
    }
    Res[I].ExitCode = Captured[K].ExitCode;
    Res[I].Output = Captured[K].Out;
    Res[I].Error = Captured[K].Err;
    if (Opts.Cache && Keys[I].HaveKey) {
      DecompositionCache::Entry E;
      E.ExitCode = Res[I].ExitCode;
      E.Output = Res[I].Output;
      E.Error = Res[I].Error;
      Opts.Cache->insert(Keys[I].Key, std::move(E));
    }
  }
  std::unordered_map<size_t, size_t> CapturedOf;
  for (size_t K = 0; K != ToCompile.size(); ++K)
    CapturedOf.emplace(ToCompile[K], K);

  uint64_t RunCacheHits = 0, RunDedupHits = 0;
  for (size_t I = 0; I != N; ++I) {
    ItemRow Row;
    Row.File = Items[I].FileName;
    switch (How[I]) {
    case Serve::Compile: {
      Row.Family = "compile";
      const CaptureResult &C = Captured[CapturedOf[I]];
      Row.LintErrors = C.LintErrors;
      Row.LintWarnings = C.LintWarnings;
      Row.Degradations = C.Degradations;
      ++Compiles;
      break;
    }
    case Serve::Cache:
      Row.Family = "cache";
      ++CacheHits;
      ++RunCacheHits;
      break;
    case Serve::Dedup: {
      Row.Family = "dedup";
      size_t Rep = RepIndex[I];
      Res[I].DedupHit = true;
      Res[I].ExitCode = Res[Rep].ExitCode;
      Res[I].Output = Res[Rep].Output;
      Res[I].Error = Res[Rep].Error;
      ++DedupHits;
      ++RunDedupHits;
      break;
    }
    }
    Row.ExitCode = Res[I].ExitCode;
    Rows.push_back(std::move(Row));
    ++Requests;
  }

  // The deterministic batch.* tallies (docs/OBSERVABILITY.md). Published
  // once per run from the serial merge, never from racing workers.
  Agg.add("batch.requests", N);
  uint64_t Ok = 0, Failed = 0, Degraded = 0;
  for (size_t I = 0; I != N; ++I) {
    if (Res[I].ExitCode == 0)
      ++Ok;
    else if (Res[I].ExitCode == 4)
      ++Degraded;
    else
      ++Failed;
  }
  Agg.add("batch.ok", Ok);
  Agg.add("batch.failures", Failed);
  Agg.add("batch.degraded", Degraded);
  Agg.add("batch.compiles", ToCompile.size());
  Agg.add("batch.cache_hits", RunCacheHits);
  Agg.add("batch.dedup_hits", RunDedupHits);
  return Res;
}

std::string BatchSession::reportJson() const {
  StatsReport R("batch");
  R.fieldUInt("requests", Requests);
  R.fieldUInt("compiles", Compiles);
  R.fieldUInt("cache_hits", CacheHits);
  R.fieldUInt("dedup_hits", DedupHits);
  R.fieldDouble("cache_hit_rate",
                Requests ? static_cast<double>(CacheHits + DedupHits) /
                               static_cast<double>(Requests)
                         : 0.0);
  std::string Items = "[";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const ItemRow &Row = Rows[I];
    Items += I ? ",\n    " : "\n    ";
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\"exit\": %d, \"served\": \"%s\", \"lint_errors\": %u, "
                  "\"lint_warnings\": %u, \"degradations\": %u}",
                  Row.ExitCode, Row.Family.c_str(), Row.LintErrors,
                  Row.LintWarnings, Row.Degradations);
    Items += "{\"file\": \"" + StatsReport::escapeJson(Row.File) + "\", " + Buf;
  }
  Items += Rows.empty() ? "]" : "\n  ]";
  R.field("items", Items);
  R.setCounters(&Agg);
  // No gauges, no spans: the report stays byte-identical across --jobs.
  return R.render();
}
