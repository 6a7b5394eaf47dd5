//===- service/DecompositionCache.cpp - Process-wide compile cache -----------===//

#include "service/DecompositionCache.h"

#include "core/CompileSession.h"
#include "ir/Printer.h"
#include "support/AtomicFile.h"
#include "support/FailPoint.h"

#include <fstream>
#include <sstream>

using namespace alp;

namespace {

/// Cache-image ingestion: fired after the persisted image is read but
/// before it is trusted, so a corrupt-image recovery path can be forced.
FailPoint FpCacheLoad("service.cache.load");

constexpr const char *CacheMagic = "alp-decomposition-cache 1";

} // namespace

uint64_t alp::fnv1aHash(const std::string &Bytes) {
  uint64_t H = 14695981039346656037ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

std::string alp::requestFingerprint(const CompileRequest &Req) {
  // Every field that can change the answer bytes, in a fixed order. The
  // Partition/Orientation seed templates are not reachable from a service
  // request and are excluded.
  const DriverOptions &D = Req.Driver;
  std::ostringstream OS;
  OS << "machine=" << Req.MachineName << " procs=" << Req.Procs
     << " block=" << Req.Block << " spmd=" << Req.DoSpmd
     << " ir=" << Req.DoIr << " deps=" << Req.DoDeps << " sim=" << Req.DoSim
     << " comm=" << Req.DoComm << " fuse=" << Req.DoFuse
     << " verify=" << Req.DoVerify << " lint=" << Req.DoLint
     << " werror=" << Req.WError << " emit=" << Req.EmitMode
     << " miscompile=" << static_cast<int>(Req.Miscompile)
     << " format=" << static_cast<int>(Req.Format)
     << " lintsel=" << Req.LintPassesExplicit << Req.SelRace << Req.SelModel
     << Req.SelDecomp << Req.SelSchedule << " local=" << D.RunLocalPhase
     << " blocking=" << D.EnableBlocking
     << " policy=" << static_cast<int>(D.Policy)
     << " multilevel=" << D.MultiLevel << " repl=" << D.EnableReplication
     << " proj=" << D.EnableIdleProjection
     << " maxfm=" << D.Budget.MaxFMConstraints
     << " maxsteps=" << D.Budget.MaxEliminationSteps
     << " maxiters=" << D.Budget.MaxSolverIterations
     << " deadline=" << D.DeadlineMs << " attempts=" << D.TaskAttempts
     << " taskdeadline=" << D.TaskDeadlineMs;
  return OS.str();
}

RequestKey alp::canonicalRequestKey(const CompileRequest &Req,
                                    const Program &P) {
  RequestKey K;
  K.Repr = requestFingerprint(Req);
  K.Repr += '\n';
  K.Repr += printProgram(P);
  K.Hash = fnv1aHash(K.Repr);
  return K;
}

DecompositionCache::DecompositionCache(size_t MaxEntries)
    : MaxPerShard(std::max<size_t>(1, MaxEntries / NumShards)) {}

bool DecompositionCache::lookup(const RequestKey &K, Entry &Out) {
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  if (It == S.Map.end()) {
    Observe.count("service.cache_misses");
    return false;
  }
  It->second.Gen = generation(); // touch: hot entries stay young
  Out = It->second.E;
  Observe.count("service.cache_hits");
  return true;
}

void DecompositionCache::insert(const RequestKey &K, Entry E) {
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  if (It != S.Map.end()) {
    It->second = Stored{std::move(E), generation()};
    return;
  }
  if (S.Map.size() >= MaxPerShard) {
    // Evict the oldest generation resident in this shard. When every
    // entry is current-generation the cache is simply hot; evict one
    // arbitrary entry to stay bounded.
    uint64_t Oldest = UINT64_MAX;
    for (const auto &KV : S.Map)
      Oldest = std::min(Oldest, KV.second.Gen);
    size_t Evicted = 0;
    for (auto I = S.Map.begin(); I != S.Map.end();) {
      if (I->second.Gen == Oldest && S.Map.size() > 1) {
        I = S.Map.erase(I);
        ++Evicted;
      } else {
        ++I;
      }
    }
    if (Evicted == 0 && !S.Map.empty()) {
      S.Map.erase(S.Map.begin());
      Evicted = 1;
    }
    Observe.count("service.cache_evictions", Evicted);
  }
  S.Map.emplace(K, Stored{std::move(E), generation()});
  Observe.count("service.cache_inserts");
}

size_t DecompositionCache::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    N += S.Map.size();
  }
  return N;
}

void DecompositionCache::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Map.clear();
  }
}

std::string DecompositionCache::serialize() const {
  // Text header + length-prefixed records: lengths make the payload
  // binary-safe (outputs contain arbitrary bytes and newlines).
  std::ostringstream OS;
  OS << CacheMagic << "\n";
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    for (const auto &KV : S.Map) {
      OS << "entry " << KV.first.Hash << ' ' << KV.second.E.ExitCode << ' '
         << KV.first.Repr.size() << ' ' << KV.second.E.Output.size() << ' '
         << KV.second.E.Error.size() << '\n';
      OS << KV.first.Repr << KV.second.E.Output << KV.second.E.Error;
    }
  }
  return OS.str();
}

Status DecompositionCache::deserialize(const std::string &Text) {
  clear();
  auto Fail = [&](const std::string &Why) {
    clear();
    return Status::error(StatusCode::InvalidInput,
                         "cache image: " + Why);
  };
  size_t Pos = Text.find('\n');
  if (Pos == std::string::npos || Text.substr(0, Pos) != CacheMagic)
    return Fail("bad magic header");
  ++Pos;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      return Fail("truncated record header");
    std::istringstream Header(Text.substr(Pos, Eol - Pos));
    std::string Tag;
    uint64_t Hash = 0;
    int Exit = 0;
    size_t RepLen = 0, OutLen = 0, ErrLen = 0;
    if (!(Header >> Tag >> Hash >> Exit >> RepLen >> OutLen >> ErrLen) ||
        Tag != "entry")
      return Fail("malformed record header");
    Pos = Eol + 1;
    if (Text.size() - Pos < RepLen + OutLen + ErrLen)
      return Fail("truncated record payload");
    RequestKey K;
    K.Repr = Text.substr(Pos, RepLen);
    Pos += RepLen;
    K.Hash = fnv1aHash(K.Repr);
    if (K.Hash != Hash)
      return Fail("key hash mismatch (corrupt image)");
    Entry E;
    E.ExitCode = Exit;
    E.Output = Text.substr(Pos, OutLen);
    Pos += OutLen;
    E.Error = Text.substr(Pos, ErrLen);
    Pos += ErrLen;
    insert(K, std::move(E));
  }
  return Status::ok();
}

Status DecompositionCache::saveToFile(const std::string &Path) const {
  return writeFileAtomic(Path, serialize());
}

Status DecompositionCache::loadFromFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Status::error(StatusCode::InvalidInput,
                         "cannot open cache file '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (Status S = FpCacheLoad.evaluate(); !S.isOk()) {
    clear();
    return S;
  }
  return deserialize(Buf.str());
}
