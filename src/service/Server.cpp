//===- service/Server.cpp - The alpd compilation service ---------------------===//

#include "service/Server.h"

#include "core/CompileSession.h"
#include "frontend/Lowering.h"
#include "service/Batch.h"
#include "support/CliFlags.h"
#include "support/Supervisor.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace alp;

//===----------------------------------------------------------------------===//
// Request flags
//===----------------------------------------------------------------------===//

bool alp::parseServiceRequestFlags(const std::string &Line,
                                   CompileRequest &Req, std::string &Err) {
  DriverOptions &Opts = Req.Driver;
  std::string LintPassesSpec;

  auto BoolFlag = [](bool &Target, bool Value) {
    return [&Target, Value](const std::string &) {
      Target = Value;
      return true;
    };
  };
  auto U64Flag = [](uint64_t &Target) {
    return [&Target](const std::string &V) { return parseU64(V, Target); };
  };

  // The semantic subset of alpc's flag table: same names, same value
  // grammar, minus the CLI-only I/O flags (--trace/--stats/--failpoints).
  const std::vector<FlagSpec> Table = {
      {"--no-local-phase", nullptr, "", BoolFlag(Opts.RunLocalPhase, false)},
      {"--no-blocking", nullptr, "", BoolFlag(Opts.EnableBlocking, false)},
      {"--no-replication", nullptr, "",
       BoolFlag(Opts.EnableReplication, false)},
      {"--no-projection", nullptr, "",
       BoolFlag(Opts.EnableIdleProjection, false)},
      {"--force-single", nullptr, "",
       [&](const std::string &) {
         Opts.Policy = JoinPolicy::ForceSingle;
         return true;
       }},
      {"--never-join", nullptr, "",
       [&](const std::string &) {
         Opts.Policy = JoinPolicy::NeverJoin;
         return true;
       }},
      {"--multi-level", nullptr, "", BoolFlag(Opts.MultiLevel, true)},
      {"--fuse", nullptr, "", BoolFlag(Req.DoFuse, true)},
      {"--spmd", nullptr, "", BoolFlag(Req.DoSpmd, true)},
      {"--emit", "spmd|comm-plan", "",
       [&](const std::string &V) {
         if (V != "spmd" && V != "comm-plan")
           return false;
         Req.EmitMode = V;
         return true;
       }},
      {"--machine", "dash|touchstone", "",
       [&](const std::string &V) {
         if (V != "dash" && V != "touchstone")
           return false;
         Req.MachineName = V;
         return true;
       }},
      {"--comm", nullptr, "", BoolFlag(Req.DoComm, true)},
      {"--print-ir", nullptr, "", BoolFlag(Req.DoIr, true)},
      {"--deps", nullptr, "", BoolFlag(Req.DoDeps, true)},
      {"--lint", nullptr, "", BoolFlag(Req.DoLint, true)},
      {"--lint-passes", "list", "",
       [&](const std::string &V) {
         LintPassesSpec = V;
         return true;
       }},
      {"--miscompile", "mode", "",
       [&](const std::string &V) {
         return parseMiscompileMode(V, Req.Miscompile);
       }},
      {"--verify", nullptr, "", BoolFlag(Req.DoVerify, true)},
      {"--Werror", nullptr, "", BoolFlag(Req.WError, true)},
      {"--diagnostics-format", "text|json|sarif", "",
       [&](const std::string &V) {
         if (V == "text")
           Req.Format = DiagFormat::Text;
         else if (V == "json")
           Req.Format = DiagFormat::Json;
         else if (V == "sarif")
           Req.Format = DiagFormat::Sarif;
         else
           return false;
         return true;
       }},
      {"--simulate", nullptr, "", BoolFlag(Req.DoSim, true)},
      {"--procs", "N", "",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U))
           return false;
         Req.Procs = static_cast<unsigned>(U);
         return true;
       }},
      {"--block", "N", "",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U))
           return false;
         Req.Block = static_cast<int64_t>(U);
         return true;
       }},
      {"--max-fm", "N", "", U64Flag(Opts.Budget.MaxFMConstraints)},
      {"--max-steps", "N", "", U64Flag(Opts.Budget.MaxEliminationSteps)},
      {"--max-iters", "N", "", U64Flag(Opts.Budget.MaxSolverIterations)},
      {"--deadline-ms", "N", "", U64Flag(Opts.DeadlineMs)},
      // Accepted for alpc compatibility and ignored: a compile is
      // single-threaded, and the reply never depended on the value.
      {"--jobs", "N", "",
       [](const std::string &V) {
         uint64_t U;
         return parseU64(V, U);
       }},
      {"--task-retries", "N", "",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U))
           return false;
         Opts.TaskAttempts = static_cast<unsigned>(U) + 1;
         return true;
       }},
      {"--task-deadline-ms", "N", "", U64Flag(Opts.TaskDeadlineMs)},
  };

  // Tokenize on spaces, then apply the table with alpc's value grammar
  // (--flag=value or --flag value), reporting errors as a string instead
  // of stderr.
  std::vector<std::string> Tokens;
  std::istringstream TS(Line);
  for (std::string T; TS >> T;)
    Tokens.push_back(T);

  for (size_t I = 0; I != Tokens.size(); ++I) {
    const std::string &A = Tokens[I];
    if (A.rfind("--", 0) != 0) {
      Err = "unexpected operand '" + A + "'";
      return false;
    }
    std::string Name = A, Value;
    bool HasValue = false;
    if (size_t Eq = A.find('='); Eq != std::string::npos) {
      Name = A.substr(0, Eq);
      Value = A.substr(Eq + 1);
      HasValue = true;
    }
    const FlagSpec *Spec = nullptr;
    for (const FlagSpec &F : Table)
      if (Name == F.Name) {
        Spec = &F;
        break;
      }
    if (!Spec) {
      Err = "unknown option '" + Name + "'";
      return false;
    }
    if (!Spec->Arg) {
      if (HasValue) {
        Err = "option '" + Name + "' takes no value";
        return false;
      }
    } else if (!HasValue) {
      if (I + 1 == Tokens.size()) {
        Err = "option '" + Name + "' requires a value";
        return false;
      }
      Value = Tokens[++I];
    }
    if (!Spec->Apply(Value)) {
      Err = "invalid value '" + Value + "' for option '" + Name + "'";
      return false;
    }
  }

  if (!LintPassesSpec.empty()) {
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
        Err = "unknown lint pass '" + Id + "'";
        return false;
      }
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Socket I/O helpers
//===----------------------------------------------------------------------===//

namespace {

bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool writeAll(int Fd, const std::string &S) {
  return writeAll(Fd, S.data(), S.size());
}

/// Reads one '\n'-terminated line (terminator consumed, not returned).
/// False on EOF/error/oversized line.
bool readLine(int Fd, std::string &Line, size_t MaxLen = 4096) {
  Line.clear();
  char C;
  for (;;) {
    ssize_t N = ::recv(Fd, &C, 1, 0);
    if (N == 0)
      return false;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (C == '\n')
      return true;
    Line.push_back(C);
    if (Line.size() > MaxLen)
      return false;
  }
}

bool readExact(int Fd, std::string &Out, size_t Len) {
  Out.resize(Len);
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = ::recv(Fd, Out.data() + Got, Len - Got, 0);
    if (N == 0)
      return false;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Got += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.MaxCacheEntries) {
  Cache.setObserve(TraceContext{nullptr, &Metrics});
}

Server::~Server() {
  requestShutdown();
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (WorkerThread.joinable())
    WorkerThread.join();
}

Status Server::start() {
  if (Opts.SocketPath.empty())
    return Status::error(StatusCode::InvalidInput, "empty socket path");
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return Status::error(StatusCode::InvalidInput,
                         "socket path too long: " + Opts.SocketPath);
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Status::error(StatusCode::InvalidInput,
                         std::string("socket: ") + std::strerror(errno));
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Status S = Status::error(StatusCode::InvalidInput,
                             "bind '" + Opts.SocketPath +
                                 "': " + std::strerror(errno));
    ::close(Fd);
    return S;
  }
  if (::listen(Fd, 128) < 0) {
    Status S = Status::error(StatusCode::InvalidInput,
                             std::string("listen: ") + std::strerror(errno));
    ::close(Fd);
    return S;
  }
  ListenFd.store(Fd, std::memory_order_release);

  // Warm start: a stale, corrupt, or fault-injected cache image degrades
  // to an empty cache, never a dead daemon.
  if (!Opts.CachePersistPath.empty()) {
    if (Status S = Cache.loadFromFile(Opts.CachePersistPath); !S.isOk())
      Metrics.add("service.cache_load_failures");
    else
      Metrics.add("service.cache_loads");
  }

  Pool = std::make_unique<ThreadPool>(Opts.Threads);
  AcceptThread = std::thread([this] { acceptLoop(); });
  WorkerThread = std::thread([this] {
    Pool->parallelFor(Pool->threadCount(),
                      [this](size_t) { drainConnections(); });
  });
  return Status::ok();
}

void Server::requestShutdown() {
  Stop.store(true, std::memory_order_release);
  int Fd = ListenFd.exchange(-1, std::memory_order_acq_rel);
  if (Fd >= 0) {
    // shutdown() before close(): a close alone does not wake a thread
    // already blocked in accept() on this fd (the in-flight syscall pins
    // the open file), so the accept loop would never observe the stop.
    // Both calls are async-signal-safe, which the SIGTERM handler needs.
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }
}

void Server::wait() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (WorkerThread.joinable())
    WorkerThread.join();
  if (!Opts.CachePersistPath.empty()) {
    if (Status S = Cache.saveToFile(Opts.CachePersistPath); !S.isOk())
      Metrics.add("service.cache_save_failures");
    else
      Metrics.add("service.cache_saves");
  }
}

void Server::acceptLoop() {
  for (;;) {
    int LFd = ListenFd.load(std::memory_order_acquire);
    if (LFd < 0)
      break;
    int C = ::accept(LFd, nullptr, nullptr);
    if (C < 0) {
      if (Stop.load(std::memory_order_acquire))
        break;
      if (errno == EINTR)
        continue;
      break;
    }
    if (Stop.load(std::memory_order_acquire)) {
      ::close(C);
      break;
    }
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      ConnQueue.push_back(C);
    }
    QueueCV.notify_one();
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Draining = true;
  }
  QueueCV.notify_all();
}

void Server::drainConnections() {
  for (;;) {
    int Fd = -1;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCV.wait(Lock, [this] { return Draining || !ConnQueue.empty(); });
      if (ConnQueue.empty())
        return; // draining and nothing queued: exit
      Fd = ConnQueue.front();
      ConnQueue.pop_front();
    }
    handleConnection(Fd);
  }
}

void Server::handleConnection(int Fd) {
  std::string Line;
  while (readLine(Fd, Line)) {
    if (Line == "PING") {
      Metrics.add("service.pings");
      if (!writeAll(Fd, "PONG\n"))
        break;
      continue;
    }
    if (Line == "STATS") {
      std::string Json = Metrics.renderCountersJson();
      std::ostringstream Reply;
      Reply << "STATS " << Json.size() << "\n" << Json;
      if (!writeAll(Fd, Reply.str()))
        break;
      continue;
    }
    if (Line == "QUIT") {
      writeAll(Fd, "BYE\n");
      break;
    }
    if (Line == "SHUTDOWN") {
      Metrics.add("service.shutdowns");
      writeAll(Fd, "BYE\n");
      requestShutdown();
      break;
    }
    if (Line.rfind("COMPILE ", 0) == 0) {
      uint64_t Len = 0;
      if (!parseU64(Line.substr(8), Len) || Len > (64u << 20)) {
        Metrics.add("service.protocol_errors");
        writeAll(Fd, "ERR malformed COMPILE length\n");
        break;
      }
      std::string Payload;
      if (!readExact(Fd, Payload, Len)) {
        Metrics.add("service.protocol_errors");
        break;
      }
      int Exit = 0;
      bool Hit = false;
      std::string OutBytes, ErrBytes;
      handleCompile(Payload, Exit, Hit, OutBytes, ErrBytes);
      std::ostringstream Reply;
      Reply << "RESULT " << Exit << ' ' << (Hit ? "hit" : "miss") << ' '
            << OutBytes.size() << ' ' << ErrBytes.size() << '\n';
      if (!writeAll(Fd, Reply.str()) || !writeAll(Fd, OutBytes) ||
          !writeAll(Fd, ErrBytes))
        break;
      continue;
    }
    if (Line.rfind("BATCH ", 0) == 0) {
      uint64_t Count = 0;
      if (!parseU64(Line.substr(6), Count) || Count == 0 || Count > 4096) {
        Metrics.add("service.protocol_errors");
        writeAll(Fd, "ERR malformed BATCH count\n");
        break;
      }
      std::vector<std::string> Payloads(Count);
      bool ReadOk = true;
      for (uint64_t I = 0; I != Count && ReadOk; ++I) {
        std::string LenLine;
        uint64_t Len = 0;
        ReadOk = readLine(Fd, LenLine) && parseU64(LenLine, Len) &&
                 Len <= (64u << 20) && readExact(Fd, Payloads[I], Len);
      }
      if (!ReadOk) {
        Metrics.add("service.protocol_errors");
        writeAll(Fd, "ERR malformed BATCH payload\n");
        break;
      }
      if (!handleBatch(Fd, Payloads))
        break;
      continue;
    }
    Metrics.add("service.protocol_errors");
    writeAll(Fd, "ERR unknown command\n");
    break;
  }
  ::close(Fd);
}

bool Server::handleBatch(int Fd, const std::vector<std::string> &Payloads) {
  Metrics.add("service.batches");
  Metrics.add("service.requests", Payloads.size());

  // Flag-line errors answer per item without compiling, exactly like the
  // single-COMPILE path; well-formed items go to the batch session.
  const size_t N = Payloads.size();
  std::vector<BatchItemResult> Results(N);
  std::vector<bool> FlagError(N, false);
  std::vector<CompileRequest> Items;
  std::vector<size_t> ItemIndex; // Batch position -> payload position.
  for (size_t I = 0; I != N; ++I) {
    size_t Eol = Payloads[I].find('\n');
    std::string FlagsLine =
        Eol == std::string::npos ? Payloads[I] : Payloads[I].substr(0, Eol);
    CompileRequest Req;
    Req.FileName = "<batch:" + std::to_string(I) + ">";
    Req.Source =
        Eol == std::string::npos ? std::string() : Payloads[I].substr(Eol + 1);
    std::string FlagErr;
    if (!parseServiceRequestFlags(FlagsLine, Req, FlagErr)) {
      Metrics.add("service.request_flag_errors");
      FlagError[I] = true;
      Results[I].ExitCode = 2;
      Results[I].Error = "error: " + FlagErr + "\n";
      continue;
    }
    Items.push_back(std::move(Req));
    ItemIndex.push_back(I);
  }

  {
    std::lock_guard<std::mutex> Lock(BatchMutex);
    if (!Batch) {
      BatchOptions BOpts;
      BOpts.Jobs = Opts.Threads;
      BOpts.Cache = &Cache;
      BOpts.MaxAttempts = Opts.CompileAttempts;
      BOpts.RequestDeadlineMs = Opts.RequestDeadlineMs;
      Batch = std::make_unique<BatchSession>(BOpts);
    }
    // Age the cache at the same per-request cadence as single COMPILEs.
    for (size_t I = 0; I != Items.size(); ++I) {
      uint64_t Seq = CompileCount.fetch_add(1, std::memory_order_relaxed) + 1;
      if (Opts.GenerationEvery && Seq % Opts.GenerationEvery == 0)
        Cache.bumpGeneration();
    }
    std::vector<BatchItemResult> BatchResults = Batch->run(Items);
    for (size_t K = 0; K != BatchResults.size(); ++K)
      Results[ItemIndex[K]] = std::move(BatchResults[K]);
    Metrics.setGauge("service.cache_size", static_cast<double>(Cache.size()));
  }

  for (size_t I = 0; I != N; ++I) {
    bool Hit = Results[I].CacheHit || Results[I].DedupHit;
    std::ostringstream Reply;
    Reply << "RESULT " << Results[I].ExitCode << ' '
          << (Hit ? "hit" : "miss") << ' ' << Results[I].Output.size() << ' '
          << Results[I].Error.size() << '\n';
    if (!writeAll(Fd, Reply.str()) || !writeAll(Fd, Results[I].Output) ||
        !writeAll(Fd, Results[I].Error))
      return false;
  }
  std::string Report;
  {
    std::lock_guard<std::mutex> Lock(BatchMutex);
    Report = Batch->reportJson();
  }
  std::ostringstream Trailer;
  Trailer << "BATCHSTATS " << Report.size() << '\n' << Report;
  return writeAll(Fd, Trailer.str());
}

void Server::handleCompile(const std::string &Payload, int &Exit, bool &Hit,
                           std::string &OutBytes, std::string &ErrBytes) {
  Metrics.add("service.requests");
  uint64_t Seq = CompileCount.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Opts.GenerationEvery && Seq % Opts.GenerationEvery == 0)
    Cache.bumpGeneration();

  size_t Eol = Payload.find('\n');
  std::string FlagsLine =
      Eol == std::string::npos ? Payload : Payload.substr(0, Eol);
  std::string Source =
      Eol == std::string::npos ? std::string() : Payload.substr(Eol + 1);

  CompileRequest Req;
  Req.FileName = "<request>";
  Req.Source = Source;
  std::string FlagErr;
  if (!parseServiceRequestFlags(FlagsLine, Req, FlagErr)) {
    Metrics.add("service.request_flag_errors");
    Exit = 2;
    Hit = false;
    OutBytes.clear();
    ErrBytes = "error: " + FlagErr + "\n";
    return;
  }
  if (Opts.RequestDeadlineMs &&
      (Req.Driver.DeadlineMs == 0 ||
       Req.Driver.DeadlineMs > Opts.RequestDeadlineMs))
    Req.Driver.DeadlineMs = Opts.RequestDeadlineMs;

  // Canonical keying needs the parsed program; a parse failure bypasses
  // the cache (the session re-parses and renders the diagnostics). On a
  // miss the parse is handed to the session (CompileRequest::PreParsed)
  // so the source is never parsed twice.
  bool HaveKey = false;
  RequestKey Key;
  {
    auto Diags = std::make_shared<DiagnosticEngine>();
    std::optional<Program> KeyProg = compileDsl(Req.Source, *Diags);
    if (KeyProg) {
      Key = canonicalRequestKey(Req, *KeyProg);
      HaveKey = true;
      Req.PreParsed = std::make_shared<const Program>(std::move(*KeyProg));
      Req.PreParsedDiags = std::move(Diags);
    }
  }
  if (HaveKey) {
    DecompositionCache::Entry Cached;
    if (Cache.lookup(Key, Cached)) {
      Exit = Cached.ExitCode;
      Hit = true;
      OutBytes = std::move(Cached.Output);
      ErrBytes = std::move(Cached.Error);
      Metrics.setGauge("service.cache_size",
                       static_cast<double>(Cache.size()));
      return;
    }
  }
  Hit = false;

  // The compile runs under the Supervisor: structured exception capture,
  // optional retries, and the driver.tasks_* ledger counters — one
  // misbehaving request cannot unwind a worker thread.
  SupervisorOptions SOpts;
  SOpts.MaxAttempts = Opts.CompileAttempts;
  SOpts.Observe = TraceContext{nullptr, &Metrics};
  Supervisor Sup(nullptr, nullptr, SOpts);
  CaptureResult R;
  std::vector<SupervisedOutcome> Outcomes =
      Sup.run(1, [&](size_t, ResourceBudget *) -> Status {
        R = runSessionCaptured(Req);
        return Status::ok();
      });
  if (!Outcomes.empty() && Outcomes[0].degraded()) {
    Metrics.add("service.compile_failures");
    Exit = 3;
    OutBytes.clear();
    ErrBytes =
        "error: service: " + Outcomes[0].Result.str() + "\n";
    return;
  }
  Exit = R.ExitCode;
  OutBytes = R.Out;
  ErrBytes = R.Err;
  if (Exit == 4)
    Metrics.add("service.compile_degraded");

  if (HaveKey) {
    DecompositionCache::Entry E;
    E.ExitCode = Exit;
    E.Output = OutBytes;
    E.Error = ErrBytes;
    Cache.insert(Key, std::move(E));
    Metrics.setGauge("service.cache_size",
                     static_cast<double>(Cache.size()));
  }
}
