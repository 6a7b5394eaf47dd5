//===- perfbench/src/Serve.cpp - The serve_mixed workload ------------------===//
//
// An in-process alpd Server on a private Unix socket, driven open-loop at a
// fixed offered rate by nproc client connections. Each request is timed
// from when it was due, so a stall shows up in the requests queued behind
// it. The traced run replays the same schedule one request at a time
// against a fresh server and re-runs each request's service path in
// process (flags, key, cache, compile, batch), timing every call; what the
// round trip takes beyond that replay is counted as transport wait.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "frontend/Lowering.h"
#include "service/Batch.h"
#include "service/DecompositionCache.h"
#include "service/Server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <sched.h>
#include <set>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace alp;
using namespace bench;

namespace {

/// Every request compiles as `alpc --machine=touchstone --emit=spmd --verify`.
const char *const RequestFlags = "--machine=touchstone --emit=spmd --verify";
/// Offered load, and the latency limit goodput counts against, from
/// `--capacity --seconds 30` over seeds 1-3 on the reference box (4-core
/// Intel Xeon): closed-loop capacity 2030-2117 req/s (median 2098), and
/// first-seen p99 over one connection 16.8-22.6 ms (median 22.3), while
/// other tenants loaded the host; 2980-3222 req/s (median 3129) and
/// 10.0-10.9 ms when they did not. The rate is an eighth of the lower median
/// capacity, and so a twelfth of the higher. At a quarter (525 req/s) the
/// cache (4096 entries) filled in the last sixth of a 30 s run; evictions
/// then turned repeats into misses, all nproc connections were often busy
/// with compiles (the load generator's p90 lateness rose from 0.1 to 2.2
/// ms), and hits queued behind them: p50 doubled in the last windows of some
/// runs and moved 20-40% from run to run. At an eighth the cache does not
/// fill and no request waits for a connection. The limit is four times the
/// cold p99 of the loaded host.
constexpr double OfferedRatePerS = 262;
constexpr double LatencyLimitMs = 90;
/// How long a client spins before a request is due.
constexpr std::chrono::microseconds DueSpin{200};
constexpr uint64_t ServeSeedSalt = 0x5e7e;
/// First-seen programs are the generator corpus of this seed, in order,
/// and the sequence of request kinds is drawn from it too, so every run
/// compiles the same programs at the same points of the schedule, alone or
/// in the same batches. The tail, which the heaviest of those compiles set,
/// then does not move with --seed: when the seed drew the kinds as well,
/// the tail moved 10-15% between seeds. --seed draws which earlier programs
/// the repeats, variants and batches pick.
constexpr uint64_t ServeCorpusSeed = 11;
constexpr unsigned SetupReps = 5, SelfCheckRequests = 24;
/// Calibration kernel samples taken before and after the open loop.
constexpr unsigned IdleSamples = 5;
/// The traced run replays this prefix of the schedule, so its counters
/// describe the same requests on every run.
constexpr size_t ReplayRequests = 1000;
/// Request mix: first-seen programs (misses), formatting-only variants
/// (same canonical key, other bytes), byte-identical repeats (the other
/// 60%), and BATCH. With these shares compiles (misses and BATCH's new
/// programs) take about 70% of the traced service time while hits are
/// still three quarters of the cache lookups, so both paths weigh in.
constexpr double FirstShare = 0.20, VariantShare = 0.15, BatchShare = 0.05;

enum class Kind { First, Repeat, Variant, Batch };

const char *kindName(Kind K) {
  switch (K) {
  case Kind::First:
    return "first-seen";
  case Kind::Repeat:
    return "repeat";
  case Kind::Variant:
    return "variant";
  case Kind::Batch:
    return "batch";
  }
  return "?";
}

struct Item {
  size_t Program = 0;
  /// Set for a formatting-only variant: the variant's number.
  std::optional<size_t> Variant;
};

struct Request {
  Kind K = Kind::First;
  std::vector<Item> Items; ///< One for COMPILE; several for BATCH.
};

struct Schedule {
  std::vector<Input> Programs;
  std::vector<std::string> Expected; ///< Golden stdout per program, or empty.
  std::vector<Request> Requests;
};

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Trailing blanks on every line plus a trailing comment: other bytes, the
/// same canonical IR, and the same source locations in every diagnostic.
std::string formattingVariant(const std::string &Source, size_t K) {
  std::string Out;
  for (char C : Source) {
    if (C == '\n')
      Out += "  ";
    Out += C;
  }
  return Out + "// formatting variant " + std::to_string(K) + "\n";
}

/// The request body of \p It: the flags line, then the source.
std::string payload(const Schedule &S, const Item &It) {
  const std::string &Source = S.Programs[It.Program].Source;
  return std::string(RequestFlags) + "\n" +
         (It.Variant ? formattingVariant(Source, *It.Variant) : Source);
}

/// The bytes sent on the wire for \p Req.
std::string message(const Schedule &S, const Request &Req) {
  if (Req.K != Kind::Batch) {
    std::string P = payload(S, Req.Items[0]);
    return "COMPILE " + std::to_string(P.size()) + "\n" + P;
  }
  std::string Msg = "BATCH " + std::to_string(Req.Items.size()) + "\n";
  for (const Item &It : Req.Items) {
    std::string P = payload(S, It);
    Msg += std::to_string(P.size()) + "\n" + P;
  }
  return Msg;
}

Schedule buildSchedule(const Options &O, size_t Count) {
  Schedule S;
  // The two golden-pinned examples come first, so they are popular.
  S.Programs = examplePrograms(O.Root);
  for (Input &In : paperPrograms(O.Root))
    S.Programs.push_back(std::move(In));
  for (Input &In : promotedTemplates(O.Root))
    S.Programs.push_back(std::move(In));
  for (const Input &In : S.Programs)
    S.Expected.push_back(goldenStdout(O.Root, In));

  uint64_t Rng = O.Seed ^ ServeSeedSalt, KindRng = ServeCorpusSeed ^ ServeSeedSalt;
  auto Uniform = [](uint64_t &State) {
    return static_cast<double>(splitmix(State) >> 11) * 0x1p-53;
  };
  // Programs are first seen in index order, so the programs seen before a
  // request are [0, Seen). Generated programs are added as they are needed.
  size_t Seen = 0, Next = 0;
  uint64_t Generated = 0;
  auto Fresh = [&] {
    if (Next == S.Programs.size()) {
      for (Input &In : generatedPrograms(ServeCorpusSeed, Generated++, 1))
        S.Programs.push_back(std::move(In));
      S.Expected.emplace_back();
    }
    return Item{Next++, std::nullopt};
  };
  // Popularity is skewed toward the programs seen first: index U^3 * Seen
  // puts half the picks on the first eighth of the programs seen.
  auto Popular = [&] {
    double U = Uniform(Rng);
    return static_cast<size_t>(U * U * U * static_cast<double>(Seen));
  };
  for (size_t K = 0; K != Count; ++K) {
    double R = Uniform(KindRng);
    Request Req;
    if (Seen == 0 || R < FirstShare) {
      Req.K = Kind::First;
      Req.Items.push_back(Fresh());
    } else if (R < FirstShare + VariantShare) {
      Req.K = Kind::Variant;
      Req.Items.push_back({Popular(), K});
    } else if (R < 1 - BatchShare) {
      Req.K = Kind::Repeat;
      Req.Items.push_back({Popular(), std::nullopt});
    } else {
      // A new program twice (a within-batch duplicate), a cache hit, and
      // another new program.
      Req.K = Kind::Batch;
      Item X = Fresh();
      Item P{Popular(), std::nullopt};
      Req.Items = {X, X, P, Fresh()};
    }
    Seen = Next;
    S.Requests.push_back(std::move(Req));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Client side of the alpd line protocol
//===----------------------------------------------------------------------===//

struct Reply {
  int Exit = 0;
  bool Hit = false;
  std::string Out, Err;
};

class Connection {
public:
  explicit Connection(const std::string &Path) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return;
    std::copy(Path.begin(), Path.end(), Addr.sun_path);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0 &&
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~Connection() {
    if (Fd >= 0) {
      send("QUIT\n");
      ::close(Fd);
    }
  }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  bool ok() const { return Fd >= 0; }

  bool send(const std::string &S) {
    for (size_t Done = 0; Done < S.size();) {
      ssize_t N = ::send(Fd, S.data() + Done, S.size() - Done, MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Done += static_cast<size_t>(N);
    }
    return true;
  }

  bool line(std::string &L) {
    L.clear();
    for (;;) {
      size_t Eol = Buf.find('\n', Pos);
      if (Eol != std::string::npos) {
        L = Buf.substr(Pos, Eol - Pos);
        Pos = Eol + 1;
        return true;
      }
      if (!fill())
        return false;
    }
  }

  bool exact(std::string &Out, size_t Len) {
    while (Buf.size() - Pos < Len)
      if (!fill())
        return false;
    Out = Buf.substr(Pos, Len);
    Pos += Len;
    return true;
  }

  bool result(Reply &R) {
    std::string Header;
    if (!line(Header) || Header.rfind("RESULT ", 0) != 0)
      return false;
    char V[8] = {};
    size_t OutLen = 0, ErrLen = 0;
    if (std::sscanf(Header.c_str(), "RESULT %d %7s %zu %zu", &R.Exit, V,
                    &OutLen, &ErrLen) != 4)
      return false;
    R.Hit = std::string(V) == "hit";
    return exact(R.Out, OutLen) && exact(R.Err, ErrLen);
  }

  /// Sends \p Msg, a COMPILE or (when \p Batch) a BATCH of \p Items
  /// programs, and reads every reply.
  bool roundTrip(const std::string &Msg, size_t Items, bool Batch,
                 std::vector<Reply> &Replies) {
    if (!send(Msg))
      return false;
    Replies.assign(Items, Reply());
    for (Reply &R : Replies)
      if (!result(R))
        return false;
    if (!Batch)
      return true;
    std::string Trailer, Report;
    size_t Len = 0;
    return line(Trailer) &&
           std::sscanf(Trailer.c_str(), "BATCHSTATS %zu", &Len) == 1 &&
           exact(Report, Len);
  }

private:
  bool fill() {
    if (Pos > 0) {
      Buf.erase(0, Pos);
      Pos = 0;
    }
    char Tmp[65536];
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N <= 0)
      return false;
    Buf.append(Tmp, static_cast<size_t>(N));
    return true;
  }

  int Fd = -1;
  std::string Buf;
  size_t Pos = 0;
};

/// An in-process alpd on a private socket under .bench_build; stops and
/// joins its threads on destruction.
class LiveServer {
public:
  explicit LiveServer(unsigned Threads) {
    std::filesystem::create_directories(".bench_build");
    ServerOptions SO;
    SO.SocketPath = ".bench_build/alp_bench_" + std::to_string(::getpid()) +
                    "_" + std::to_string(Serial++) + ".sock";
    SO.Threads = Threads;
    S = std::make_unique<Server>(SO);
    if (Status St = S->start(); !St.isOk())
      throw std::runtime_error("server start failed: " + St.str());
    Connection C(SO.SocketPath);
    std::string Pong;
    if (!C.ok() || !C.send("PING\n") || !C.line(Pong) || Pong != "PONG")
      throw std::runtime_error("server does not answer PING");
  }
  ~LiveServer() {
    S->requestShutdown();
    S->wait();
    std::filesystem::remove(S->options().SocketPath);
  }
  LiveServer(const LiveServer &) = delete;
  LiveServer &operator=(const LiveServer &) = delete;

  Server &server() { return *S; }
  const std::string &path() const { return S->options().SocketPath; }

private:
  static inline unsigned Serial = 0;
  std::unique_ptr<Server> S;
};


//===----------------------------------------------------------------------===//
// Checks shared by every run
//===----------------------------------------------------------------------===//

/// What is kept of one reply: enough to compare it with every other reply
/// for the same program, and no bytes, so that peak_rss_mb measures the
/// server rather than this benchmark's bookkeeping.
struct Answer {
  int Exit = 0;
  bool Hit = false;
  uint64_t Digest = 0;  ///< Of the exit code, stdout and stderr.
  bool GoldenOk = true; ///< Stdout is the testdata/codegen golden, if any.
  bool operator==(const Answer &O) const {
    return Exit == O.Exit && Hit == O.Hit && Digest == O.Digest;
  }
};

Answer answerOf(const Schedule &S, const Item &It, int Exit, bool Hit,
                const std::string &Out, const std::string &Err) {
  const std::string &Golden = S.Expected[It.Program];
  return {Exit, Hit,
          fnv1aHash(std::to_string(Exit) + '\0' + Out + '\0' + Err),
          Golden.empty() || (Exit == 0 && Out == Golden)};
}

std::vector<Answer> answersOf(const Schedule &S, const Request &Req,
                              const std::vector<Reply> &Replies) {
  std::vector<Answer> A;
  for (size_t I = 0; I != Replies.size(); ++I)
    A.push_back(answerOf(S, Req.Items[I], Replies[I].Exit, Replies[I].Hit,
                         Replies[I].Out, Replies[I].Err));
  return A;
}

struct Outcomes {
  explicit Outcomes(const Schedule &S) : Digest(S.Programs.size()) {}
  /// First reply digest per program; every later reply must match.
  std::vector<std::optional<uint64_t>> Digest;
  uint64_t FailUnits = 0, DegradedUnits = 0;
  std::vector<unsigned> KindCount = std::vector<unsigned>(4, 0);
  std::set<size_t> Rejected, Degraded;
};

/// Checks one request's answers; returns false when the request failed an
/// output check.
bool checkAnswers(const Schedule &S, const Request &Req,
                  const std::vector<Answer> &Answers, Outcomes &Oc,
                  RunReport &R) {
  bool Ok = true, CompilerFailed = false, Degraded = false;
  for (size_t I = 0; I != Req.Items.size(); ++I) {
    size_t P = Req.Items[I].Program;
    const Answer &A = Answers[I];
    if (!Oc.Digest[P])
      Oc.Digest[P] = A.Digest;
    else if (*Oc.Digest[P] != A.Digest) {
      Ok = false;
      R.fail(S.Programs[P].Name + ": reply differs from an earlier reply "
                                  "for the same canonical program");
    }
    if (!A.GoldenOk) {
      Ok = false;
      R.fail(S.Programs[P].Name + ": SPMD differs from testdata/codegen golden");
    }
    if (A.Exit == 1 || A.Exit == 3) {
      CompilerFailed = true;
      Oc.Rejected.insert(P);
    } else if (A.Exit == 4) {
      Degraded = true;
      Oc.Degraded.insert(P);
    }
  }
  if (!Ok || CompilerFailed)
    ++Oc.FailUnits;
  else if (Degraded)
    ++Oc.DegradedUnits;
  return Ok;
}

void reportOutcomes(const Schedule &S, const Outcomes &Oc, RunReport &R) {
  std::string Rejected, Degraded, Digest;
  std::vector<Input> Used;
  for (size_t P = 0; P != Oc.Digest.size(); ++P)
    if (Oc.Digest[P]) {
      Used.push_back(S.Programs[P]);
      Digest += S.Programs[P].Name + '\0' +
                format("%016llx", static_cast<unsigned long long>(*Oc.Digest[P]));
    }
  R.line("programs: " + std::to_string(Used.size()) + " (" + composition(Used) +
         ")");
  for (size_t P : Oc.Rejected)
    Rejected += " " + S.Programs[P].Name;
  for (size_t P : Oc.Degraded)
    Degraded += " " + S.Programs[P].Name;
  R.line(format("request mix: first-seen %u, repeat %u, variant %u, batch %u",
                Oc.KindCount[0], Oc.KindCount[1], Oc.KindCount[2],
                Oc.KindCount[3]));
  R.line("programs failing (exit 1/3):" + (Rejected.empty() ? " none" : Rejected));
  R.line("programs degraded (exit 4):" + (Degraded.empty() ? " none" : Degraded));
  R.line(format("output_digest: %016llx",
                static_cast<unsigned long long>(fnv1aHash(Digest))));
}

//===----------------------------------------------------------------------===//
// The load generator
//===----------------------------------------------------------------------===//

struct LoadResult {
  /// Per request sent, in schedule order.
  std::vector<double> LatencyMs, LateMs;
  std::vector<Kind> Kinds;
  uint64_t Attempted = 0, WithinLimit = 0;
  double ElapsedS = 0;
  bool BacklogGrew = false;
};

/// Sends the schedule's first requests over \p Clients connections and
/// checks every reply. With \p RatePerS > 0 (open loop) all \p Count are
/// sent, request K is due K / RatePerS seconds after the start and is timed
/// from then. With \p RatePerS == 0 (closed loop) each connection sends its
/// next request as soon as the previous reply is in, until \p Count are
/// sent or \p Seconds have passed.
LoadResult runLoad(const Schedule &S, size_t Count, double RatePerS,
                   double Seconds, const std::string &Path, unsigned Clients,
                   Outcomes &Oc, RunReport &R) {
  struct Sample {
    bool Sent = false, Error = false;
    double LatencyMs = 0, LateMs = 0;
    std::vector<Answer> Answers;
  };
  std::vector<Sample> Samples(Count);
  std::atomic<size_t> NextReq{0};
  const auto Start = Clock::now() + std::chrono::milliseconds(5);
  const auto Stop = Start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(Seconds));
  auto Due = [&](size_t K) {
    if (RatePerS == 0)
      return Clock::now();
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(K) /
                                                     RatePerS));
  };
  // The open loop's clients share one CPU, the last this process may use.
  // Left to the scheduler, clients and server workers shared a CPU in some
  // runs and not in others, and the p50 of a 30 s run moved between 0.17
  // and 0.35 ms with the placement; pinned, every reply crosses CPUs and
  // the p50 stays within a few percent.
  cpu_set_t Allowed, ClientCpu;
  CPU_ZERO(&ClientCpu);
  if (RatePerS > 0 && ::sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu)
      if (CPU_ISSET(Cpu, &Allowed)) {
        CPU_SET(Cpu, &ClientCpu);
        break;
      }
  auto Client = [&] {
    // Wake on time: without timer slack, and spinning the last stretch
    // before a request is due, so that the client's own wake-up does not
    // add to the latency it measures.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    if (CPU_COUNT(&ClientCpu) == 1)
      ::sched_setaffinity(0, sizeof(ClientCpu), &ClientCpu);
    std::unique_ptr<Connection> C = std::make_unique<Connection>(Path);
    std::this_thread::sleep_until(Start);
    for (size_t K; (K = NextReq.fetch_add(1)) < Count;) {
      if (RatePerS == 0 && Clock::now() >= Stop)
        break;
      Sample &Sm = Samples[K];
      const Request &Req = S.Requests[K];
      std::string Msg = message(S, Req);
      std::vector<Reply> Replies;
      auto D = Due(K);
      std::this_thread::sleep_until(D - DueSpin);
      while (Clock::now() < D)
        ;
      Sm.LateMs = std::max(0.0, msBetween(D, Clock::now()));
      if (!C->ok() ||
          !C->roundTrip(Msg, Req.Items.size(), Req.K == Kind::Batch, Replies)) {
        Sm.Error = true;
        C = std::make_unique<Connection>(Path); // Retry later requests.
      }
      Sm.LatencyMs = msBetween(D, Clock::now());
      Sm.Sent = true;
      if (!Sm.Error)
        Sm.Answers = answersOf(S, Req, Replies);
    }
  };
  {
    std::vector<std::thread> Threads;
    struct JoinAll {
      std::vector<std::thread> &Threads;
      ~JoinAll() {
        for (std::thread &T : Threads)
          T.join();
      }
    } Joiner{Threads};
    for (unsigned I = 0; I != Clients; ++I)
      Threads.emplace_back(Client);
  }

  LoadResult Res;
  Res.ElapsedS = msBetween(Start, Clock::now()) / 1e3;
  for (size_t K = 0; K != Count; ++K) {
    const Sample &Sm = Samples[K];
    if (!Sm.Sent)
      continue;
    const Request &Req = S.Requests[K];
    ++Res.Attempted;
    ++Oc.KindCount[static_cast<int>(Req.K)];
    Res.LateMs.push_back(Sm.LateMs);
    Res.Kinds.push_back(Req.K);
    bool Ok = !Sm.Error && checkAnswers(S, Req, Sm.Answers, Oc, R);
    if (Sm.Error) {
      ++Oc.FailUnits;
      R.fail(format("request %zu (%s): refused or errored", K, kindName(Req.K)));
    }
    if (!Ok)
      ++R.Failed;
    Res.LatencyMs.push_back(Sm.LatencyMs);
    if (!Sm.Error && Sm.LatencyMs <= LatencyLimitMs)
      ++Res.WithinLimit;
  }
  // The backlog grows when the generator falls further behind schedule as
  // the run goes on: compare how late the last quarter ran with the first.
  size_t Q = Res.LateMs.size() / 4;
  if (RatePerS > 0 && Q >= 10) {
    std::vector<double> Head(Res.LateMs.begin(), Res.LateMs.begin() + Q);
    std::vector<double> Tail(Res.LateMs.end() - Q, Res.LateMs.end());
    double H = quantile(Head, 0.9), T = quantile(Tail, 0.9);
    Res.BacklogGrew = T > 4 * H + LatencyLimitMs;
    R.line(format("backlog: loadgen late p90 %.3f ms in the first quarter, "
                  "%.3f ms in the last (%s)",
                  H, T, Res.BacklogGrew ? "GROWING" : "steady"));
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// The traced replay
//===----------------------------------------------------------------------===//

/// The state of the server's service path that a replay needs: its cache,
/// its batch session and its compile count.
struct ServicePath {
  explicit ServicePath(unsigned Threads)
      : Cache(ServerOptions().MaxCacheEntries), Batch([&] {
          BatchOptions BO;
          BO.Jobs = Threads;
          BO.Cache = &Cache;
          return BO;
        }()) {}
  DecompositionCache Cache;
  BatchSession Batch;
  uint64_t Seq = 0;
};

/// Re-runs one request's service path in process, as Server::handleCompile
/// and Server::handleBatch do, timing each call into \p L. A miss compiles
/// through runLayered, which also times decomposeOrError from outside into
/// \p A; with L.Timing off it compiles through CompileSession::run, as the
/// server does.
std::vector<Answer> replayInProcess(const Schedule &S, const Request &Req,
                                    const std::vector<std::string> &Payloads,
                                    ServicePath &SP, Layers &L,
                                    DecomposeAgreement &A) {
  const uint64_t GenerationEvery = ServerOptions().GenerationEvery;
  auto Parse = [&](const std::string &Payload, CompileRequest &CR) {
    size_t Eol = Payload.find('\n');
    CR.Source = Payload.substr(Eol + 1);
    std::string Err;
    if (!L.time("service.flags", [&] {
          return parseServiceRequestFlags(Payload.substr(0, Eol), CR, Err);
        }))
      throw std::runtime_error("request flags rejected: " + Err);
  };
  std::vector<Answer> Out;
  if (Req.K == Kind::Batch) {
    std::vector<CompileRequest> Items;
    for (size_t I = 0; I != Req.Items.size(); ++I) {
      CompileRequest CR;
      CR.FileName = "<batch:" + std::to_string(I) + ">";
      Parse(Payloads[I], CR);
      Items.push_back(std::move(CR));
      if (++SP.Seq % GenerationEvery == 0)
        SP.Cache.bumpGeneration();
    }
    std::vector<BatchItemResult> Results =
        L.time("service.batch", [&] { return SP.Batch.run(Items); });
    for (size_t I = 0; I != Results.size(); ++I) {
      const BatchItemResult &B = Results[I];
      Out.push_back(answerOf(S, Req.Items[I], B.ExitCode,
                             B.CacheHit || B.DedupHit, B.Output, B.Error));
    }
    return Out;
  }

  if (++SP.Seq % GenerationEvery == 0)
    SP.Cache.bumpGeneration();
  CompileRequest CR;
  CR.FileName = "<request>";
  Parse(Payloads[0], CR);
  // service.key's self time is canonicalRequestKey; its compileDsl child is
  // the frontend layer.
  auto Diags = std::make_shared<DiagnosticEngine>();
  std::optional<Program> Prog =
      L.time("frontend", [&] { return compileDsl(CR.Source, *Diags); });
  std::optional<RequestKey> Key;
  if (Prog) {
    Key = L.time("service.key", [&] { return canonicalRequestKey(CR, *Prog); });
    CR.PreParsed = std::make_shared<const Program>(std::move(*Prog));
    CR.PreParsedDiags = std::move(Diags);
    DecompositionCache::Entry E;
    if (L.time("service.cache", [&] { return SP.Cache.lookup(*Key, E); })) {
      Out.push_back(answerOf(S, Req.Items[0], E.ExitCode, true, E.Output, E.Error));
      return Out;
    }
  }
  UnitOutput U = L.time("service.compile", [&] {
    if (!L.Timing)
      return runSession(CR);
    Layers Inner; // The compiler's own layers are compile_corpus's table.
    return runLayered(CR, Inner, A);
  });
  if (Key)
    L.time("service.cache", [&] {
      SP.Cache.insert(*Key, DecompositionCache::Entry{U.Exit, U.Out, U.Err});
    });
  Out.push_back(answerOf(S, Req.Items[0], U.Exit, false, U.Out, U.Err));
  return Out;
}

} // namespace

RunReport bench::runServeWorkload(const Options &O) {
  RunReport R;
  const unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  // The traced run drives the open loop for half the time (for the load
  // generator's own lateness), then replays the schedule's first requests.
  const double OpenSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  const size_t Count =
      O.SelfCheck ? SelfCheckRequests
                  : static_cast<size_t>(std::ceil(OpenSeconds * OfferedRatePerS));

  std::vector<double> SetupS;
  Schedule S;
  std::unique_ptr<LiveServer> Live;
  // Kernel samples bracket every set-up and scale setup_s.
  Calibration SetupCal;
  SetupCal.sample();
  for (unsigned Rep = 0; Rep != (O.SelfCheck ? 1 : SetupReps); ++Rep) {
    Live.reset();
    auto T0 = Clock::now();
    S = buildSchedule(O, Count);
    Live = std::make_unique<LiveServer>(Threads);
    SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
    SetupCal.sample();
  }
  R.line(format("offered rate %.0f req/s for %zu requests, %u client "
                "connections, %u server threads, latency limit %.0f ms",
                OfferedRatePerS, Count, Threads, Threads, LatencyLimitMs));

  // The open loop's kernel samples are taken before and after it, while
  // the server is idle.
  Calibration Cal;
  for (unsigned I = 0; I != IdleSamples; ++I)
    Cal.sample();
  Outcomes Oc(S);
  LoadResult OL =
      runLoad(S, Count, OfferedRatePerS, 0, Live->path(), Threads, Oc, R);
  for (unsigned I = 0; I != IdleSamples; ++I)
    Cal.sample();
  if (OL.BacklogGrew)
    R.fail("the load generator's backlog grew over the run");
  R.Attempted = OL.Attempted;
  double FailShare = double(Oc.FailUnits) / std::max<uint64_t>(1, OL.Attempted);
  double DegradedShare =
      double(Oc.DegradedUnits) / std::max<uint64_t>(1, OL.Attempted);
  std::vector<double> Late = OL.LateMs;

  if (!O.Trace) {
    reportOutcomes(S, Oc, R);
    Tail T = tailOf(OL.LatencyMs);
    std::vector<unsigned> TailKinds(4, 0);
    for (size_t K = 0; K != OL.LatencyMs.size(); ++K)
      if (OL.LatencyMs[K] > T.Value)
        ++TailKinds[static_cast<int>(OL.Kinds[K])];
    R.line(format("latency over %zu requests; latency_ms_tail is p%.1f (%zu "
                  "beyond: first-seen %u, repeat %u, variant %u, batch %u); "
                  "goodput counts replies within %.0f ms",
                  T.Samples, T.Percentile, T.Beyond, TailKinds[0],
                  TailKinds[1], TailKinds[2], TailKinds[3], LatencyLimitMs));
    R.line(format("fail_share %.6f share; degraded_share %.6f share; "
                  "loadgen.late_ms_p99 %.4f ms",
                  FailShare, DegradedShare, quantile(Late, 0.99)));
    double Setup = median(SetupS), P50 = median(OL.LatencyMs),
           TailMs = T.Value, F = Cal.factor();
    R.line(SetupCal.describe() + " (setup_s)");
    R.line(Cal.describe() + " (latency_ms_tail only)");
    R.line(format("raw: setup_s %.6f, latency_ms_tail %.6f; scaled: "
                  "latency_ms_p50 %.6f",
                  Setup, TailMs, P50 * F));
    R.metric("setup_s", Setup * SetupCal.factor(), "s");
    // A hit's time is mostly the two wake-ups of its round trip, which do
    // not follow the kernel: over ten 30 s runs the raw p50 spread 6.5%
    // (interquartile range over median) and the scaled one 11%. The tail is
    // compiles, which do.
    R.metric("latency_ms_p50", P50, "ms");
    R.metric("latency_ms_tail", TailMs * F, "ms");
    R.metric("throughput_per_s", double(OL.WithinLimit) / OL.ElapsedS, "1/s");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  // Traced replay: one request at a time against a fresh server, each
  // followed by two in-process replays of its service path on twin state:
  // an untimed one (CompileSession::run, as the server compiles) and the
  // timed one. Which of the two runs first alternates.
  Live = std::make_unique<LiveServer>(Threads);
  Connection C(Live->path());
  ServicePath Traced(Threads), Plain(Threads);
  Layers L, Untimed;
  Untimed.Timing = false;
  DecomposeAgreement Agree, Unused;
  Outcomes ReplayOc(S);
  double EndToEndMs = 0, TracedMs = 0, PlainMs = 0, UnattributedMs = 0;
  for (size_t K = 0; K != std::min(Count, ReplayRequests); ++K) {
    const Request &Req = S.Requests[K];
    ++R.Attempted;
    ++ReplayOc.KindCount[static_cast<int>(Req.K)];
    std::vector<std::string> Payloads;
    for (const Item &It : Req.Items)
      Payloads.push_back(payload(S, It));
    std::string Msg = message(S, Req);
    std::vector<Reply> Replies;
    auto T0 = Clock::now();
    bool Sent = C.ok() && C.roundTrip(Msg, Req.Items.size(),
                                      Req.K == Kind::Batch, Replies);
    double RoundTripMs = msBetween(T0, Clock::now());
    if (!Sent) {
      R.fail(format("replay request %zu: refused or errored", K));
      ++R.Failed;
      break;
    }
    std::vector<Answer> Remote = answersOf(S, Req, Replies);
    EndToEndMs += RoundTripMs;

    Layers Unit;
    std::vector<Answer> Local, Twin;
    double WallMs = 0;
    auto RunPlain = [&] {
      auto T = Clock::now();
      Twin = replayInProcess(S, Req, Payloads, Plain, Untimed, Unused);
      PlainMs += msBetween(T, Clock::now());
    };
    if (K % 2)
      RunPlain();
    auto T1 = Clock::now();
    Local = replayInProcess(S, Req, Payloads, Traced, Unit, Agree);
    WallMs = msBetween(T1, Clock::now());
    if (K % 2 == 0)
      RunPlain();
    TracedMs += WallMs;
    double CoveredMs = 0;
    for (const auto &[Name, Row] : Unit.Rows)
      CoveredMs += Row.SelfMs;
    UnattributedMs += std::max(0.0, WallMs - CoveredMs);
    Unit.add("service.transport", std::max(0.0, RoundTripMs - WallMs));
    L.merge(Unit, false);
    if (!(Local == Remote) || !(Twin == Remote)) {
      R.fail(format("replay request %zu (%s): in-process reply differs from "
                    "the server's",
                    K, kindName(Req.K)));
      ++R.Failed;
    }
    if (!checkAnswers(S, Req, Remote, ReplayOc, R))
      ++R.Failed;
  }
  reportOutcomes(S, ReplayOc, R);

  MetricsRegistry &SM = Live->server().metrics();
  uint64_t Hits = SM.counter("service.cache_hits");
  L.count("service.cache.hits", static_cast<double>(Hits));
  L.count("service.cache.lookups",
          static_cast<double>(Hits + SM.counter("service.cache_misses")));
  L.count("service.cache.inserts",
          static_cast<double>(SM.counter("service.cache_inserts")));
  L.count("service.cache.evictions",
          static_cast<double>(SM.counter("service.cache_evictions")));
  L.count("service.batch.items",
          static_cast<double>(Traced.Batch.metrics().counter("batch.requests")));
  L.count("service.batch.dedups",
          static_cast<double>(Traced.Batch.metrics().counter("batch.dedup_hits")));
  L.count("loadgen.late_ms_p99", quantile(Late, 0.99));
  reportLayers(L, EndToEndMs, R);
  double Gap = Agree.OutsideMs > 0
                   ? std::fabs(Agree.OutsideMs - Agree.SpanMs) / Agree.OutsideMs
                   : 0;
  R.metric("fail_share", FailShare, "share");
  R.metric("degraded_share", DegradedShare, "share");
  R.metric("sim_speedup_geomean", 0, "x");
  // Transport is the round trip less the timed replay's wall time, so the
  // replay's own glue between layer calls is what no layer covers.
  R.metric("trace.overhead_share", PlainMs > 0 ? TracedMs / PlainMs - 1 : 0,
           "share");
  R.metric("trace.unattributed_share",
           EndToEndMs > 0 ? UnattributedMs / EndToEndMs : 0, "share");
  R.metric("trace.decompose_gap_share", Gap, "share");
  R.line(format("in-process replay %.2f ms timed vs %.2f ms untimed; %.2f ms "
                "of it outside every layer call",
                TracedMs, PlainMs, UnattributedMs));
  R.line(format("core.decompose (misses) timed outside %.2f ms vs "
                "driver.decompose span %.2f ms (gap %.2f%%)",
                Agree.OutsideMs, Agree.SpanMs, 100 * Gap));
  R.line("sim_speedup_geomean: not measured (serve_mixed does not simulate)");
  if (O.SelfCheck && Gap > 0.05)
    R.fail("core.decompose outside timing and driver.decompose span "
           "disagree by more than 5%");
  return R;
}

RunReport bench::runServeCapacity(const Options &O) {
  RunReport R;
  const unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  // Far more requests than the server can answer in the time given.
  const size_t Count = static_cast<size_t>(std::ceil(O.Seconds * 5000));
  Schedule S = buildSchedule(O, Count);
  Outcomes Oc(S);
  // Cold latency: one connection, so no request waits behind another;
  // first-seen programs are the misses that compile.
  LoadResult Cold, Full;
  {
    LiveServer Live(Threads);
    Cold = runLoad(S, Count, 0, O.Seconds, Live.path(), 1, Oc, R);
  }
  // Capacity: a fresh server, one connection per hardware thread, each
  // sending its next request as soon as its reply is in.
  {
    LiveServer Live(Threads);
    Full = runLoad(S, Count, 0, O.Seconds, Live.path(), Threads, Oc, R);
  }
  if (Full.Attempted == Count)
    R.fail("the schedule ran out before the time did");
  std::vector<double> ColdMiss;
  for (size_t I = 0; I != Cold.Kinds.size(); ++I)
    if (Cold.Kinds[I] == Kind::First)
      ColdMiss.push_back(Cold.LatencyMs[I]);
  R.Attempted = Cold.Attempted + Full.Attempted;
  double Capacity = double(Full.Attempted) / Full.ElapsedS;
  R.line(format("closed loop, %u connections, %u server threads: %llu "
                "requests in %.2f s",
                Threads, Threads, static_cast<unsigned long long>(Full.Attempted),
                Full.ElapsedS));
  R.line(format("one connection: %zu first-seen requests, p50 %.3f ms, "
                "p99 %.3f ms",
                ColdMiss.size(), quantile(ColdMiss, 0.5),
                quantile(ColdMiss, 0.99)));
  R.metric("capacity_per_s", Capacity, "1/s");
  R.metric("cold_p50_ms", quantile(ColdMiss, 0.5), "ms");
  R.metric("cold_p99_ms", quantile(ColdMiss, 0.99), "ms");
  R.metric("latency_ms_p50", median(Full.LatencyMs), "ms");
  return R;
}
