//===- serve/Server.cpp - alfd Unix-socket compile/execute server -----------===//

#include "serve/Server.h"

#include "exec/Eval.h"
#include "exec/Storage.h"
#include "frontend/Parser.h"
#include "obs/Obs.h"
#include "support/Statistic.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace alf;
using namespace alf::serve;

ALF_STATISTIC(NumServeRequests, "serve", "Requests handled by the daemon");
ALF_STATISTIC(NumServeCompiles, "serve",
              "Cache-miss compiles run by the daemon");

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-request RAII admission token.
class InFlightToken {
  std::atomic<uint64_t> &Counter;

public:
  explicit InFlightToken(std::atomic<uint64_t> &C) : Counter(C) {
    Counter.fetch_add(1, std::memory_order_relaxed);
  }
  ~InFlightToken() { Counter.fetch_sub(1, std::memory_order_relaxed); }
};

json::Value metricRowJson(const std::string &Name) {
  json::Value V = json::Value::object();
  std::optional<obs::MetricRow> Row = obs::metricsFor(Name);
  if (!Row)
    return V;
  V.set("count", json::Value::number(static_cast<double>(Row->Count)));
  V.set("p50_us",
        json::Value::number(static_cast<double>(Row->P50Ns) / 1000.0));
  V.set("p95_us",
        json::Value::number(static_cast<double>(Row->P95Ns) / 1000.0));
  V.set("max_us",
        json::Value::number(static_cast<double>(Row->MaxNs) / 1000.0));
  return V;
}

} // namespace

/// One live connection: the fd plus the thread draining it.
struct Server::Conn {
  int Fd = -1;
  std::thread Worker;
};

Server::Server(ServerOptions InOpts) : Opts(std::move(InOpts)) {
  Opts.CompileThreads = std::max(1u, Opts.CompileThreads);
  CompileQueue = std::make_unique<TaskQueue>(Opts.CompileThreads);
  Cache = std::make_unique<KernelCache>(Opts.CacheShards, CompileQueue.get());
  Jit = std::make_unique<exec::JitEngine>(Opts.Jit);
  exec::JitOptions SimdOpts = Opts.Jit;
  SimdOpts.Vectorize = true;
  JitSimd = std::make_unique<exec::JitEngine>(SimdOpts);
}

Server::~Server() {
  stop();
  wait();
}

bool Server::start(std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  if (Opts.SocketPath.empty()) {
    if (Error)
      *Error = "no socket path configured";
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + Opts.SocketPath;
    return false;
  }
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket");
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind " + Opts.SocketPath);
  if (::listen(ListenFd, 64) < 0)
    return Fail("listen");

  // The stats op reports latency percentiles from the obs metrics
  // table; make sure something is feeding it.
  if (obs::level() == obs::ObsLevel::Off)
    obs::setLevel(obs::ObsLevel::Counters);

  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  while (!Stopping.load(std::memory_order_acquire)) {
    pollfd Pfd;
    Pfd.fd = ListenFd;
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    int R = ::poll(&Pfd, 1, /*timeout ms=*/100);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (R == 0 || !(Pfd.revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    NumConnections.fetch_add(1, std::memory_order_relaxed);
    // Register under the lock with the thread already started, so
    // teardown (which swaps the list under the same lock after joining
    // this acceptor) always sees a joinable worker.
    std::lock_guard<std::mutex> Lock(ConnMu);
    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    C->Worker = std::thread([this, Fd] { handleConnection(Fd); });
    Conns.push_back(std::move(C));
  }
}

void Server::handleConnection(int Fd) {
  for (;;) {
    json::Value Req;
    std::string Why;
    FrameRead R = readFrame(Fd, Opts.MaxProgramBytes, Req, &Why);
    if (R == FrameRead::Eof || R == FrameRead::IoError)
      break;
    if (R == FrameRead::TooLarge) {
      NumRejectedTooLarge.fetch_add(1, std::memory_order_relaxed);
      writeFrame(Fd, makeError("too-large", Why));
      break; // the stream is out of sync; hang up
    }
    if (R == FrameRead::Malformed) {
      NumMalformed.fetch_add(1, std::memory_order_relaxed);
      writeFrame(Fd, makeError("malformed", Why));
      break;
    }
    json::Value Resp = handleRequest(Req);
    if (!writeFrame(Fd, Resp))
      break;
    std::optional<std::string> Op = Req.getString("op");
    if (Op && *Op == "shutdown")
      break;
  }
  ::shutdown(Fd, SHUT_RDWR);
  ::close(Fd);
}

json::Value Server::handleRequest(const json::Value &Req) {
  NumRequests.fetch_add(1, std::memory_order_relaxed);
  ++NumServeRequests;
  std::optional<std::string> Op = Req.getString("op");
  if (!Op)
    return makeError("malformed", "request has no \"op\" member");

  if (*Op == "health")
    return handleHealth();
  if (*Op == "stats")
    return handleStats();
  if (*Op == "shutdown") {
    stop();
    json::Value V = makeOk();
    V.set("stopping", json::Value::boolean(true));
    return V;
  }

  if (*Op != "compile" && *Op != "execute")
    return makeError("unknown-op", "unknown op \"" + *Op + "\"");

  if (Stopping.load(std::memory_order_acquire))
    return makeError("shutting-down", "daemon is shutting down");

  // Admission: cap concurrent compile/execute work. health/stats stay
  // exempt so operators can always look in.
  if (NumInFlight.load(std::memory_order_relaxed) >= Opts.MaxInFlight) {
    NumRejectedBusy.fetch_add(1, std::memory_order_relaxed);
    return makeError("busy",
                     "more than " + std::to_string(Opts.MaxInFlight) +
                         " requests in flight");
  }
  InFlightToken Token(NumInFlight);

  if (*Op == "compile") {
    NumCompileReqs.fetch_add(1, std::memory_order_relaxed);
    obs::Span S("serve.request.compile");
    return handleCompile(Req, /*ForExecute=*/false, nullptr);
  }
  NumExecuteReqs.fetch_add(1, std::memory_order_relaxed);
  obs::Span S("serve.request.execute");
  return handleExecute(Req);
}

json::Value Server::handleHealth() const {
  json::Value V = makeOk();
  V.set("service", json::Value::str("alfd"));
  V.set("status", json::Value::str("ok"));
  V.set("protocol", json::Value::number(ProtocolVersion));
  return V;
}

json::Value Server::handleStats() const {
  json::Value V = statsJson();
  V.set("ok", json::Value::boolean(true));
  return V;
}

json::Value Server::statsJson() const {
  json::Value V = json::Value::object();

  json::Value Reqs = json::Value::object();
  Reqs.set("total", json::Value::number(static_cast<double>(
                        NumRequests.load(std::memory_order_relaxed))));
  Reqs.set("compile", json::Value::number(static_cast<double>(
                          NumCompileReqs.load(std::memory_order_relaxed))));
  Reqs.set("execute", json::Value::number(static_cast<double>(
                          NumExecuteReqs.load(std::memory_order_relaxed))));
  Reqs.set("connections", json::Value::number(static_cast<double>(
                              NumConnections.load(std::memory_order_relaxed))));
  Reqs.set("in_flight", json::Value::number(static_cast<double>(
                            NumInFlight.load(std::memory_order_relaxed))));
  V.set("requests", Reqs);

  KernelCache::Stats CS = Cache->stats();
  json::Value CacheV = json::Value::object();
  CacheV.set("entries",
             json::Value::number(static_cast<double>(Cache->size())));
  CacheV.set("hits", json::Value::number(static_cast<double>(CS.Hits)));
  CacheV.set("misses", json::Value::number(static_cast<double>(CS.Misses)));
  CacheV.set("coalesced",
             json::Value::number(static_cast<double>(CS.Coalesced)));
  V.set("cache", CacheV);

  json::Value Adm = json::Value::object();
  Adm.set("rejected_busy",
          json::Value::number(static_cast<double>(
              NumRejectedBusy.load(std::memory_order_relaxed))));
  Adm.set("rejected_too_large",
          json::Value::number(static_cast<double>(
              NumRejectedTooLarge.load(std::memory_order_relaxed))));
  Adm.set("malformed", json::Value::number(static_cast<double>(
                           NumMalformed.load(std::memory_order_relaxed))));
  V.set("admission", Adm);

  json::Value Lat = json::Value::object();
  Lat.set("execute", metricRowJson("serve.request.execute"));
  Lat.set("compile", metricRowJson("serve.request.compile"));
  Lat.set("jit_compile", metricRowJson("jit.compile"));
  V.set("latency", Lat);
  return V;
}

json::Value Server::handleCompile(
    const json::Value &Req, bool ForExecute,
    std::shared_ptr<const CompiledEntry> *OutEntry) {
  std::optional<std::string> Program = Req.getString("program");
  if (!Program)
    return makeError("malformed", "request has no \"program\" member");
  if (Program->size() > Opts.MaxProgramBytes) {
    NumRejectedTooLarge.fetch_add(1, std::memory_order_relaxed);
    return makeError("too-large",
                     "program of " + std::to_string(Program->size()) +
                         " bytes exceeds the " +
                         std::to_string(Opts.MaxProgramBytes) + "-byte cap");
  }

  CompileKey Key;
  Key.ProgramHash = exec::hashName(*Program);
  Key.Verify = Opts.Verify;
  if (std::optional<std::string> S = Req.getString("strategy")) {
    std::optional<xform::Strategy> St = xform::strategyNamed(*S);
    if (!St)
      return makeError("malformed", "unknown strategy \"" + *S + "\"");
    Key.Strat = *St;
  }
  if (std::optional<std::string> S = Req.getString("exec")) {
    std::optional<xform::ExecMode> M = xform::execModeNamed(*S);
    if (!M)
      return makeError("malformed", "unknown exec mode \"" + *S + "\"");
    Key.Mode = *M;
  }
  if (std::optional<std::string> S = Req.getString("verify")) {
    std::optional<verify::VerifyLevel> L = verify::verifyLevelNamed(*S);
    if (!L)
      return makeError("malformed", "unknown verify level \"" + *S + "\"");
    Key.Verify = *L;
  }
  const semiring::Semiring *SemiringSel = nullptr;
  if (std::optional<std::string> S = Req.getString("semiring")) {
    SemiringSel = semiring::byName(*S);
    if (!SemiringSel)
      return makeError("malformed", "unknown semiring \"" + *S +
                                        "\" (expected " +
                                        semiring::allNames() + ")");
    Key.Semiring = SemiringSel->Name;
  }

  CacheOutcome Outcome = CacheOutcome::Hit;
  std::shared_ptr<const CompiledEntry> Entry = Cache->get(
      Key,
      [&]() -> CompiledEntry {
        ++NumServeCompiles;
        CompiledEntry E;
        uint64_t T0 = nowNs();
        frontend::ParseResult PR = frontend::parseProgram(
            *Program, "serve-" + std::to_string(Key.ProgramHash));
        if (!PR.succeeded()) {
          E.ErrorCode = "parse";
          E.ErrorMessage = PR.Errors.empty() ? "parse failed"
                                             : PR.Errors.front();
          E.CompileNs = nowNs() - T0;
          return E;
        }
        E.P = std::move(PR.Prog);
        if (SemiringSel)
          // Rebind every reduction's algebra before any analysis, so the
          // override flows through strategy, verification and execution
          // exactly as zplc's --semiring does.
          for (unsigned Id = 0; Id < E.P->numStmts(); ++Id)
            if (auto *RS = dyn_cast<ir::ReduceStmt>(E.P->getStmt(Id)))
              RS->setSemiring(*SemiringSel);
        driver::PipelineOptions PO;
        PO.Verify = Key.Verify;
        PO.Jit = Opts.Jit;
        PO.Parallel = Opts.Parallel;
        driver::Pipeline PL(*E.P, PO);
        driver::CompileRequest CReq;
        CReq.Strat = Key.Strat;
        driver::CompileStatus St = PL.tryCompile(CReq);
        if (!St.ok()) {
          E.ErrorCode = driver::getCompileCodeName(St.Code);
          E.ErrorMessage = St.Message;
          for (const verify::VerifyFinding &F : St.Findings.Findings)
            E.ErrorFindings.push_back(F.str());
          E.CompileNs = nowNs() - T0;
          return E;
        }
        E.CP = std::move(St.Artifact);
        E.NumClusters = E.CP->NumClusters;
        E.ContractedNames = E.CP->ContractedNames;
        if (Key.Mode == xform::ExecMode::Parallel) {
          // Plan (and under Full verify, race-check) the schedule once;
          // every execution reuses the certified plan.
          exec::ParallelSchedule Sched = exec::planParallelism(E.CP->LP);
          if (Key.Verify >= verify::VerifyLevel::Full) {
            verify::VerifyReport R =
                verify::verifyParallelSafety(E.CP->LP, Sched);
            if (!R.ok()) {
              E.ErrorCode = "verify-rejected";
              E.ErrorMessage = R.Findings.front().str();
              for (const verify::VerifyFinding &F : R.Findings)
                E.ErrorFindings.push_back(F.str());
              E.CP.reset();
              E.CompileNs = nowNs() - T0;
              return E;
            }
          }
          E.Sched = std::move(Sched);
        }
        E.OK = true;
        E.CompileNs = nowNs() - T0;
        return E;
      },
      &Outcome);

  if (OutEntry)
    *OutEntry = Entry;
  if (!Entry->OK) {
    json::Value V = makeError(Entry->ErrorCode, Entry->ErrorMessage);
    // Rejections carry every finding, so a client sees the whole static
    // diagnosis (e.g. each unsafe access) rather than the first line —
    // including on negative-cache hits, which replay this entry. The
    // cache outcome makes that replay observable.
    V.set("cache", json::Value::str(getCacheOutcomeName(Outcome)));
    if (!Entry->ErrorFindings.empty()) {
      json::Value Findings = json::Value::array();
      for (const std::string &F : Entry->ErrorFindings)
        Findings.push(json::Value::str(F));
      V.set("findings", Findings);
    }
    return V;
  }

  json::Value V = makeOk();
  V.set("cache", json::Value::str(getCacheOutcomeName(Outcome)));
  V.set("strategy", json::Value::str(xform::getStrategyName(Key.Strat)));
  V.set("exec", json::Value::str(xform::getExecModeName(Key.Mode)));
  V.set("verify",
        json::Value::str(verify::getVerifyLevelName(Key.Verify)));
  V.set("clusters",
        json::Value::number(static_cast<double>(Entry->NumClusters)));
  json::Value Contracted = json::Value::array();
  for (const std::string &Name : Entry->ContractedNames)
    Contracted.push(json::Value::str(Name));
  V.set("contracted", Contracted);
  V.set("compile_us", json::Value::number(
                          static_cast<double>(Entry->CompileNs) / 1000.0));
  (void)ForExecute; // same payload either way; execute appends results
  return V;
}

json::Value Server::handleExecute(const json::Value &Req) {
  std::shared_ptr<const CompiledEntry> Entry;
  json::Value CompileResp =
      handleCompile(Req, /*ForExecute=*/true, &Entry);
  std::optional<bool> OK = CompileResp.getBool("ok");
  if (!OK || !*OK || !Entry || !Entry->OK)
    return CompileResp;

  uint64_t Bytes = exec::storageBytes(Entry->CP->LP);
  if (Bytes > MaxStorageBytes) {
    NumRejectedTooLarge.fetch_add(1, std::memory_order_relaxed);
    return makeError("too-large",
                     "program storage of " +
                         (Bytes == UINT64_MAX ? std::string("more than 2^64")
                                              : std::to_string(Bytes)) +
                         " bytes exceeds the " +
                         std::to_string(MaxStorageBytes) + "-byte ceiling");
  }

  uint64_t Seed = 0;
  if (std::optional<double> S = Req.getNumber("seed"))
    Seed = static_cast<uint64_t>(*S);

  std::optional<xform::ExecMode> Mode =
      xform::execModeNamed(*CompileResp.getString("exec"));
  exec::RunResult RR;
  exec::JitRunInfo JitInfo;
  switch (*Mode) {
  case xform::ExecMode::Sequential:
    RR = exec::run(Entry->CP->LP, Seed);
    break;
  case xform::ExecMode::Parallel:
    RR = exec::runParallel(Entry->CP->LP, Seed, Opts.Parallel, *Entry->Sched);
    break;
  case xform::ExecMode::NativeJit:
    RR = Jit->run(Entry->CP->LP, Seed, &JitInfo);
    break;
  case xform::ExecMode::NativeJitSimd:
    RR = JitSimd->run(Entry->CP->LP, Seed, &JitInfo);
    break;
  }

  json::Value V = CompileResp;
  json::Value Scalars = json::Value::object();
  for (const auto &[Name, Val] : RR.ScalarsOut)
    Scalars.set(Name, json::Value::number(Val));
  V.set("scalars", Scalars);
  json::Value Arrays = json::Value::object();
  for (const auto &[Name, Data] : RR.LiveOut) {
    json::Value A = json::Value::object();
    A.set("elements",
          json::Value::number(static_cast<double>(Data.size())));
    double Sum = 0.0;
    for (double D : Data)
      Sum += D;
    A.set("sum", json::Value::number(Sum));
    Arrays.set(Name, A);
  }
  V.set("arrays", Arrays);
  if (*Mode == xform::ExecMode::NativeJit ||
      *Mode == xform::ExecMode::NativeJitSimd) {
    json::Value J = json::Value::object();
    J.set("used_jit", json::Value::boolean(JitInfo.UsedJit));
    J.set("compiled", json::Value::boolean(JitInfo.Compiled));
    if (!JitInfo.FallbackReason.empty())
      J.set("fallback", json::Value::str(JitInfo.FallbackReason));
    if (*Mode == xform::ExecMode::NativeJitSimd) {
      J.set("vectorized_nests",
            json::Value::number(
                static_cast<double>(JitInfo.VectorizedNests)));
      J.set("vector_fallbacks",
            json::Value::number(
                static_cast<double>(JitInfo.VectorFallbacks)));
      J.set("reassociated", json::Value::boolean(JitInfo.Reassociated));
    }
    V.set("jit", J);
  }
  return V;
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> Lock(ShutdownMu);
    ShutdownRequested = true;
  }
  ShutdownCv.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> Lock(ShutdownMu);
    ShutdownCv.wait(Lock, [&] { return ShutdownRequested; });
  }
  // Teardown is idempotent and runs at most once: the first waiter (or
  // the destructor) flips Stopping and joins everything.
  if (Stopping.exchange(true, std::memory_order_acq_rel))
    return;
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  std::vector<std::unique_ptr<Conn>> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    ToJoin.swap(Conns);
  }
  for (auto &C : ToJoin) {
    // Unblock a worker parked in readFrame; its own close() then runs
    // on an already-shut-down fd, which is harmless.
    ::shutdown(C->Fd, SHUT_RDWR);
    if (C->Worker.joinable())
      C->Worker.join();
  }
  if (!Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
}
