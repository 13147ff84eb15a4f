//===- perfbench/ServeChurn.cpp - serve-churn workload --------------------===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process serve::Server on a private socket and one client
/// thread holding two connections, which it uses in turn. The client is
/// a closed loop (alfd clients block on their replies). It sends blocks
/// of requests in a seeded order: WarmPerBlock `execute` requests
/// (native scalar tier, C2+F3) for a warm set of six generated mini-ZPL
/// programs, one never-seen program of each kind (new extent only, new
/// constants only, new statement structure) and one `stats` op, as a
/// monitor would send. This is the source-to-native result path: parse,
/// KernelCache, emit, cc/dlopen and dispatch, with strategy work tiny.
/// The window ends on a block boundary, so cache counts per thousand
/// requests repeat exactly.
///
/// The mix is chosen, not measured from alfd traffic (there is none to
/// fit it to). It is set so both halves of the path carry weight in the
/// end-to-end metrics: on the reference host a warm request costs about
/// 1.6 ms at the client and a never-seen program about 105 ms (cc
/// dominates), so with WarmPerBlock warm requests per 3 never-seen
/// programs the warm requests take about 60% of the client's time and
/// the never-seen programs about 39% (stats ops take the rest; their
/// cost grows with the requests served). The report prints each class's
/// measured share of the time. Warm programs are 192x192
/// (never-seen extents 160-224 per dimension), so a warm request's own
/// work (seeding, running and summing two 0.3 MiB arrays) outweighs the
/// two thread wake-ups of its round trip, whose cost is the host's
/// scheduler, not alfd; the seed picks their statements, not their
/// size.
///
/// Only one request is in flight at a time, so the load never has more
/// runnable threads than the client, one connection thread and a
/// compile worker with its cc.
///
/// peak_rss_mb is read after the first RssBlocks blocks, not at the end
/// of the window: every never-seen program leaves a kernel in the cache
/// (there is no eviction), so the end-of-window peak would count how
/// many blocks the host's speed allowed.
///
/// Check, after the timed window: for every distinct program sent, an
/// interpreter run of the same source (parse, tryCompile, exec::run on
/// the request's seed) must equal every reply's scalars and array sums
/// bit for bit, and every reply must report native execution.
///
//===----------------------------------------------------------------------===//

#include "CompileLayers.h"
#include "Workloads.h"

#include "exec/Interpreter.h"
#include "exec/NativeJit.h"
#include "frontend/Parser.h"
#include "obs/Obs.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <cstdio>
#include <malloc.h>
#include <random>
#include <set>

using namespace alf;
using namespace perfbench;

namespace {

constexpr unsigned NumConnections = 2;
constexpr unsigned WarmPrograms = 6;
constexpr unsigned WarmPerBlock = 300;
/// Requests per block: the warm ones, three never-seen programs, a stats
/// op.
constexpr unsigned BlockSize = WarmPerBlock + 4;
/// Blocks after which peak_rss_mb is read; the window runs at least
/// this many.
constexpr unsigned RssBlocks = 12;
/// Extent of every warm program, so the warm set's cost does not depend
/// on the seed; never-seen extents are drawn from [MinExtent, MaxExtent].
constexpr int64_t WarmExtent = 192;
constexpr int64_t MinExtent = 160, MaxExtent = 224;

/// A generated program in three independent parts, so a request can
/// change exactly one of them.
struct GenProgram {
  std::string Structure; ///< statements, with $0..$5 constant slots
  std::vector<double> Consts;
  int64_t A = 0, B = 0; ///< region extents

  std::string source() const {
    std::string Body;
    for (size_t I = 0; I < Structure.size(); ++I) {
      if (Structure[I] == '$') {
        char Buf[32];
        std::snprintf(Buf, sizeof(Buf), "%.6f",
                      Consts[static_cast<size_t>(Structure[++I] - '0')]);
        Body += Buf;
      } else {
        Body += Structure[I];
      }
    }
    char Head[256];
    std::snprintf(Head, sizeof(Head),
                  "region R : [1..%lld, 1..%lld];\n"
                  "array U, V : R;\n"
                  "array T1, T2, T3, T4 : R temp;\n"
                  "scalar s0, s1;\n",
                  static_cast<long long>(A), static_cast<long long>(B));
    return Head + Body;
  }
};

/// Random statement structure: four temporaries, each a combination of
/// shifted reads of U and V and earlier temporaries, then a write-back
/// into V and two reductions.
std::string randomStructure(std::mt19937_64 &Rng) {
  auto Pick = [&](unsigned N) {
    return static_cast<unsigned>(Rng() % N);
  };
  auto Shifted = [&](const char *Arr) {
    static const char *const Offs[] = {"(-1,0)", "(1,0)", "(0,-1)",
                                       "(0,1)",  "(1,1)", "(-1,-1)"};
    std::string S = Arr;
    if (Pick(4) != 0)
      S += std::string("@") + Offs[Pick(6)];
    return S;
  };
  std::string Out;
  for (unsigned I = 1; I <= 4; ++I) {
    std::string Terms[3];
    for (std::string &T : Terms) {
      unsigned Kind = Pick(I == 1 ? 2 : 3);
      T = Kind == 0   ? Shifted("U")
          : Kind == 1 ? Shifted("V")
                      : "T" + std::to_string(1 + Pick(I - 1));
    }
    std::string E;
    switch (Pick(4)) {
    case 0:
      E = "(" + Terms[0] + " + " + Terms[1] + ") * $" +
          std::to_string(Pick(6)) + " - " + Terms[2];
      break;
    case 1:
      E = Terms[0] + " * $" + std::to_string(Pick(6)) + " + " + Terms[1];
      break;
    case 2:
      E = "max(" + Terms[0] + ", " + Terms[1] + ") - " + Terms[2] + " * $" +
          std::to_string(Pick(6));
      break;
    default:
      E = "abs(" + Terms[0] + " - " + Terms[1] + ") * $" +
          std::to_string(Pick(6));
      break;
    }
    Out += "[R] T" + std::to_string(I) + " := " + E + ";\n";
  }
  Out += "[R] V := U + T4 * $" + std::to_string(Pick(6)) + ";\n";
  static const char *const Reds[] = {"+", "max", "min"};
  Out += std::string("[R] s0 := ") + Reds[Pick(3)] + " << abs(T3);\n";
  Out += std::string("[R] s1 := ") + Reds[Pick(3)] + " << T" +
         std::to_string(1 + Pick(4)) + ";\n";
  return Out;
}

std::vector<double> randomConsts(std::mt19937_64 &Rng) {
  std::uniform_real_distribution<double> D(0.05, 0.95);
  std::vector<double> C(6);
  for (double &X : C)
    X = D(Rng);
  return C;
}

enum class ReqKind { Warm, NewExtent, NewConstants, NewStructure, Stats };

const char *kindName(ReqKind K) {
  switch (K) {
  case ReqKind::Warm:
    return "warm";
  case ReqKind::NewExtent:
    return "new-extent";
  case ReqKind::NewConstants:
    return "new-constants";
  case ReqKind::NewStructure:
    return "new-structure";
  case ReqKind::Stats:
    return "stats";
  }
  return "?";
}

/// What a reply said about one program; every reply for the program
/// must say the same, and so must the interpreter.
struct Outcome {
  std::map<std::string, double> Scalars, Sums;
  bool operator==(const Outcome &O) const {
    return Scalars == O.Scalars && Sums == O.Sums;
  }
};

/// Parses an execute reply; false with \p Why set when it is an error,
/// did not run natively, or lacks results.
bool parseReply(const json::Value &Resp, Outcome &Out, std::string &Why) {
  std::optional<bool> Ok = Resp.getBool("ok");
  if (!Ok || !*Ok) {
    Why = "error reply: " + Resp.str();
    return false;
  }
  const json::Value *Jit = Resp.get("jit");
  std::optional<bool> Used = Jit ? Jit->getBool("used_jit") : std::nullopt;
  if (!Used || !*Used) {
    Why = "native tier fell back to the interpreter";
    return false;
  }
  const json::Value *Sc = Resp.get("scalars");
  const json::Value *Ar = Resp.get("arrays");
  if (!Sc || !Ar || !Sc->isObject() || !Ar->isObject()) {
    Why = "reply without results";
    return false;
  }
  for (const auto &[Name, V] : Sc->members())
    Out.Scalars[Name] = V.asNumber();
  for (const auto &[Name, V] : Ar->members())
    Out.Sums[Name] = V.getNumber("sum").value_or(-1);
  return true;
}

/// The seeded request stream of the client.
class ClientSchedule {
public:
  ClientSchedule(uint64_t Seed, const std::vector<GenProgram> &Warm)
      : Rng(Seed * 1000003), Warm(Warm) {
    // New extents: warm extents excluded, in seeded order, so no extent
    // repeats within the run.
    std::set<std::pair<int64_t, int64_t>> Taken;
    for (const GenProgram &G : Warm)
      Taken.insert({G.A, G.B});
    for (int64_t A = MinExtent; A <= MaxExtent; ++A)
      for (int64_t B = MinExtent; B <= MaxExtent; ++B)
        if (!Taken.count({A, B}))
          Extents.push_back({A, B});
    std::shuffle(Extents.begin(), Extents.end(), Rng);
  }

  /// The next block: WarmPerBlock warm requests, one never-seen program
  /// of each kind and one stats op.
  std::vector<std::pair<ReqKind, GenProgram>> nextBlock() {
    std::vector<ReqKind> Kinds(WarmPerBlock, ReqKind::Warm);
    for (ReqKind K : {ReqKind::NewExtent, ReqKind::NewConstants,
                      ReqKind::NewStructure, ReqKind::Stats})
      Kinds.push_back(K);
    std::shuffle(Kinds.begin(), Kinds.end(), Rng);
    std::vector<std::pair<ReqKind, GenProgram>> Block;
    for (ReqKind K : Kinds)
      Block.push_back({K, programFor(K)});
    return Block;
  }

private:
  GenProgram programFor(ReqKind K) {
    switch (K) {
    case ReqKind::Warm:
      return Warm[NextWarm++ % Warm.size()];
    case ReqKind::NewExtent: {
      GenProgram G = Warm[Rng() % Warm.size()];
      std::tie(G.A, G.B) = Extents[NextExtent++ % Extents.size()];
      return G;
    }
    case ReqKind::NewConstants: {
      GenProgram G = Warm[Rng() % Warm.size()];
      G.Consts = freshConsts();
      return G;
    }
    case ReqKind::NewStructure: {
      GenProgram G = Warm[Rng() % Warm.size()];
      G.Structure = randomStructure(Rng);
      G.Consts = freshConsts();
      return G;
    }
    case ReqKind::Stats:
      break;
    }
    return GenProgram();
  }

  /// Constants no earlier program of the run used: the first slot
  /// carries a counter in its last printed digits.
  std::vector<double> freshConsts() {
    std::vector<double> C = randomConsts(Rng);
    C[0] = 0.1 + 1e-6 * static_cast<double>(++Fresh);
    return C;
  }

  std::mt19937_64 Rng;
  const std::vector<GenProgram> &Warm;
  std::vector<std::pair<int64_t, int64_t>> Extents;
  size_t NextWarm = 0, NextExtent = 0;
  uint64_t Fresh = 0;
};

/// The client's view of the timed window.
struct ClientLog {
  std::map<ReqKind, Samples> Lat;
  std::map<std::string, Outcome> Seen; ///< program source -> reply
  std::map<std::string, ReqKind> KindOf;
  uint64_t Requests = 0;
  std::string Error;
};

std::vector<GenProgram> warmSet(uint64_t Seed) {
  std::mt19937_64 Rng(Seed * 7919 + 17);
  std::vector<GenProgram> Warm;
  while (Warm.size() < WarmPrograms) {
    GenProgram G;
    G.Structure = randomStructure(Rng);
    G.Consts = randomConsts(Rng);
    G.A = G.B = WarmExtent;
    Warm.push_back(G);
  }
  return Warm;
}

/// One execute request; records latency, outcome and failures.
void execute(serve::Client &C, const std::string &Src, ReqKind K,
             uint64_t Seed, Tracer &T, ClientLog &Log, Report &R) {
  json::Value Resp;
  std::string Err;
  T.beginOp();
  Clock::time_point T0 = Clock::now();
  bool Sent;
  {
    Span Sp(T, K == ReqKind::Warm ? "serve.execute.warm" : "serve.execute.new");
    Sent = C.request(
        serve::Client::makeExecute(Src, "c2+f3", "jit", "structural", Seed),
        Resp, &Err);
  }
  double Ms = msSince(T0);
  ++Log.Requests;
  R.attempt();
  Outcome O;
  std::string Why;
  if (!Sent) {
    R.fail("transport: " + Err);
    Log.Error = Err;
    return;
  }
  if (!parseReply(Resp, O, Why)) {
    R.fail(std::string(kindName(K)) + " request: " + Why);
    return;
  }
  Log.Lat[K].add(Ms);
  auto [It, New] = Log.Seen.emplace(Src, O);
  Log.KindOf.emplace(Src, K);
  if (!New && !(It->second == O))
    R.fail("two replies for one program differ");
}

struct ServerSetup {
  std::string JitDir;
  std::unique_ptr<serve::Server> Srv;
  serve::Client Clients[NumConnections];
};

std::unique_ptr<ServerSetup> setUp(const Options &Opts, unsigned Rep,
                                   const std::vector<GenProgram> &Warm,
                                   Tracer &T, ClientLog &Log, Report &R) {
  auto S = std::make_unique<ServerSetup>();
  S->JitDir = Opts.WorkDir + "/jit-serve-" + std::to_string(Rep);
  serve::ServerOptions SO;
  // Relative to the working directory: sun_path holds 107 bytes.
  SO.SocketPath = Opts.WorkDir + "/alfd.sock";
  SO.CompileThreads = 2;
  SO.Verify = BenchVerify;
  SO.Jit.CacheDir = S->JitDir;
  S->Srv = std::make_unique<serve::Server>(SO);
  std::string Err;
  if (!S->Srv->start(&Err)) {
    R.attempt();
    R.fail("server start: " + Err);
    return nullptr;
  }
  for (serve::Client &C : S->Clients)
    if (!C.connect(SO.SocketPath, &Err)) {
      R.attempt();
      R.fail("client connect: " + Err);
      return nullptr;
    }
  for (const GenProgram &G : Warm)
    execute(S->Clients[0], G.source(), ReqKind::Warm, Opts.Seed, T, Log, R);
  return S;
}

void tearDown(std::unique_ptr<ServerSetup> &S) {
  if (!S)
    return;
  for (serve::Client &C : S->Clients)
    C.close();
  S->Srv->stop();
  S->Srv->wait();
  removeTree(S->JitDir);
  S.reset();
  // Hand the freed heap back, so the next server starts from the
  // footprint of a fresh process, not from what earlier set-ups left.
  ::malloc_trim(0);
}

double cacheCount(const json::Value &Stats, const char *Key) {
  const json::Value *Cache = Stats.get("cache");
  return Cache ? Cache->getNumber(Key).value_or(0) : 0;
}

} // namespace

void perfbench::runServeChurn(const Options &Opts, Report &R) {
  if (!exec::JitEngine::compilerAvailable()) {
    R.attempt();
    R.fail("no working C compiler (cc): the native tier cannot run");
    return;
  }
  std::vector<GenProgram> Warm = warmSet(Opts.Seed);
  Tracer SetupT(Opts.Trace, 0);
  ClientLog SetupLog;
  Samples SetupS;
  std::unique_ptr<ServerSetup> S;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    tearDown(S);
    // Each setup starts from the same process state: obs off and empty
    // (Server::start raises it to Counters).
    obs::setLevel(obs::ObsLevel::Off);
    obs::reset();
    Clock::time_point T0 = Clock::now();
    S = setUp(Opts, Rep, Warm, SetupT, SetupLog, R);
    if (!S)
      return;
    SetupS.add(msSince(T0) / 1000.0);
  }

  json::Value StatsBefore = S->Srv->statsJson();
  double RssBefore = currentRssMiB();
  double PeakRssSetUp = peakRssMiB();
  Tracer T(Opts.Trace, 1);
  ClientLog Log;
  ClientSchedule Sched(Opts.Seed, Warm);
  double PeakRss = 0;
  uint64_t Blocks = 0;
  OpStats Ops;

  Clock::time_point W0 = Clock::now();
  double WindowMs = Opts.Seconds * 1000.0;
  while ((msSince(W0) < WindowMs || Blocks < RssBlocks) && Log.Error.empty()) {
    std::vector<std::pair<ReqKind, GenProgram>> Block = Sched.nextBlock();
    Clock::time_point B0 = Clock::now();
    for (auto &[K, G] : Block) {
      if (!Log.Error.empty())
        break; // a connection is gone
      serve::Client &C = S->Clients[Log.Requests % NumConnections];
      if (K != ReqKind::Stats) {
        execute(C, G.source(), K, Opts.Seed, T, Log, R);
        continue;
      }
      json::Value Resp;
      std::string Err;
      T.beginOp();
      Clock::time_point T0 = Clock::now();
      bool Sent;
      {
        Span Sp(T, "serve.stats");
        Sent = C.request(serve::Client::makeStats(), Resp, &Err);
      }
      double Ms = msSince(T0);
      ++Log.Requests;
      R.attempt();
      if (!Sent)
        Log.Error = Err;
      if (!Sent || !Resp.getBool("ok").value_or(false)) {
        R.fail("stats op: " + (Sent ? Resp.str() : Err));
        continue;
      }
      Log.Lat[ReqKind::Stats].add(Ms);
    }
    Ops.endRound(msSince(B0), BlockSize);
    if (++Blocks == RssBlocks)
      PeakRss = peakRssMiB();
  }
  double WindowS = msSince(W0) / 1000.0;
  if (Blocks < RssBlocks) // a connection failed early
    PeakRss = peakRssMiB();
  double RssAfter = currentRssMiB();
  json::Value StatsAfter = S->Srv->statsJson();

  uint64_t Requests = Log.Requests;
  Samples Warmed, Fresh, Stats;
  for (const auto &[K, Lat] : Log.Lat) {
    Samples &Dest =
        K == ReqKind::Warm ? Warmed : K == ReqKind::Stats ? Stats : Fresh;
    Dest.append(Lat);
    Ops.addAll(kindName(K), Lat);
  }

  R.note("peak_rss_mb " + std::to_string(PeakRssSetUp) + " MiB after set-up, " +
         std::to_string(PeakRss) + " MiB after " + std::to_string(RssBlocks) +
         " of " + std::to_string(Blocks) + " blocks");
  reportSetupAndMemory(R, SetupS, PeakRss);
  Ops.reportE2E(R);
  R.distribution("warm_request_ms", Warmed);
  R.distribution("new_program_ms", Fresh);

  double Hits =
      cacheCount(StatsAfter, "hits") - cacheCount(StatsBefore, "hits");
  double Misses =
      cacheCount(StatsAfter, "misses") - cacheCount(StatsBefore, "misses");
  double Coalesced = cacheCount(StatsAfter, "coalesced") -
                     cacheCount(StatsBefore, "coalesced");
  double Req = static_cast<double>(Requests);
  R.layer("serve.warm_request_ms.p50", Warmed.median());
  R.layer("serve.warm_request_ms.p99", Warmed.percentile(99));
  R.layer("serve.new_program_ms.p50", Fresh.median());
  R.layer("serve.new_program_ms.p90", Fresh.percentile(90));
  R.layer("serve.requests_per_s", Req / WindowS);
  R.layer("serve.cache_hits_per_kreq", Hits * 1000 / Req);
  R.layer("serve.cache_misses_per_kreq", Misses * 1000 / Req);
  R.layer("serve.coalesced", Coalesced);
  R.layer("serve.hit_ratio", Hits / (Hits + Misses));
  R.layer("serve.stats_ms", Stats.median());
  R.layer("serve.rss_growth_kb_per_kreq",
          (RssAfter - RssBefore) * 1024 * 1000 / Req);
  R.note("requests " + std::to_string(Requests) + ", cache hits " +
         std::to_string(static_cast<uint64_t>(Hits)) + ", misses " +
         std::to_string(static_cast<uint64_t>(Misses)) + ", coalesced " +
         std::to_string(static_cast<uint64_t>(Coalesced)));

  tearDown(S);

  // References: every distinct program through the interpreter.
  Tracer RefT(Opts.Trace, 2);
  std::map<std::string, std::vector<const Outcome *>> Replies;
  for (const auto &[Src, O] : Log.Seen)
    Replies[Src].push_back(&O);
  const std::map<std::string, ReqKind> &KindOf = Log.KindOf;
  for (const auto &[Src, O] : SetupLog.Seen)
    Replies[Src].push_back(&O);
  Samples ParseMs;
  CompileLayers Layers;
  std::set<std::string> WarmSources;
  for (const GenProgram &G : Warm)
    WarmSources.insert(G.source());
  unsigned WarmIndex = 0;
  for (const auto &[Src, Outs] : Replies) {
    RefT.beginOp();
    Clock::time_point P0 = Clock::now();
    frontend::ParseResult Parsed = [&] {
      Span Sp(RefT, "frontend.parseProgram");
      return frontend::parseProgram(Src, "ref");
    }();
    ParseMs.add(msSince(P0));
    R.attempt();
    if (!Parsed.succeeded()) {
      R.fail("reference parse: " +
             (Parsed.Errors.empty() ? std::string("?")
                                    : Parsed.Errors.front()));
      continue;
    }
    driver::Pipeline PL(*Parsed.Prog, benchPipelineOptions());
    double Ms = 0;
    driver::CompileStatus St =
        timedTryCompile(PL, xform::Strategy::C2F3, RefT, Ms);
    if (!St.ok() || !St.Artifact) {
      R.fail("reference compile: " + St.Message);
      continue;
    }
    bool IsWarm = WarmSources.count(Src) != 0;
    if (IsWarm) {
      std::string Name = "warm" + std::to_string(WarmIndex++);
      Layers.addTryCompile(Name, Ms);
      if (RefT.enabled()) {
        frontend::ParseResult Fresh = frontend::parseProgram(Src, "ref");
        Layers.addReplay(Name,
                         replayCompile(*Fresh.Prog, xform::Strategy::C2F3,
                                       RefT, R));
      }
    }
    exec::RunResult Ref = [&] {
      Span Sp(RefT, "exec.run");
      return exec::run(St.Artifact->LP, Opts.Seed);
    }();
    Outcome Want;
    Want.Scalars = Ref.ScalarsOut;
    for (const auto &[Name, Data] : Ref.LiveOut) {
      double Sum = 0.0;
      for (double D : Data)
        Sum += D;
      Want.Sums[Name] = Sum;
    }
    for (const Outcome *O : Outs)
      if (!(*O == Want)) {
        auto K = KindOf.find(Src);
        R.fail(std::string(K == KindOf.end() ? "warm" : kindName(K->second)) +
               " reply differs from the interpreter");
      }
  }
  R.layer("frontend.parse_ms", ParseMs.median());
  Layers.report(R);
  R.note("distinct programs checked " + std::to_string(Replies.size()));

  finishTrace(Opts, R, {&SetupT, &T, &RefT});
}
