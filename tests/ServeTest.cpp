//===- tests/ServeTest.cpp - serving-layer tests ----------------------------===//
//
// The alfd serving stack bottom-up: TaskQueue drain semantics, wire
// protocol framing (including every malformed-input classification),
// KernelCache single-flight under a thundering herd, the JitEngine's
// per-hash single-flight, and an in-process Server driven end to end
// over a real Unix-domain socket.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/KernelCache.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include "driver/Pipeline.h"
#include "exec/Interpreter.h"
#include "exec/NativeJit.h"
#include "frontend/Parser.h"
#include "obs/Obs.h"
#include "support/Statistic.h"
#include "support/ThreadPool.h"
#include "support/Ulp.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace alf;
using namespace alf::serve;

namespace {

//===----------------------------------------------------------------------===//
// TaskQueue
//===----------------------------------------------------------------------===//

TEST(TaskQueueTest, DrainsEveryJobOnDestruction) {
  std::atomic<unsigned> Ran{0};
  {
    TaskQueue Q(2);
    for (unsigned I = 0; I < 64; ++I)
      Q.submit([&Ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        Ran.fetch_add(1);
      });
    // Destruction must block until all 64 have run, not drop the queue.
  }
  EXPECT_EQ(Ran.load(), 64u);
}

TEST(TaskQueueTest, SubmitFromInsideAJob) {
  std::atomic<unsigned> Ran{0};
  {
    TaskQueue Q(1);
    Q.submit([&] {
      Ran.fetch_add(1);
      Q.submit([&Ran] { Ran.fetch_add(1); });
    });
  }
  EXPECT_EQ(Ran.load(), 2u);
}

//===----------------------------------------------------------------------===//
// Protocol framing
//===----------------------------------------------------------------------===//

/// A connected socket pair; [0] is "ours", [1] the peer's.
struct SocketPair {
  int Fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0); }
  ~SocketPair() {
    closeA();
    closeB();
  }
  void closeA() {
    if (Fds[0] >= 0)
      ::close(Fds[0]);
    Fds[0] = -1;
  }
  void closeB() {
    if (Fds[1] >= 0)
      ::close(Fds[1]);
    Fds[1] = -1;
  }
};

/// Writes a raw frame with an explicit length prefix (which may lie
/// about the payload, unlike writeFrame).
void writeRaw(int Fd, uint32_t Len, const std::string &Payload) {
  uint8_t Hdr[4] = {static_cast<uint8_t>(Len >> 24),
                    static_cast<uint8_t>(Len >> 16),
                    static_cast<uint8_t>(Len >> 8),
                    static_cast<uint8_t>(Len)};
  ASSERT_EQ(::write(Fd, Hdr, 4), 4);
  if (!Payload.empty()) {
    ASSERT_EQ(::write(Fd, Payload.data(),
                      static_cast<ssize_t>(Payload.size())),
              static_cast<ssize_t>(Payload.size()));
  }
}

TEST(ProtocolTest, RoundTrip) {
  SocketPair SP;
  json::Value Req = json::Value::object();
  Req.set("op", json::Value::str("health"));
  Req.set("n", json::Value::number(42));
  ASSERT_TRUE(writeFrame(SP.Fds[0], Req));

  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out), FrameRead::Ok);
  EXPECT_EQ(Out.getString("op").value_or(""), "health");
  EXPECT_EQ(Out.getNumber("n").value_or(0), 42);
}

TEST(ProtocolTest, BackToBackFramesStayInSync) {
  SocketPair SP;
  for (unsigned I = 0; I < 4; ++I) {
    json::Value V = json::Value::object();
    V.set("i", json::Value::number(I));
    ASSERT_TRUE(writeFrame(SP.Fds[0], V));
  }
  for (unsigned I = 0; I < 4; ++I) {
    json::Value Out;
    ASSERT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
              FrameRead::Ok);
    EXPECT_EQ(Out.getNumber("i").value_or(-1), I);
  }
}

TEST(ProtocolTest, CleanEofOnFrameBoundary) {
  SocketPair SP;
  SP.closeA();
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out), FrameRead::Eof);
}

TEST(ProtocolTest, OversizedLengthPrefixIsTooLarge) {
  SocketPair SP;
  writeRaw(SP.Fds[0], 1024 + 1, "");
  json::Value Out;
  std::string Why;
  EXPECT_EQ(readFrame(SP.Fds[1], /*MaxBytes=*/1024, Out, &Why),
            FrameRead::TooLarge);
  EXPECT_FALSE(Why.empty());
}

TEST(ProtocolTest, ZeroLengthFrameIsMalformed) {
  SocketPair SP;
  writeRaw(SP.Fds[0], 0, "");
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
            FrameRead::Malformed);
}

TEST(ProtocolTest, NonJsonPayloadIsMalformed) {
  SocketPair SP;
  const std::string Garbage = "hello?";
  writeRaw(SP.Fds[0], static_cast<uint32_t>(Garbage.size()), Garbage);
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
            FrameRead::Malformed);
}

TEST(ProtocolTest, NonObjectRootIsMalformed) {
  SocketPair SP;
  const std::string Arr = "[1, 2, 3]";
  writeRaw(SP.Fds[0], static_cast<uint32_t>(Arr.size()), Arr);
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
            FrameRead::Malformed);
}

TEST(ProtocolTest, DeeplyNestedPayloadIsMalformed) {
  // 100,000 nested arrays: a 200 KB frame, well under the frame cap, that
  // the JSON parser must refuse instead of recursing into a stack
  // overflow. The writer runs on its own thread because the frame is
  // larger than the socket buffer.
  SocketPair SP;
  const std::string Deep = std::string(100000, '[') + std::string(100000, ']');
  std::thread Writer(
      [&] { writeRaw(SP.Fds[0], static_cast<uint32_t>(Deep.size()), Deep); });
  json::Value Out;
  std::string Why;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out, &Why),
            FrameRead::Malformed);
  Writer.join();
  EXPECT_NE(Why.find("nesting deeper than"), std::string::npos) << Why;
}

TEST(ProtocolTest, TruncatedPayloadIsIoError) {
  SocketPair SP;
  writeRaw(SP.Fds[0], 64, "only-a-little"); // promises 64, delivers 13
  SP.closeA();
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
            FrameRead::IoError);
}

//===----------------------------------------------------------------------===//
// KernelCache single-flight
//===----------------------------------------------------------------------===//

CompileKey keyFor(uint64_t Hash) {
  CompileKey K;
  K.ProgramHash = Hash;
  return K;
}

TEST(KernelCacheTest, ThunderingHerdCompilesOnce) {
  KernelCache Cache(/*NumShards=*/4);
  std::atomic<unsigned> Compiles{0};
  const unsigned NumThreads = 16;

  std::vector<std::shared_ptr<const CompiledEntry>> Entries(NumThreads);
  std::vector<CacheOutcome> Outcomes(NumThreads, CacheOutcome::Hit);
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      Entries[I] = Cache.get(
          keyFor(7), [&Compiles] {
            Compiles.fetch_add(1);
            // Long enough that the herd piles up behind the slot.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            CompiledEntry E;
            E.OK = true;
            E.NumClusters = 3;
            return E;
          },
          &Outcomes[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Compiles.load(), 1u);
  unsigned Misses = 0;
  for (unsigned I = 0; I < NumThreads; ++I) {
    ASSERT_TRUE(Entries[I]);
    // Everyone shares the one published entry object.
    EXPECT_EQ(Entries[I].get(), Entries[0].get());
    Misses += Outcomes[I] == CacheOutcome::Miss;
  }
  EXPECT_EQ(Misses, 1u);
  KernelCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits + S.Coalesced, NumThreads - 1);
}

TEST(KernelCacheTest, DistinctKeysCompileIndependently) {
  KernelCache Cache;
  std::atomic<unsigned> Compiles{0};
  auto Fn = [&Compiles] {
    Compiles.fetch_add(1);
    CompiledEntry E;
    E.OK = true;
    return E;
  };
  Cache.get(keyFor(1), Fn);
  Cache.get(keyFor(2), Fn);
  CompileKey K = keyFor(1);
  K.Strat = xform::Strategy::Baseline; // same program, different strategy
  Cache.get(K, Fn);
  EXPECT_EQ(Compiles.load(), 3u);
  EXPECT_EQ(Cache.size(), 3u);
}

TEST(KernelCacheTest, FailedCompilesAreNegativelyCached) {
  KernelCache Cache;
  std::atomic<unsigned> Compiles{0};
  auto Fn = [&Compiles] {
    Compiles.fetch_add(1);
    CompiledEntry E;
    E.OK = false;
    E.ErrorCode = "parse";
    E.ErrorMessage = "1:1: nope";
    return E;
  };
  CacheOutcome O1, O2;
  auto E1 = Cache.get(keyFor(9), Fn, &O1);
  auto E2 = Cache.get(keyFor(9), Fn, &O2);
  EXPECT_EQ(Compiles.load(), 1u) << "a broken program must not re-parse";
  EXPECT_EQ(O1, CacheOutcome::Miss);
  EXPECT_EQ(O2, CacheOutcome::Hit);
  ASSERT_TRUE(E2);
  EXPECT_FALSE(E2->OK);
  EXPECT_EQ(E2->ErrorCode, "parse");
  EXPECT_EQ(E1.get(), E2.get());
}

TEST(KernelCacheTest, MissesRunOnTheDispatchQueue) {
  TaskQueue Q(1);
  KernelCache Cache(/*NumShards=*/2, &Q);
  std::thread::id CompileTid;
  auto E = Cache.get(keyFor(3), [&CompileTid] {
    CompileTid = std::this_thread::get_id();
    CompiledEntry En;
    En.OK = true;
    return En;
  });
  ASSERT_TRUE(E);
  EXPECT_TRUE(E->OK);
  EXPECT_NE(CompileTid, std::this_thread::get_id())
      << "compile should have run on the queue worker, not the caller";
}

//===----------------------------------------------------------------------===//
// JitEngine single-flight
//===----------------------------------------------------------------------===//

const char *JitHerdSource = R"(
region R : [1..16, 1..16];
array U, V : R;
array T : R temp;
scalar s;
[R] T := (U@(-1,0) + U@(1,0) + U@(0,-1) + U@(0,1)) * 0.25 - U;
[R] V := U + T * 0.8;
[R] s := + << abs(T);
)";

TEST(JitSingleFlightTest, HerdOfIdenticalKernelsCompilesOnce) {
  if (!exec::JitEngine::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";

  frontend::ParseResult PR =
      frontend::parseProgram(JitHerdSource, "<herd>");
  ASSERT_TRUE(PR.succeeded());
  driver::Pipeline PL(*PR.Prog);
  driver::CompileStatus St = PL.tryCompile(driver::CompileRequest());
  ASSERT_TRUE(St.ok());

  char Tmpl[] = "/tmp/alf-servetest-jit-XXXXXX";
  ASSERT_NE(mkdtemp(Tmpl), nullptr);
  exec::JitOptions JO;
  JO.CacheDir = Tmpl;
  exec::JitEngine Jit(JO);

  uint64_t CompilesBefore = getStatisticValue("jit", "NumJitCompiles");
  const unsigned NumThreads = 8;
  std::vector<exec::RunResult> Results(NumThreads);
  std::vector<exec::JitRunInfo> Infos(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      Results[I] = Jit.run(St.Artifact->LP, /*Seed=*/11, &Infos[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  unsigned Compiled = 0;
  for (unsigned I = 0; I < NumThreads; ++I) {
    EXPECT_TRUE(Infos[I].UsedJit) << Infos[I].FallbackReason;
    Compiled += Infos[I].Compiled;
    // Bit-identical across every thread of the herd.
    EXPECT_EQ(Results[I].ScalarsOut, Results[0].ScalarsOut);
    EXPECT_EQ(Results[I].LiveOut, Results[0].LiveOut);
  }
  EXPECT_EQ(Compiled, 1u) << "exactly one thread may invoke the compiler";
  EXPECT_EQ(getStatisticValue("jit", "NumJitCompiles") - CompilesBefore, 1u);

  std::error_code EC;
  std::filesystem::remove_all(Tmpl, EC);
}

//===----------------------------------------------------------------------===//
// Server end to end
//===----------------------------------------------------------------------===//

class ServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Tmpl[] = "/tmp/alf-servetest-XXXXXX";
    ASSERT_NE(mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
    ServerOptions SO;
    SO.SocketPath = Dir + "/alfd.sock";
    SO.CompileThreads = 2;
    SO.MaxProgramBytes = 64 * 1024;
    Srv = std::make_unique<Server>(std::move(SO));
    std::string Error;
    ASSERT_TRUE(Srv->start(&Error)) << Error;
  }

  void TearDown() override {
    Srv->stop();
    Srv->wait();
    Srv.reset();
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  json::Value roundTrip(const json::Value &Req) {
    Client C;
    std::string Error;
    EXPECT_TRUE(C.connect(Srv->options().SocketPath, &Error)) << Error;
    json::Value Resp;
    EXPECT_TRUE(C.request(Req, Resp, &Error)) << Error;
    return Resp;
  }

  std::string Dir;
  std::unique_ptr<Server> Srv;
};

const char *ServerSource = R"(
region R : [1..12, 1..12];
array U, V : R;
array T : R temp;
scalar s;
[R] T := (U@(-1,0) + U@(1,0) + U@(0,-1) + U@(0,1)) * 0.25 - U;
[R] V := U + T * 0.8;
[R] s := + << abs(T);
)";

TEST_F(ServerTest, Health) {
  json::Value Resp = roundTrip(Client::makeHealth());
  EXPECT_EQ(Resp.getBool("ok").value_or(false), true);
  EXPECT_EQ(Resp.getString("service").value_or(""), "alfd");
  EXPECT_EQ(Resp.getNumber("protocol").value_or(0), ProtocolVersion);
}

TEST_F(ServerTest, UnknownOpIsStructured) {
  json::Value Req = json::Value::object();
  Req.set("op", json::Value::str("frobnicate"));
  json::Value Resp = roundTrip(Req);
  EXPECT_EQ(Resp.getBool("ok").value_or(true), false);
  EXPECT_EQ(Resp.getString("error").value_or(""), "unknown-op");
}

TEST_F(ServerTest, CompileMissThenHit) {
  json::Value First = roundTrip(Client::makeCompile(ServerSource, "c2"));
  ASSERT_EQ(First.getBool("ok").value_or(false), true)
      << First.getString("message").value_or("");
  EXPECT_EQ(First.getString("cache").value_or(""), "miss");
  EXPECT_EQ(First.getString("strategy").value_or(""), "c2");
  EXPECT_GE(First.getNumber("clusters").value_or(0), 1);
  const json::Value *Contracted = First.get("contracted");
  ASSERT_NE(Contracted, nullptr);
  ASSERT_TRUE(Contracted->isArray());
  ASSERT_EQ(Contracted->size(), 1u);
  EXPECT_EQ(Contracted->items()[0].asString(), "T");

  json::Value Second = roundTrip(Client::makeCompile(ServerSource, "c2"));
  EXPECT_EQ(Second.getString("cache").value_or(""), "hit");

  // A different strategy is a different cache key.
  json::Value Third =
      roundTrip(Client::makeCompile(ServerSource, "baseline"));
  EXPECT_EQ(Third.getString("cache").value_or(""), "miss");
}

TEST_F(ServerTest, ExecuteIsDeterministic) {
  json::Value A =
      roundTrip(Client::makeExecute(ServerSource, "c2", "", "", 7));
  json::Value B =
      roundTrip(Client::makeExecute(ServerSource, "c2", "", "", 7));
  ASSERT_EQ(A.getBool("ok").value_or(false), true)
      << A.getString("message").value_or("");
  ASSERT_EQ(B.getBool("ok").value_or(false), true);
  const json::Value *SA = A.get("scalars");
  const json::Value *SB = B.get("scalars");
  ASSERT_NE(SA, nullptr);
  ASSERT_NE(SB, nullptr);
  ASSERT_TRUE(SA->getNumber("s").has_value());
  EXPECT_EQ(*SA->getNumber("s"), *SB->getNumber("s"));
  const json::Value *Arrays = A.get("arrays");
  ASSERT_NE(Arrays, nullptr);
  ASSERT_NE(Arrays->get("V"), nullptr);
  EXPECT_EQ(Arrays->get("V")->getNumber("elements").value_or(0), 12 * 12);
}

TEST_F(ServerTest, ParseErrorIsStructuredAndNegativelyCached) {
  const std::string Broken = "region R : [1..4];\n[R] X := nonsense;\n";
  json::Value First = roundTrip(Client::makeCompile(Broken));
  EXPECT_EQ(First.getBool("ok").value_or(true), false);
  EXPECT_EQ(First.getString("error").value_or(""), "parse");
  EXPECT_FALSE(First.getString("message").value_or("").empty());

  // The second submission is served from the negative cache.
  json::Value Second = roundTrip(Client::makeCompile(Broken));
  EXPECT_EQ(Second.getString("error").value_or(""), "parse");

  json::Value Stats = roundTrip(Client::makeStats());
  const json::Value *CacheV = Stats.get("cache");
  ASSERT_NE(CacheV, nullptr);
  EXPECT_GE(CacheV->getNumber("hits").value_or(0), 1);
}

TEST_F(ServerTest, UnknownStrategyIsMalformed) {
  json::Value Resp =
      roundTrip(Client::makeCompile(ServerSource, "bogus-strategy"));
  EXPECT_EQ(Resp.getBool("ok").value_or(true), false);
  EXPECT_EQ(Resp.getString("error").value_or(""), "malformed");
}

TEST_F(ServerTest, SemiringOverrideIsItsOwnCacheKey) {
  json::Value Plain = roundTrip(Client::makeExecute(ServerSource, "c2"));
  ASSERT_EQ(Plain.getBool("ok").value_or(false), true)
      << Plain.getString("message").value_or("");
  EXPECT_EQ(Plain.getString("cache").value_or(""), "miss");

  // Same source text under a min-plus override: a distinct artifact, so
  // a distinct cache entry — and a fold that computes min, not sum.
  json::Value MinPlus = roundTrip(
      Client::makeExecute(ServerSource, "c2", "", "", 0, "min-plus"));
  ASSERT_EQ(MinPlus.getBool("ok").value_or(false), true)
      << MinPlus.getString("message").value_or("");
  EXPECT_EQ(MinPlus.getString("cache").value_or(""), "miss");

  const json::Value *SP = Plain.get("scalars");
  const json::Value *SM = MinPlus.get("scalars");
  ASSERT_NE(SP, nullptr);
  ASSERT_NE(SM, nullptr);
  ASSERT_TRUE(SP->getNumber("s").has_value());
  ASSERT_TRUE(SM->getNumber("s").has_value());
  EXPECT_NE(*SP->getNumber("s"), *SM->getNumber("s"))
      << "the min-plus request must not be served the plus-times artifact";

  // Both keys are now independently warm.
  EXPECT_EQ(roundTrip(Client::makeExecute(ServerSource, "c2", "", "", 0,
                                          "min-plus"))
                .getString("cache")
                .value_or(""),
            "hit");

  json::Value Bad =
      roundTrip(Client::makeCompile(ServerSource, "", "", "", "no-such"));
  EXPECT_EQ(Bad.getBool("ok").value_or(true), false);
  EXPECT_EQ(Bad.getString("error").value_or(""), "malformed");
}

// One program, two jit tiers. ExecMode is part of the CompileKey, so
// the scalar-jit and vectorizing-jit artifacts are distinct cache
// entries — the daemon must never serve one tier the other's kernel —
// and each key warms independently. The jit-simd response additionally
// reports the vectorizer's outcome, which clients use to pick their
// comparison tolerance.
TEST_F(ServerTest, JitAndJitSimdAreDistinctCacheEntriesBothWarm) {
  if (!exec::JitEngine::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";

  json::Value Jit =
      roundTrip(Client::makeExecute(ServerSource, "c2", "jit", "", 7));
  ASSERT_EQ(Jit.getBool("ok").value_or(false), true)
      << Jit.getString("message").value_or("");
  EXPECT_EQ(Jit.getString("cache").value_or(""), "miss");
  const json::Value *JI = Jit.get("jit");
  ASSERT_NE(JI, nullptr);
  EXPECT_EQ(JI->getBool("used_jit").value_or(false), true);
  EXPECT_EQ(JI->get("vectorized_nests"), nullptr)
      << "scalar tier must not report vectorizer fields";

  json::Value Simd =
      roundTrip(Client::makeExecute(ServerSource, "c2", "jit-simd", "", 7));
  ASSERT_EQ(Simd.getBool("ok").value_or(false), true)
      << Simd.getString("message").value_or("");
  EXPECT_EQ(Simd.getString("cache").value_or(""), "miss")
      << "jit-simd was served the scalar-jit artifact";
  const json::Value *SI = Simd.get("jit");
  ASSERT_NE(SI, nullptr);
  EXPECT_EQ(SI->getBool("used_jit").value_or(false), true);
  EXPECT_GE(SI->getNumber("vectorized_nests").value_or(0), 1);

  // `s` is a float + fold the vectorizer lane-splits, so the response
  // must declare the reassociation and the two tiers agree within a
  // small ULP budget (bit-equality is not promised for this program).
  EXPECT_EQ(SI->getBool("reassociated").value_or(false), true);
  const json::Value *SA = Jit.get("scalars");
  const json::Value *SB = Simd.get("scalars");
  ASSERT_NE(SA, nullptr);
  ASSERT_NE(SB, nullptr);
  ASSERT_TRUE(SA->getNumber("s").has_value());
  ASSERT_TRUE(SB->getNumber("s").has_value());
  EXPECT_TRUE(support::agreeWithin(
      *SA->getNumber("s"), *SB->getNumber("s"),
      support::Tolerance::ReassociatedFloat, /*MaxUlps=*/16384))
      << *SA->getNumber("s") << " vs " << *SB->getNumber("s");

  // Warm replay: both keys hit, independently.
  EXPECT_EQ(roundTrip(Client::makeExecute(ServerSource, "c2", "jit", "", 7))
                .getString("cache")
                .value_or(""),
            "hit");
  EXPECT_EQ(
      roundTrip(Client::makeExecute(ServerSource, "c2", "jit-simd", "", 7))
          .getString("cache")
          .value_or(""),
      "hit");
}

TEST_F(ServerTest, UnsafeProgramIsVettedBeforeCompileAndNegativelyCached) {
  // T is read but never written and is not live-in: at the requested
  // safety tier the checker proves the read undefined and the daemon
  // rejects the program before any kernel work is enqueued.
  const std::string Unsafe = R"(
region R : [1..4, 1..4];
array A : R;
array T : R temp;
[R] A := T + 1.0;
)";
  json::Value First =
      roundTrip(Client::makeCompile(Unsafe, "c2", "", "safety"));
  EXPECT_EQ(First.getBool("ok").value_or(true), false);
  EXPECT_EQ(First.getString("error").value_or(""), "unsafe-program");
  const json::Value *Findings = First.get("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_TRUE(Findings->isArray());
  ASSERT_GE(Findings->size(), 1u);
  EXPECT_NE(Findings->items()[0].asString().find("safety-init"),
            std::string::npos)
      << Findings->items()[0].asString();
  EXPECT_NE(Findings->items()[0].asString().find("T"), std::string::npos);

  // The rejection is negatively cached, and the cached entry replays the
  // full findings — not just the error code.
  json::Value Second =
      roundTrip(Client::makeCompile(Unsafe, "c2", "", "safety"));
  EXPECT_EQ(Second.getString("error").value_or(""), "unsafe-program");
  EXPECT_EQ(Second.getString("cache").value_or(""), "hit");
  const json::Value *Replayed = Second.get("findings");
  ASSERT_NE(Replayed, nullptr);
  ASSERT_TRUE(Replayed->isArray());
  EXPECT_EQ(Replayed->size(), Findings->size());

  // The same program compiles fine below the safety tier: the rejection
  // came from the new static analysis, not from an earlier stage.
  json::Value Full = roundTrip(Client::makeCompile(Unsafe, "c2", "", "full"));
  EXPECT_EQ(Full.getBool("ok").value_or(false), true)
      << Full.getString("message").value_or("");
}

TEST_F(ServerTest, MalformedFrameIsAnsweredThenDropped) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Srv->options().SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);

  const std::string Garbage = "this is not json";
  writeRaw(Fd, static_cast<uint32_t>(Garbage.size()), Garbage);
  json::Value Resp;
  ASSERT_EQ(readFrame(Fd, DefaultMaxFrameBytes, Resp), FrameRead::Ok);
  EXPECT_EQ(Resp.getBool("ok").value_or(true), false);
  EXPECT_EQ(Resp.getString("error").value_or(""), "malformed");

  // The server hangs up after answering (the stream may be desynced).
  json::Value Next;
  EXPECT_EQ(readFrame(Fd, DefaultMaxFrameBytes, Next), FrameRead::Eof);
  ::close(Fd);
}

TEST_F(ServerTest, DeeplyNestedInputGetsClassifiedErrors) {
  // A deep JSON frame is malformed; deep mini-ZPL source inside a
  // well-formed frame is a parse error. Both stay under the fixture's
  // 64 KiB program cap.
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Srv->options().SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  const std::string DeepJson =
      std::string(30000, '[') + std::string(30000, ']');
  writeRaw(Fd, static_cast<uint32_t>(DeepJson.size()), DeepJson);
  json::Value Resp;
  ASSERT_EQ(readFrame(Fd, DefaultMaxFrameBytes, Resp), FrameRead::Ok);
  EXPECT_EQ(Resp.getString("error").value_or(""), "malformed");
  ::close(Fd);

  const std::string DeepSource =
      "region R : [1..4];\narray A, B : R;\n[R] B := " +
      std::string(30000, '(') + "A" + std::string(30000, ')') + ";\n";
  json::Value Parsed = roundTrip(Client::makeCompile(DeepSource, "c2"));
  EXPECT_EQ(Parsed.getBool("ok").value_or(true), false);
  EXPECT_EQ(Parsed.getString("error").value_or(""), "parse");
  EXPECT_NE(Parsed.getString("message").value_or("").find("nested deeper"),
            std::string::npos);

  // The daemon is still serving.
  EXPECT_EQ(roundTrip(Client::makeHealth()).getBool("ok").value_or(false),
            true);
}

TEST_F(ServerTest, LongFlatChainGetsAParseError) {
  // 250,000 terms is ~500 KB: past the fixture's 64 KiB cap, inside the
  // default 1 MiB one, so serve it from a daemon with the default cap.
  Srv->stop();
  Srv->wait();
  ServerOptions SO;
  SO.SocketPath = Dir + "/alfd-default-cap.sock";
  Srv = std::make_unique<Server>(std::move(SO));
  std::string Error;
  ASSERT_TRUE(Srv->start(&Error)) << Error;

  std::string Chain = "A";
  for (unsigned I = 1; I < 250000; ++I)
    Chain += "+A";
  const std::string Source =
      "region R : [1..4];\narray A, B : R;\n[R] B := " + Chain + ";\n";
  json::Value Parsed =
      roundTrip(Client::makeExecute(Source, "c2", "jit", "", 7));
  EXPECT_EQ(Parsed.getBool("ok").value_or(true), false);
  EXPECT_EQ(Parsed.getString("error").value_or(""), "parse");
  EXPECT_NE(Parsed.getString("message").value_or("").find("terms"),
            std::string::npos);

  // The daemon is still serving.
  EXPECT_EQ(roundTrip(Client::makeHealth()).getBool("ok").value_or(false),
            true);
}

TEST_F(ServerTest, OversizedProgramIsRejectedFromItsLengthPrefix) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Srv->options().SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);

  writeRaw(Fd, Srv->options().MaxProgramBytes + 1, "");
  json::Value Resp;
  ASSERT_EQ(readFrame(Fd, DefaultMaxFrameBytes, Resp), FrameRead::Ok);
  EXPECT_EQ(Resp.getString("error").value_or(""), "too-large");
  ::close(Fd);
}

TEST_F(ServerTest, ConcurrentIdenticalCompilesSingleFlight) {
  const unsigned NumThreads = 8;
  std::vector<std::string> Outcomes(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      json::Value Resp;
      if (!C.connect(Srv->options().SocketPath))
        return;
      if (C.request(Client::makeCompile(ServerSource, "c2+f3"), Resp))
        Outcomes[I] = Resp.getString("cache").value_or("");
    });
  for (std::thread &T : Threads)
    T.join();

  unsigned Misses = 0, Served = 0;
  for (const std::string &O : Outcomes) {
    ASSERT_FALSE(O.empty());
    Misses += O == "miss";
    Served += O == "hit" || O == "coalesced";
  }
  EXPECT_EQ(Misses, 1u);
  EXPECT_EQ(Served, NumThreads - 1);
}

TEST_F(ServerTest, OversizedStorageIsRefusedAndTheDaemonStaysUp) {
  // The element count of this region, times 8 bytes, overflows int64_t:
  // a positioned parse error, not an allocation that throws.
  json::Value Overflow = roundTrip(Client::makeExecute(R"(
region R : [1..4000000000, 1..4000000000];
array A, B : R;
[R] B := A + 1;
)", "c2", "", "", 7));
  EXPECT_EQ(Overflow.getBool("ok").value_or(true), false);
  EXPECT_EQ(Overflow.getString("error").value_or(""), "parse");
  EXPECT_NE(Overflow.getString("message").value_or("").find("2:8:"),
            std::string::npos)
      << Overflow.str();

  // 80 GB of storage is representable but past MaxStorageBytes.
  json::Value Big = roundTrip(Client::makeExecute(R"(
region R : [1..100000, 1..100000];
array A, B : R;
[R] B := A@(1,0) + 1;
)", "c2", "jit", "", 7));
  EXPECT_EQ(Big.getBool("ok").value_or(true), false);
  EXPECT_EQ(Big.getString("error").value_or(""), "too-large") << Big.str();

  EXPECT_EQ(roundTrip(Client::makeHealth()).getBool("ok").value_or(false),
            true);
}

/// The ServerSource stencil at an n x n grid with constants \p C1, \p C2.
std::string stencilSource(int N, const char *C1, const char *C2) {
  return "region R : [1.." + std::to_string(N) + ", 1.." +
         std::to_string(N) +
         "];\narray U, V : R;\narray T : R temp;\nscalar s;\n"
         "[R] T := (U@(-1,0) + U@(1,0) + U@(0,-1) + U@(0,1)) * " +
         C1 + " - U;\n[R] V := U + T * " + C2 +
         ";\n[R] s := + << abs(T);\n";
}

/// Expects \p Resp to be a native execute reply equal, bit for bit, to
/// the interpreter running \p Source on \p Seed.
void expectMatchesInterpreter(const json::Value &Resp,
                              const std::string &Source, uint64_t Seed) {
  ASSERT_EQ(Resp.getBool("ok").value_or(false), true) << Resp.str();
  frontend::ParseResult PR = frontend::parseProgram(Source);
  ASSERT_TRUE(PR.succeeded());
  driver::Pipeline PL(*PR.Prog);
  driver::CompileRequest Req;
  Req.Strat = xform::Strategy::C2;
  driver::CompileStatus St = PL.tryCompile(Req);
  ASSERT_TRUE(St.ok()) << St.Message;
  exec::RunResult Ref = exec::run(St.Artifact->LP, Seed);
  const json::Value *Scalars = Resp.get("scalars");
  const json::Value *Arrays = Resp.get("arrays");
  ASSERT_TRUE(Scalars && Arrays);
  for (const auto &[Name, V] : Ref.ScalarsOut)
    EXPECT_EQ(Scalars->getNumber(Name).value_or(-1), V) << Name;
  for (const auto &[Name, Data] : Ref.LiveOut) {
    double Sum = 0.0;
    for (double D : Data)
      Sum += D;
    const json::Value *A = Arrays->get(Name);
    ASSERT_NE(A, nullptr) << Name;
    EXPECT_EQ(A->getNumber("sum").value_or(-1), Sum) << Name;
  }
}

// A never-seen extent or constant set of a cached structure is parsed
// and compiled through the pipeline, but runs on the loaded kernel.
TEST_F(ServerTest, NewExtentsAndConstantsRunWithoutCompiling) {
  if (!exec::JitEngine::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  // A daemon with its own kernel cache, so the first request compiles.
  Srv->stop();
  Srv->wait();
  ServerOptions SO;
  SO.SocketPath = Dir + "/alfd-private-cache.sock";
  SO.Jit.CacheDir = Dir + "/kernels";
  Srv = std::make_unique<Server>(std::move(SO));
  std::string Error;
  ASSERT_TRUE(Srv->start(&Error)) << Error;

  auto Jit = [](const json::Value &Resp, const char *Key) {
    const json::Value *J = Resp.get("jit");
    return J && J->getBool(Key).value_or(false);
  };
  std::string First = stencilSource(12, "0.25", "0.8");
  json::Value Cold = roundTrip(Client::makeExecute(First, "c2", "jit", "", 7));
  expectMatchesInterpreter(Cold, First, 7);
  EXPECT_TRUE(Jit(Cold, "used_jit"));
  EXPECT_TRUE(Jit(Cold, "compiled"));

  for (const std::string &Next :
       {stencilSource(17, "0.25", "0.8"), stencilSource(12, "0.3", "0.7"),
        stencilSource(9, "0.125", "0.5")}) {
    SCOPED_TRACE(Next);
    json::Value Resp =
        roundTrip(Client::makeExecute(Next, "c2", "jit", "", 7));
    expectMatchesInterpreter(Resp, Next, 7);
    EXPECT_EQ(Resp.getString("cache").value_or(""), "miss");
    EXPECT_TRUE(Jit(Resp, "used_jit"));
    EXPECT_FALSE(Jit(Resp, "compiled"));
  }
}

TEST_F(ServerTest, ShutdownOpStopsTheDaemon) {
  json::Value Resp = roundTrip(Client::makeShutdown());
  EXPECT_EQ(Resp.getBool("ok").value_or(false), true);
  Srv->wait(); // returns because the shutdown op fired, not stop()
  Client C;
  EXPECT_FALSE(C.connect(Srv->options().SocketPath));
}

} // namespace
