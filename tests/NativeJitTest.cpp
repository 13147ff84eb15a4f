//===- tests/NativeJitTest.cpp - Native JIT backend tests -------------------===//
//
// The native backend's contract: bit-identity with the sequential
// interpreter, a two-level kernel cache (memory within an engine, disk
// across engines and processes) keyed by content hash, and a fallback
// ladder that degrades every failure — missing compiler, failed compile,
// corrupt cache entry — to the interpreter with the reason recorded.
//
//===----------------------------------------------------------------------===//

#include "exec/NativeJit.h"

#include "analysis/ASDG.h"
#include "exec/Eval.h"
#include "exec/ParallelExecutor.h"
#include "ir/Normalize.h"
#include "obs/Obs.h"
#include "scalarize/Scalarize.h"
#include "support/Statistic.h"
#include "xform/Strategy.h"

#include "TestPrograms.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <latch>
#include <optional>
#include <thread>
#include <unistd.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::xform;

namespace {

bool HaveCompiler = JitEngine::compilerAvailable();

/// A fresh cache directory unique to this test process, removed on
/// destruction so runs never see each other's kernels.
struct TempCacheDir {
  std::string Path;
  TempCacheDir() {
    Path = (std::filesystem::temp_directory_path() /
            ("alf-jit-test-" + std::to_string(getpid())))
               .string();
    std::filesystem::remove_all(Path);
  }
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

lir::LoopProgram makeLoopProgram(ir::Program &P, Strategy S = Strategy::C2) {
  ir::normalizeProgram(P);
  ASDG G = ASDG::build(P);
  return scalarize::scalarizeWithStrategy(G, S);
}

TEST(NativeJitTest, BitIdenticalToInterpreterAcrossStrategies) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  JitEngine Engine(Opts);

  auto P = tp::makeUserTempPair();
  ir::normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  for (Strategy S : allStrategiesForTest()) {
    auto LP = scalarize::scalarizeWithStrategy(G, S);
    RunResult Interp = run(LP, 7);
    JitRunInfo Info;
    RunResult Jit = Engine.run(LP, 7, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    std::string Why;
    EXPECT_TRUE(resultsMatch(Interp, Jit, 0.0, &Why))
        << getStrategyName(S) << ": " << Why;
  }
}

TEST(NativeJitTest, CacheMissThenMemoryHitThenDiskHit) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;

  auto P = tp::makeFigure2();
  auto LP = makeLoopProgram(*P);

  JitEngine First(Opts);
  JitRunInfo Info;
  First.run(LP, 3, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  EXPECT_TRUE(Info.Compiled);
  EXPECT_FALSE(Info.CacheHitMemory);
  EXPECT_FALSE(Info.CacheHitDisk);
  EXPECT_TRUE(std::filesystem::exists(Info.SoPath));
  EXPECT_EQ(Info.SoPath, First.cachePathFor(LP));

  // Same engine, same kernel: served from memory, not recompiled.
  First.run(LP, 4, &Info);
  EXPECT_TRUE(Info.UsedJit);
  EXPECT_FALSE(Info.Compiled);
  EXPECT_TRUE(Info.CacheHitMemory);

  // A second engine over the same directory: loaded from disk.
  JitEngine Second(Opts);
  Second.run(LP, 5, &Info);
  EXPECT_TRUE(Info.UsedJit);
  EXPECT_FALSE(Info.Compiled);
  EXPECT_TRUE(Info.CacheHitDisk);
}

TEST(NativeJitTest, CorruptCacheEntryIsDiscardedAndRecompiled) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;

  auto P = tp::makeFigure2();
  auto LP = makeLoopProgram(*P);

  {
    JitEngine Engine(Opts);
    JitRunInfo Info;
    Engine.run(LP, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  }

  // Truncate the entry: dlopen must reject it, the engine must discard
  // it, recompile, and still produce the right answer.
  JitEngine Engine(Opts);
  std::string So = Engine.cachePathFor(LP);
  ASSERT_FALSE(So.empty());
  { std::ofstream(So, std::ios::trunc) << "not a shared object"; }

  uint64_t CorruptBefore = getStatisticValue("jit", "NumJitCacheCorrupt");
  JitRunInfo Info;
  RunResult Jit = Engine.run(LP, 3, &Info);
  EXPECT_TRUE(Info.UsedJit) << Info.FallbackReason;
  EXPECT_TRUE(Info.Compiled);
  EXPECT_FALSE(Info.CacheHitDisk);
  EXPECT_EQ(getStatisticValue("jit", "NumJitCacheCorrupt"),
            CorruptBefore + 1);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 3), Jit, 0.0, &Why)) << Why;
}

TEST(NativeJitTest, CompileFailureFallsBackToInterpreter) {
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  Opts.Compiler = "/nonexistent/alf-no-such-compiler";
  JitEngine Engine(Opts);

  auto P = tp::makeFigure2();
  auto LP = makeLoopProgram(*P);

  uint64_t FallbacksBefore = getStatisticValue("jit", "NumJitFallbacks");
  JitRunInfo Info;
  RunResult Res = Engine.run(LP, 11, &Info);
  EXPECT_FALSE(Info.UsedJit);
  EXPECT_NE(Info.FallbackReason.find("not available"), std::string::npos)
      << Info.FallbackReason;
  EXPECT_EQ(getStatisticValue("jit", "NumJitFallbacks"), FallbacksBefore + 1);

  // The fallback result is the interpreter's, exactly.
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 11), Res, 0.0, &Why)) << Why;
}

TEST(NativeJitTest, BadFlagsCountAsCompileFailure) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  Opts.Flags = "-std=c99 -fPIC -shared --alf-definitely-not-a-flag";
  JitEngine Engine(Opts);

  auto P = tp::makeFigure2();
  auto LP = makeLoopProgram(*P);

  uint64_t FailuresBefore =
      getStatisticValue("jit", "NumJitCompileFailures");
  JitRunInfo Info;
  RunResult Res = Engine.run(LP, 13, &Info);
  EXPECT_FALSE(Info.UsedJit);
  EXPECT_TRUE(Info.Compiled);
  EXPECT_NE(Info.FallbackReason.find("compile failed"), std::string::npos)
      << Info.FallbackReason;
  EXPECT_EQ(getStatisticValue("jit", "NumJitCompileFailures"),
            FailuresBefore + 1);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 13), Res, 0.0, &Why)) << Why;
}

TEST(NativeJitTest, SizeBoundEvictsOldestKeepsNewest) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;

  auto PA = tp::makeFigure2();
  auto LPA = makeLoopProgram(*PA, Strategy::Baseline);
  auto PB = tp::makeUserTempPair();
  auto LPB = makeLoopProgram(*PB, Strategy::C2);

  // With no bound, both kernels stay on disk.
  std::string SoA, SoB;
  {
    JitEngine Engine(Opts);
    JitRunInfo Info;
    Engine.run(LPA, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoA = Info.SoPath;
    Engine.run(LPB, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoB = Info.SoPath;
  }
  ASSERT_NE(SoA, SoB);
  EXPECT_TRUE(std::filesystem::exists(SoA));
  EXPECT_TRUE(std::filesystem::exists(SoB));

  // A bound too small for even one kernel still keeps the entry just
  // installed: evicting the kernel we are about to run would thrash.
  Opts.MaxCacheBytes = 1;
  uint64_t EvictBefore = getStatisticValue("jit", "NumJitCacheEvictions");
  JitEngine Bounded(Opts);
  auto PC = tp::makeTomcatvFragment();
  auto LPC = makeLoopProgram(*PC, Strategy::C2F3);
  JitRunInfo Info;
  Bounded.run(LPC, 3, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  ASSERT_TRUE(Info.Compiled);
  EXPECT_TRUE(std::filesystem::exists(Info.SoPath));
  EXPECT_FALSE(std::filesystem::exists(SoA)); // both older entries evicted
  EXPECT_FALSE(std::filesystem::exists(SoB));
  EXPECT_EQ(getStatisticValue("jit", "NumJitCacheEvictions"),
            EvictBefore + 2);
}

TEST(NativeJitTest, DiskHitRefreshesRecencyForEviction) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;

  auto PA = tp::makeFigure2();
  auto LPA = makeLoopProgram(*PA, Strategy::Baseline);
  auto PB = tp::makeUserTempPair();
  auto LPB = makeLoopProgram(*PB, Strategy::C2);

  auto PC = tp::makeTomcatvFragment();
  auto LPC = makeLoopProgram(*PC, Strategy::C2F3);

  // An entry is the .so plus its retained .c source.
  auto pairBytes = [](const std::string &So) {
    uint64_t N = std::filesystem::file_size(So);
    std::filesystem::path C = std::filesystem::path(So).replace_extension(".c");
    std::error_code EC;
    uint64_t CN = std::filesystem::file_size(C, EC);
    return EC ? N : N + CN;
  };

  std::string SoA, SoB, SoC;
  uint64_t BytesA, BytesC;
  {
    JitEngine Engine(Opts);
    JitRunInfo Info;
    Engine.run(LPA, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoA = Info.SoPath;
    BytesA = pairBytes(SoA);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Engine.run(LPB, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoB = Info.SoPath;
    // Compile C once just to learn its on-disk size, then drop it so the
    // bounded engine below re-installs it.
    Engine.run(LPC, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoC = Info.SoPath;
    BytesC = pairBytes(SoC);
    std::filesystem::remove(SoC);
    std::filesystem::remove(
        std::filesystem::path(SoC).replace_extension(".c"));
  }

  // Touch A from a fresh engine (a disk hit): A becomes more recently
  // used than B even though it was installed earlier.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    JitEngine Engine(Opts);
    JitRunInfo Info;
    Engine.run(LPA, 4, &Info);
    ASSERT_TRUE(Info.CacheHitDisk) << Info.FallbackReason;
  }

  // Budget fits A and C but not B as well: installing C must evict
  // exactly one entry, and LRU order says that is B.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Opts.MaxCacheBytes = BytesA + BytesC;
  JitEngine Bounded(Opts);
  JitRunInfo Info;
  Bounded.run(LPC, 3, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  ASSERT_TRUE(Info.Compiled);
  EXPECT_TRUE(std::filesystem::exists(SoA));  // recently used: survives
  EXPECT_FALSE(std::filesystem::exists(SoB)); // LRU: evicted
  EXPECT_TRUE(std::filesystem::exists(Info.SoPath));
}

TEST(NativeJitTest, ExecModeDispatchesToJit) {
  auto P = tp::makeTomcatvFragment();
  auto LP = makeLoopProgram(*P, Strategy::C2F3);
  // Works with or without a compiler: NativeJit degrades to the
  // interpreter, so runWithMode always agrees with exec::run.
  RunResult Seq = run(LP, 21);
  RunResult Jit = runWithMode(LP, 21, ExecMode::NativeJit);
  std::string Why;
  EXPECT_TRUE(resultsMatch(Seq, Jit, 0.0, &Why)) << Why;
}

// The vectorizer's legality check is only trustworthy if a nest it
// should refuse actually takes the scalar fallback. The emitter-side
// fault hook plants a cross-lane carried-dependence verdict in every
// nest of a program that demonstrably vectorizes without it; the engine
// must emit the scalar spelling instead (counted per nest in the
// jit.vectorize fallback statistic), and the faulted kernel must still
// match the interpreter bit-for-bit.
TEST(NativeJitTest, PlantedCarriedDependenceForcesScalarFallback) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  Opts.Vectorize = true;
  JitEngine Engine(Opts);

  auto P = tp::makeUserTempPair();
  auto LP = makeLoopProgram(*P);
  ASSERT_EQ(scalarize::simdToleranceFor(LP), support::Tolerance::Exact);

  // Control: with no fault planted, this program vectorizes.
  JitRunInfo Clean;
  RunResult CleanRes = Engine.run(LP, 29, &Clean);
  ASSERT_TRUE(Clean.UsedJit) << Clean.FallbackReason;
  ASSERT_GT(Clean.VectorizedNests, 0u);

  uint64_t FallbacksBefore =
      getStatisticValue("jit.vectorize", "NumVectorizeFallbacks");
  scalarize::setVectorizeFaultForTest(
      scalarize::VectorizeFault::CarriedInnermost);
  JitRunInfo Info;
  RunResult Faulted = Engine.run(LP, 29, &Info);
  bool Applied = scalarize::vectorizeFaultAppliedForTest();
  scalarize::setVectorizeFaultForTest(scalarize::VectorizeFault::None);

  ASSERT_TRUE(Applied) << "fault hook never reached the legality check";
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  EXPECT_EQ(Info.VectorizedNests, 0u);
  EXPECT_GE(Info.VectorFallbacks, Clean.VectorizedNests);
  EXPECT_GE(getStatisticValue("jit.vectorize", "NumVectorizeFallbacks"),
            FallbacksBefore + Info.VectorFallbacks);

  // The refused nests ran in their scalar spelling; this program is
  // declared Exact, so the faulted run, the vectorized control and the
  // interpreter all agree bit-for-bit.
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 29), Faulted, 0.0, &Why)) << Why;
  EXPECT_TRUE(resultsMatch(CleanRes, Faulted, 0.0, &Why)) << Why;
}

// jit-simd through the mode dispatcher, compiler or not: NativeJitSimd
// degrades to the interpreter exactly like NativeJit.
TEST(NativeJitTest, ExecModeDispatchesToJitSimd) {
  auto P = tp::makeTomcatvFragment();
  auto LP = makeLoopProgram(*P, Strategy::C2F3);
  ASSERT_EQ(scalarize::simdToleranceFor(LP), support::Tolerance::Exact);
  RunResult Seq = run(LP, 23);
  RunResult Simd = runWithMode(LP, 23, ExecMode::NativeJitSimd);
  std::string Why;
  EXPECT_TRUE(resultsMatch(Seq, Simd, 0.0, &Why)) << Why;
}

TEST(NativeJitTest, ScalarizeCheckedReportsSuccess) {
  auto P = tp::makeFigure2();
  ir::normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  std::string Error;
  auto LP = scalarize::scalarizeChecked(G, SR, &Error);
  ASSERT_TRUE(LP.has_value()) << Error;
  EXPECT_TRUE(Error.empty());
}

TEST(NativeJitTest, ContractedLookupMatchesLinearScan) {
  auto P = tp::makeUserTempPair();
  ir::normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  ASSERT_FALSE(SR.Contracted.empty());
  for (const auto *A : SR.Contracted)
    EXPECT_TRUE(SR.isContracted(A));
  for (const ir::ArraySymbol *Sym : G.getProgram().arrays()) {
    bool Linear = std::find(SR.Contracted.begin(), SR.Contracted.end(),
                            Sym) != SR.Contracted.end();
    EXPECT_EQ(SR.isContracted(Sym), Linear) << Sym->getName();
  }
}

// The obs metrics must let a reader tell a cold dispatch (one compile,
// no cache hits) apart from a warm one (zero compiles, one memory hit).
TEST(NativeJitTest, ObsMetricsDistinguishCompileFromCacheHit) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  JitEngine Engine(Opts);

  auto P = tp::makeUserTempPair();
  auto LP = makeLoopProgram(*P);

  obs::ScopedLevel Lvl(obs::ObsLevel::Counters);

  obs::reset();
  JitRunInfo Cold;
  Engine.run(LP, 11, &Cold);
  ASSERT_TRUE(Cold.UsedJit) << Cold.FallbackReason;
  ASSERT_TRUE(Cold.Compiled);
  auto Compile = obs::metricsFor("jit.compile");
  ASSERT_TRUE(Compile.has_value());
  EXPECT_EQ(Compile->Count, 1u);
  EXPECT_GT(Compile->TotalNs, 0u);
  auto Emit = obs::metricsFor("jit.emit");
  ASSERT_TRUE(Emit.has_value());
  EXPECT_EQ(Emit->Count, 1u);
  auto Dispatch = obs::metricsFor("jit.dispatch");
  ASSERT_TRUE(Dispatch.has_value());
  EXPECT_EQ(Dispatch->Count, 1u);
  EXPECT_GT(Dispatch->Bytes, 0u);
  EXPECT_FALSE(obs::metricsFor("jit.cache.memory_hit").has_value());

  // Warm: the same engine serves the prepared kernel from memory. Zero
  // compiles and zero emissions, nonzero cache hits.
  obs::reset();
  JitRunInfo Warm;
  Engine.run(LP, 12, &Warm);
  ASSERT_TRUE(Warm.UsedJit);
  ASSERT_TRUE(Warm.CacheHitMemory);
  EXPECT_FALSE(obs::metricsFor("jit.compile").has_value());
  EXPECT_FALSE(obs::metricsFor("jit.emit").has_value());
  auto Hit = obs::metricsFor("jit.cache.memory_hit");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Count, 1u);
  auto WarmDispatch = obs::metricsFor("jit.dispatch");
  ASSERT_TRUE(WarmDispatch.has_value());
  EXPECT_EQ(WarmDispatch->Count, 1u);
  obs::reset();
}

//===----------------------------------------------------------------------===//
// Prepared kernels: emission, hashing and kernel lookup happen once per
// LoopProgram state per engine; a warm run only marshals and calls.
//===----------------------------------------------------------------------===//

uint64_t emissions() { return getStatisticValue("jit", "NumJitEmissions"); }
uint64_t sourceHashes() {
  return getStatisticValue("jit", "NumJitSourceHashes");
}

/// Engine options for one tier over a fresh cache directory.
JitOptions tierOptions(const TempCacheDir &Cache, bool Vectorize) {
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  Opts.Vectorize = Vectorize;
  return Opts;
}

const char *tierName(bool Vectorize) {
  return Vectorize ? "vector tier" : "scalar tier";
}

TEST(NativeJitTest, WarmRunsEmitAndHashNothing) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  auto P = tp::makeUserTempPair();
  auto LP = makeLoopProgram(*P);
  // Exact: the vector tier must be bit-identical on this program too.
  ASSERT_EQ(scalarize::simdToleranceFor(LP), support::Tolerance::Exact);

  for (bool Vectorize : {false, true}) {
    SCOPED_TRACE(tierName(Vectorize));
    TempCacheDir Cache;
    JitEngine Engine(tierOptions(Cache, Vectorize));
    Storage JitStore = allocateStorage(LP, 31);
    Storage RefStore = allocateStorage(LP, 31);

    JitRunInfo Cold;
    Engine.runOnStorage(LP, JitStore, &Cold);
    exec::runOnStorage(LP, RefStore);
    ASSERT_TRUE(Cold.UsedJit) << Cold.FallbackReason;
    ASSERT_TRUE(Cold.Compiled);

    obs::ScopedLevel Lvl(obs::ObsLevel::Counters);
    obs::reset();
    uint64_t Emitted = emissions(), Hashed = sourceHashes();
    uint64_t Hits = getStatisticValue("jit", "NumJitCacheMemoryHits");
    uint64_t Vectorized =
        getStatisticValue("jit.vectorize", "NumVectorizedNests");
    for (unsigned I = 0; I < 100; ++I) {
      JitRunInfo Warm;
      Engine.runOnStorage(LP, JitStore, &Warm);
      exec::runOnStorage(LP, RefStore);
      ASSERT_TRUE(Warm.UsedJit) << Warm.FallbackReason;
      ASSERT_TRUE(Warm.CacheHitMemory);
      ASSERT_FALSE(Warm.Compiled);
      ASSERT_EQ(Warm.SoPath, Cold.SoPath);
      ASSERT_EQ(Warm.VectorizedNests, Cold.VectorizedNests);
    }
    EXPECT_EQ(emissions(), Emitted);
    EXPECT_EQ(sourceHashes(), Hashed);
    EXPECT_FALSE(
        obs::metricsFor(Vectorize ? "jit.vectorize" : "jit.emit").has_value());
    auto Dispatch = obs::metricsFor("jit.dispatch");
    ASSERT_TRUE(Dispatch.has_value());
    EXPECT_EQ(Dispatch->Count, 100u);
    obs::reset();
    // The per-run statistics keep counting warm runs.
    EXPECT_EQ(getStatisticValue("jit", "NumJitCacheMemoryHits"), Hits + 100);
    EXPECT_EQ(getStatisticValue("jit.vectorize", "NumVectorizedNests"),
              Vectorized + 100 * Cold.VectorizedNests);
    if (Vectorize) {
      EXPECT_GT(Cold.VectorizedNests, 0u);
    }

    std::string Why;
    EXPECT_TRUE(resultsMatch(collectResults(LP, RefStore),
                             collectResults(LP, JitStore), 0.0, &Why))
        << Why;
  }
}

/// Adds 1 to the right-hand side of the last statement of the first nest
/// through nodesMutable(), so the mutated program computes different
/// values.
void bumpFirstNest(lir::LoopProgram &LP) {
  for (auto &Node : LP.nodesMutable())
    if (auto *Nest = dyn_cast<lir::LoopNest>(Node.get())) {
      lir::ScalarStmt &S = Nest->Body.back();
      S.RHS = ir::add(std::move(S.RHS), ir::cst(1.0));
      return;
    }
}

TEST(NativeJitTest, MutatedProgramIsPreparedAgain) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  for (bool Vectorize : {false, true}) {
    SCOPED_TRACE(tierName(Vectorize));
    TempCacheDir Cache;
    JitEngine Engine(tierOptions(Cache, Vectorize));
    auto P = tp::makeUserTempPair();
    auto LP = makeLoopProgram(*P);

    JitRunInfo Info;
    RunResult Before = Engine.run(LP, 37, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;

    // nodesMutable: the new body must be emitted, compiled and run.
    uint64_t Emitted = emissions();
    bumpFirstNest(LP);
    RunResult Bumped = Engine.run(LP, 37, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    EXPECT_TRUE(Info.Compiled);
    EXPECT_EQ(emissions(), Emitted + 1);
    std::string Why;
    EXPECT_FALSE(resultsMatch(Before, Bumped, 0.0, &Why));
    EXPECT_TRUE(resultsMatch(run(LP, 37), Bumped, 0.0, &Why)) << Why;

    // insertNode: a halo exchange is a no-op in one address space, but
    // it changes the program, so it is emitted again.
    auto Comm = std::make_unique<lir::CommOp>();
    Comm->Array = P->arrays().front();
    Comm->Dir = ir::Offset({1, 0});
    LP.insertNode(0, std::move(Comm));
    RunResult Inserted = Engine.run(LP, 37, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    EXPECT_FALSE(Info.CacheHitMemory);
    EXPECT_EQ(emissions(), Emitted + 2);
    EXPECT_TRUE(resultsMatch(run(LP, 37), Inserted, 0.0, &Why)) << Why;

    // Unchanged since: warm again.
    Engine.run(LP, 37, &Info);
    EXPECT_TRUE(Info.CacheHitMemory);
    EXPECT_EQ(emissions(), Emitted + 2);
  }
}

TEST(NativeJitTest, DestroyedProgramNeverLendsItsKernel) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitEngine Engine(tierOptions(Cache, false));
  auto PA = tp::makeFigure2();
  auto PB = tp::makeUserTempPair();
  ir::normalizeProgram(*PA);
  ir::normalizeProgram(*PB);
  ASDG GA = ASDG::build(*PA), GB = ASDG::build(*PB);

  // One slot, so the second program lives at the first one's address.
  std::optional<lir::LoopProgram> Slot;
  Slot.emplace(scalarize::scalarizeWithStrategy(GA, Strategy::C2));
  const lir::LoopProgram *Address = &*Slot;
  uint64_t FirstId = *Slot->identity();
  JitRunInfo Info;
  Engine.run(*Slot, 41, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  Slot.reset();

  Slot.emplace(scalarize::scalarizeWithStrategy(GB, Strategy::C2));
  ASSERT_EQ(&*Slot, Address);
  EXPECT_NE(*Slot->identity(), FirstId);
  uint64_t Emitted = emissions();
  RunResult Res = Engine.run(*Slot, 41, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  EXPECT_FALSE(Info.CacheHitMemory);
  EXPECT_EQ(emissions(), Emitted + 1);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(*Slot, 41), Res, 0.0, &Why)) << Why;
}

// The alfd pattern: many connection threads make the first run of one
// cached program at once. One thread prepares; the rest wait for it.
TEST(NativeJitTest, ConcurrentFirstRunsPrepareOnce) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  constexpr unsigned Threads = 8;
  auto P = tp::makeTomcatvFragment();
  auto LP = makeLoopProgram(*P, Strategy::C2F3);
  ASSERT_EQ(scalarize::simdToleranceFor(LP), support::Tolerance::Exact);
  RunResult Ref = run(LP, 43);

  for (bool Vectorize : {false, true}) {
    SCOPED_TRACE(tierName(Vectorize));
    TempCacheDir Cache;
    JitEngine Engine(tierOptions(Cache, Vectorize));
    uint64_t Emitted = emissions(), Hashed = sourceHashes();
    uint64_t Compiles = getStatisticValue("jit", "NumJitCompiles");

    std::vector<RunResult> Results(Threads);
    std::vector<JitRunInfo> Infos(Threads);
    std::latch Start(Threads);
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back([&, T] {
        Start.arrive_and_wait();
        Results[T] = Engine.run(LP, 43, &Infos[T]);
      });
    for (std::thread &T : Pool)
      T.join();

    EXPECT_EQ(emissions(), Emitted + 1);
    EXPECT_EQ(sourceHashes(), Hashed + 1);
    EXPECT_EQ(getStatisticValue("jit", "NumJitCompiles"), Compiles + 1);
    unsigned Hits = 0;
    for (unsigned T = 0; T < Threads; ++T) {
      ASSERT_TRUE(Infos[T].UsedJit) << Infos[T].FallbackReason;
      Hits += Infos[T].CacheHitMemory;
      std::string Why;
      EXPECT_TRUE(resultsMatch(Ref, Results[T], 0.0, &Why)) << Why;
    }
    EXPECT_EQ(Hits, Threads - 1);
  }
}

//===----------------------------------------------------------------------===//
// One kernel per program shape: the emitted module leaves extents, bounds,
// strides and constants open, so a program that differs from a loaded
// one only in those values runs on the loaded kernel.
//===----------------------------------------------------------------------===//

enum class Shape { Stencil, RollingBuffer, Opaque };

const char *shapeName(Shape S) {
  switch (S) {
  case Shape::Stencil:
    return "stencil";
  case Shape::RollingBuffer:
    return "rolling buffer";
  case Shape::Opaque:
    return "opaque statement";
  }
  return "?";
}

/// A program of one shape at an N x N grid, with its loop program.
struct ShapedProgram {
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<lir::LoopProgram> LP;
};

/// \p S over [1..N, 1..N] with constants \p C1 and \p C2:
///   Stencil:       T := A@(-1,0) * C1 + A;  B := T * C2 - A@(0,1)
///   RollingBuffer: T := A + C1;  B := T@(-1,0) + T * C2, with T
///                  partially contracted to a two-row rolling buffer
///   Opaque:        B := A * C1;  an opaque statement over the grid
///                  reading B and writing A and a scalar
ShapedProgram makeShaped(Shape S, int64_t N, double C1 = 0.25,
                         double C2 = 0.75) {
  using namespace ir;
  ShapedProgram Out;
  Out.P = std::make_unique<Program>("shaped");
  Program &P = *Out.P;
  const Region *R = P.regionFromExtents({N, N});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  switch (S) {
  case Shape::Stencil: {
    ArraySymbol *T = P.makeUserTemp("T", 2);
    P.assign(R, T, add(mul(aref(A, {-1, 0}), cst(C1)), aref(A)));
    P.assign(R, B, sub(mul(aref(T), cst(C2)), aref(A, {0, 1})));
    Out.LP = std::make_unique<lir::LoopProgram>(makeLoopProgram(P));
    break;
  }
  case Shape::RollingBuffer: {
    ArraySymbol *T = P.makeUserTemp("T", 2);
    P.assign(R, T, add(aref(A), cst(C1)));
    P.assign(R, B, add(aref(T, {-1, 0}), mul(aref(T), cst(C2))));
    ASDG G = ASDG::build(P);
    Out.LP = std::make_unique<lir::LoopProgram>(
        scalarize::scalarizeWithPartialContraction(
            G, Strategy::C2, SequentialDims::dims({0})));
    EXPECT_EQ(Out.LP->partialPlans().size(), 1u);
    break;
  }
  case Shape::Opaque: {
    ScalarSymbol *Sum = P.makeScalar("s");
    P.assign(R, B, mul(aref(A), cst(C1)));
    P.opaque("mix", R, {B}, {A}, {}, {Sum}, 1.0, false);
    Out.LP = std::make_unique<lir::LoopProgram>(
        makeLoopProgram(P, Strategy::Baseline));
    break;
  }
  }
  return Out;
}

uint64_t compiles() { return getStatisticValue("jit", "NumJitCompiles"); }

/// Runs \p LP on \p Engine and expects a kernel already loaded: no
/// compiler invocation, and results bit-identical to the interpreter on
/// the same storage.
void expectRunsWithoutCompiling(JitEngine &Engine, const lir::LoopProgram &LP,
                                uint64_t Seed) {
  ASSERT_EQ(scalarize::simdToleranceFor(LP), support::Tolerance::Exact);
  uint64_t Before = compiles();
  Storage JitStore = allocateStorage(LP, Seed);
  Storage RefStore = allocateStorage(LP, Seed);
  JitRunInfo Info;
  Engine.runOnStorage(LP, JitStore, &Info);
  exec::runOnStorage(LP, RefStore);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  EXPECT_FALSE(Info.Compiled);
  EXPECT_EQ(compiles(), Before);
  std::string Why;
  EXPECT_TRUE(resultsMatch(collectResults(LP, RefStore),
                           collectResults(LP, JitStore), 0.0, &Why))
      << Why;
}

/// Runs \p LP on \p Engine, expecting it to compile its kernel.
void expectCompiles(JitEngine &Engine, const lir::LoopProgram &LP,
                    uint64_t Seed) {
  uint64_t Before = compiles();
  JitRunInfo Info;
  RunResult Got = Engine.run(LP, Seed, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  EXPECT_TRUE(Info.Compiled);
  EXPECT_EQ(compiles(), Before + 1);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, Seed), Got, 0.0, &Why)) << Why;
}

// Rows of 8 and 20 are whole numbers of 4-lane vectors; rows of 13, 7
// and 10 leave every remainder length. The vector tier's text records
// whether a row is a whole number of vectors, so there the first row with
// a remainder compiles the structure's one other kernel; every later
// extent, on both tiers, runs on a loaded kernel.
TEST(NativeJitTest, NewExtentSharesKernel) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  for (bool Vectorize : {false, true})
    for (Shape S : {Shape::Stencil, Shape::RollingBuffer, Shape::Opaque}) {
      SCOPED_TRACE(std::string(tierName(Vectorize)) + ", " + shapeName(S));
      TempCacheDir Cache;
      JitEngine Engine(tierOptions(Cache, Vectorize));
      ShapedProgram First = makeShaped(S, 8);
      expectCompiles(Engine, *First.LP, 51);
      for (int64_t N : {13, 20, 7, 10, 64}) {
        SCOPED_TRACE("N = " + std::to_string(N));
        ShapedProgram Next = makeShaped(S, N);
        if (Vectorize && N == 13)
          expectCompiles(Engine, *Next.LP, 51);
        else
          expectRunsWithoutCompiling(Engine, *Next.LP, 51);
      }
    }
}

TEST(NativeJitTest, NewConstantsShareKernel) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  for (bool Vectorize : {false, true})
    for (Shape S : {Shape::Stencil, Shape::RollingBuffer, Shape::Opaque}) {
      SCOPED_TRACE(std::string(tierName(Vectorize)) + ", " + shapeName(S));
      TempCacheDir Cache;
      JitEngine Engine(tierOptions(Cache, Vectorize));
      ShapedProgram First = makeShaped(S, 8, 0.25, 0.75);
      expectCompiles(Engine, *First.LP, 53);
      ShapedProgram Next = makeShaped(S, 8, -3.5, 1e-3);
      expectRunsWithoutCompiling(Engine, *Next.LP, 53);
      // New extent and new constants at once.
      ShapedProgram Both = makeShaped(S, 16, 0.1, 7.0);
      expectRunsWithoutCompiling(Engine, *Both.LP, 53);
    }
}

TEST(NativeJitTest, DifferentStructureStillCompiles) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  for (bool Vectorize : {false, true}) {
    SCOPED_TRACE(tierName(Vectorize));
    TempCacheDir Cache;
    JitEngine Engine(tierOptions(Cache, Vectorize));
    ShapedProgram Stencil = makeShaped(Shape::Stencil, 8);
    expectCompiles(Engine, *Stencil.LP, 55);
    // Another shape at the same extent and constants.
    ShapedProgram Rolling = makeShaped(Shape::RollingBuffer, 8);
    expectCompiles(Engine, *Rolling.LP, 55);
    // The same statements with one offset changed.
    auto P = tp::makeFigure2(8, 8);
    auto Q = tp::makeFigure2(8, 8);
    // S0: A := B@(-1,0) becomes A := B@(-1,1).
    cast<ir::NormalizedStmt>(Q->getStmt(0))
        ->setRHS(ir::aref(Q->arrays()[1], {-1, 1}));
    auto LPP = makeLoopProgram(*P), LPQ = makeLoopProgram(*Q);
    expectCompiles(Engine, LPP, 55);
    expectCompiles(Engine, LPQ, 55);
    // Equal constants share a slot, so making two unequal ones equal
    // changes the text.
    ShapedProgram Equal = makeShaped(Shape::Stencil, 8, 0.5, 0.5);
    expectCompiles(Engine, *Equal.LP, 55);
  }
}

// The alfd pattern for never-seen sizes: threads make the first runs of
// one structure at eight extents at once. One compiles; the rest reuse.
TEST(NativeJitTest, ConcurrentNewExtentsCompileOnce) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  constexpr unsigned Threads = 8;
  for (bool Vectorize : {false, true}) {
    SCOPED_TRACE(tierName(Vectorize));
    std::vector<ShapedProgram> Programs;
    std::vector<RunResult> Refs;
    for (unsigned T = 0; T < Threads; ++T) {
      // Whole vectors throughout: one kernel text on both tiers.
      Programs.push_back(makeShaped(Shape::Stencil, 8 + 4 * T));
      Refs.push_back(run(*Programs.back().LP, 57));
    }
    TempCacheDir Cache;
    JitEngine Engine(tierOptions(Cache, Vectorize));
    uint64_t Before = compiles();
    std::vector<RunResult> Results(Threads);
    std::vector<JitRunInfo> Infos(Threads);
    std::latch Start(Threads);
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back([&, T] {
        Start.arrive_and_wait();
        Results[T] = Engine.run(*Programs[T].LP, 57, &Infos[T]);
      });
    for (std::thread &T : Pool)
      T.join();

    EXPECT_EQ(compiles(), Before + 1);
    unsigned Compiled = 0;
    for (unsigned T = 0; T < Threads; ++T) {
      ASSERT_TRUE(Infos[T].UsedJit) << Infos[T].FallbackReason;
      Compiled += Infos[T].Compiled;
      std::string Why;
      EXPECT_TRUE(resultsMatch(Refs[T], Results[T], 0.0, &Why)) << Why;
    }
    EXPECT_EQ(Compiled, 1u);
  }
}

} // namespace
