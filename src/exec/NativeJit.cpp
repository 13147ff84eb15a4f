//===- exec/NativeJit.cpp - Native JIT kernel backend -----------------------===//

#include "exec/NativeJit.h"

#include "exec/Eval.h"
#include "obs/Obs.h"
#include "scalarize/CEmitter.h"
#include "support/Process.h"
#include "support/Statistic.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;

namespace {

ALF_STATISTIC(NumJitRuns, "jit", "Executions dispatched to the native backend");
ALF_STATISTIC(NumJitCompiles, "jit", "Kernel compiler invocations");
ALF_STATISTIC(NumJitCompileFailures, "jit",
              "Compiler invocations that failed or timed out");
ALF_STATISTIC(NumJitCacheMemoryHits, "jit",
              "Kernels served from the in-memory cache");
ALF_STATISTIC(NumJitEmissions, "jit", "Kernel C modules emitted");
ALF_STATISTIC(NumJitSourceHashes, "jit", "Kernel sources content-hashed");
ALF_STATISTIC(NumJitCacheDiskHits, "jit",
              "Kernels loaded from the on-disk cache");
ALF_STATISTIC(NumJitCacheCorrupt, "jit",
              "Corrupt on-disk cache entries discarded");
ALF_STATISTIC(NumJitFallbacks, "jit",
              "Runs that fell back to the sequential interpreter");
ALF_STATISTIC(NumJitCacheEvictions, "jit",
              "On-disk cache entries evicted by the size bound");
ALF_STATISTIC(NumSanitizedRuns, "jit",
              "Out-of-process sanitizer oracle executions");
ALF_STATISTIC(NumSanitizedReports, "jit",
              "Sanitizer oracle runs that reported a violation");
ALF_STATISTIC(NumVectorizedNests, "jit.vectorize",
              "Loop nests emitted as SIMD loops");
ALF_STATISTIC(NumVectorizeFallbacks, "jit.vectorize",
              "Loop nests the SIMD legality check refused");
ALF_STATISTIC(NumVectorizedRuns, "jit.vectorize",
              "Vectorize-mode runs with at least one SIMD nest");

/// The kernel function name inside every emitted module.
constexpr const char *KernelName = "alf_kernel";

std::string defaultCacheDir() {
  if (const char *Env = std::getenv("ALF_JIT_CACHE_DIR"))
    if (*Env)
      return Env;
  std::error_code EC;
  std::filesystem::path Tmp = std::filesystem::temp_directory_path(EC);
  if (EC)
    Tmp = "/tmp";
  return (Tmp / "alf-kernel-cache").string();
}

/// Content hash of one kernel: emitted source + compile command +
/// compiler version. Any of the three changing yields a new cache entry.
uint64_t contentHash(const std::string &Source, const JitOptions &Opts,
                     const std::string &CompilerVersion) {
  ++NumJitSourceHashes;
  return hashName('\x1f' + Opts.Compiler + ' ' + Opts.Flags + '\x1f' +
                      CompilerVersion,
                  hashName(Source));
}

std::string soPathFor(const std::string &CacheDir, uint64_t Hash) {
  return CacheDir + "/" +
         formatString("alf-%016llx.so",
                      static_cast<unsigned long long>(Hash));
}

uint64_t fileSizeOrZero(const std::filesystem::path &P) {
  std::error_code EC;
  uint64_t Size = std::filesystem::file_size(P, EC);
  return EC ? 0 : Size;
}

/// Shrinks the cache directory to \p MaxBytes by deleting whole entries
/// (.so plus paired .c) oldest-mtime first, never touching \p KeepSo.
/// Eviction only ever removes alf-*.so entries, so foreign files in a
/// shared temp directory are counted but left alone.
void evictCacheOverage(const std::string &CacheDir, uint64_t MaxBytes,
                       const std::string &KeepSo) {
  namespace fs = std::filesystem;
  struct Entry {
    fs::path So;
    fs::file_time_type MTime;
    uint64_t Bytes;
  };
  std::error_code EC;
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  for (const auto &DirEnt : fs::directory_iterator(CacheDir, EC)) {
    if (!DirEnt.is_regular_file(EC))
      continue;
    fs::path P = DirEnt.path();
    if (P.filename().string().rfind("alf-", 0) != 0)
      continue;
    uint64_t Size = fileSizeOrZero(P);
    Total += Size;
    if (P.extension() != ".so")
      continue;
    Entry E;
    E.So = P;
    E.MTime = fs::last_write_time(P, EC);
    fs::path Src = P;
    Src.replace_extension(".c");
    E.Bytes = Size + fileSizeOrZero(Src);
    Entries.push_back(std::move(E));
  }
  if (Total <= MaxBytes)
    return;
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.MTime < B.MTime; });
  for (const Entry &E : Entries) {
    if (Total <= MaxBytes)
      break;
    if (E.So.string() == KeepSo)
      continue;
    fs::path Src = E.So;
    Src.replace_extension(".c");
    fs::remove(E.So, EC);
    fs::remove(Src, EC);
    Total = Total > E.Bytes ? Total - E.Bytes : 0;
    ++NumJitCacheEvictions;
  }
}

} // namespace

JitEngine::JitEngine(JitOptions InOpts) : Opts(std::move(InOpts)) {
  if (Opts.CacheDir.empty())
    Opts.CacheDir = defaultCacheDir();
  // The vectorizing tier targets the host ISA: a JIT kernel runs on the
  // machine that compiled it, and without -march=native the compiler
  // lowers the emitted generic-vector ops to the portable SSE2 baseline
  // — scalarizing 4-lane compares and selects through memory, which is
  // slower than the scalar tier it is supposed to beat. -ffp-contract=off
  // still governs, and -O2 never reassociates FP, so the tier's only
  // numeric divergence remains the declared lane-fold reassociation.
  // (The scalar tier keeps the pinned portable flags; both flag strings
  // feed the content hash, so the tiers never collide in the cache.)
  // Vector types wider than the target's native registers also change
  // the ABI of the by-value lane helpers; they are module-internal
  // (static), so the -Wpsabi note is noise — silence it without
  // touching the correctness flags.
  if (Opts.Vectorize)
    Opts.Flags += " -march=native -Wno-psabi";
}

JitEngine::~JitEngine() {
  for (auto &[Hash, Kernel] : Kernels)
    if (Kernel.Handle)
      dlclose(Kernel.Handle);
}

bool JitEngine::compilerAvailable(const JitOptions &Opts) {
  return runCommand(Opts.Compiler + " --version > /dev/null").ok();
}

std::string JitEngine::compilerVersion() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!CompilerVersionProbed) {
    CompilerVersion = commandFirstLine(Opts.Compiler + " --version");
    CompilerVersionProbed = true;
  }
  return CompilerVersion;
}

scalarize::CModule JitEngine::emit(const LoopProgram &LP) const {
  ++NumJitEmissions;
  obs::Span S(Opts.Vectorize ? "jit.vectorize" : "jit.emit");
  scalarize::CEmitOptions EmitOpts;
  EmitOpts.Vectorize = Opts.Vectorize;
  EmitOpts.VectorWidth = Opts.VectorWidth;
  return scalarize::emitCModule(LP, KernelName, EmitOpts);
}

std::shared_ptr<const JitEngine::PreparedKernel>
JitEngine::prepare(const LoopProgram &LP, JitRunInfo &Info,
                   std::string &WhyNot) {
  // The emission test hook is part of the key: a planted fault changes
  // the module emitted for the same program state.
  const std::shared_ptr<const uint64_t> &Id = LP.identity();
  uint64_t Key = Id ? *Id : 0; // 0: a moved-from program, never memoized
  scalarize::VectorizeFault Fault = scalarize::vectorizeFaultForTest();
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      auto It = Prepared.find(Key);
      if (It != Prepared.end() && It->second->Fault == Fault) {
        Info.CacheHitMemory = true;
        Info.SoPath = It->second->SoPath;
        ++NumJitCacheMemoryHits;
        obs::instant("jit.cache.memory_hit");
        return It->second;
      }
      if (Preparing.insert(Key).second)
        break;
      InFlightDone.wait(Lock);
    }
  }

  // The identity is claimed until this returns: the guard releases it
  // and wakes the waiters, whether or not a kernel came out.
  struct Claim {
    JitEngine &E;
    uint64_t Key;
    Claim(JitEngine &E, uint64_t Key) : E(E), Key(Key) {}
    Claim(const Claim &) = delete;
    Claim &operator=(const Claim &) = delete;
    ~Claim() {
      std::lock_guard<std::mutex> Lock(E.Mutex);
      E.Preparing.erase(Key);
      E.InFlightDone.notify_all();
    }
  } Held(*this, Key);

  auto K = std::make_shared<PreparedKernel>();
  K->Program = Id;
  K->Fault = Fault;
  K->Module = emit(LP);
  if (!K->Module.ok())
    WhyNot = "emission failed: " + K->Module.Error;
  else
    K->Kernel = kernelFor(K->Module, Info, WhyNot);
  K->SoPath = Info.SoPath;
  K->Module.Source = std::string();
  if (K->Kernel && Id) {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (auto It = Prepared.begin(); It != Prepared.end();)
      It = It->second->Program.expired() ? Prepared.erase(It) : std::next(It);
    Prepared[Key] = K;
  }
  return K;
}

JitEngine::LoadedKernel *JitEngine::kernelFor(const scalarize::CModule &Module,
                                              JitRunInfo &Info,
                                              std::string &WhyNot) {
  std::string Version = compilerVersion();
  if (Version.empty()) {
    WhyNot = "compiler '" + Opts.Compiler + "' is not available";
    return nullptr;
  }
  uint64_t Hash = contentHash(Module.Source, Opts, Version);
  Info.SoPath = soPathFor(Opts.CacheDir, Hash);
  {
    std::unique_lock<std::mutex> Lock(Mutex);

    // Single-flight admission: either the kernel is loaded (hit), or
    // someone else is compiling it (wait, then re-check), or this thread
    // claims the hash and compiles it below, unlocked. A waiter whose
    // winner failed falls out of the wait loop and becomes the next
    // compiler — failures are not negative-cached.
    for (;;) {
      auto It = Kernels.find(Hash);
      if (It != Kernels.end()) {
        Info.CacheHitMemory = true;
        ++NumJitCacheMemoryHits;
        obs::instant("jit.cache.memory_hit");
        return &It->second;
      }
      if (!InFlight.count(Hash)) {
        InFlight.insert(Hash);
        break;
      }
      InFlightDone.wait(Lock);
    }
  }

  // From here the hash is claimed: every exit must release it and wake
  // the waiters, whether a kernel was installed or not.
  LoadedKernel Compiled;
  std::string FailReason;
  compileAndLoad(Module, Info, Compiled, FailReason);

  std::lock_guard<std::mutex> Lock(Mutex);
  InFlight.erase(Hash);
  InFlightDone.notify_all();
  if (!Compiled.Entry) {
    WhyNot = std::move(FailReason);
    return nullptr;
  }
  assert(!Kernels.count(Hash) &&
         "single-flight violated: kernel compiled twice");
  return &Kernels.emplace(Hash, Compiled).first->second;
}

/// The unlocked slice of kernelFor: disk-cache probe, compile, install,
/// dlopen. Runs with the content hash claimed in InFlight, so no other
/// thread of this engine works on the same entry; cross-process races on
/// the shared directory are handled by the write-temp-then-rename
/// install. On success \p Out holds an open handle and entry pointer; on
/// failure \p WhyNot explains the rung that broke.
void JitEngine::compileAndLoad(const scalarize::CModule &Module,
                               JitRunInfo &Info, LoadedKernel &Out,
                               std::string &WhyNot) {
  auto LoadEntry = [&](void *Handle) -> bool {
    void *Sym = dlsym(Handle, Module.EntryName.c_str());
    if (!Sym)
      return false;
    Out.Handle = Handle;
    Out.Entry = reinterpret_cast<KernelEntry>(Sym);
    return true;
  };

  std::error_code EC;
  // Warm path: a previous process (or CI run) compiled this kernel.
  if (std::filesystem::exists(Info.SoPath, EC)) {
    void *Handle = dlopen(Info.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (Handle) {
      if (LoadEntry(Handle)) {
        Info.CacheHitDisk = true;
        ++NumJitCacheDiskHits;
        obs::instant("jit.cache.disk_hit");
        // Refresh the entry's age so the LRU eviction bound keeps hot
        // kernels and drops cold ones.
        std::filesystem::last_write_time(
            Info.SoPath, std::filesystem::file_time_type::clock::now(), EC);
        return;
      }
      dlclose(Handle);
    }
    // Unloadable or missing the entry symbol: a corrupt or stale entry.
    // Discard it and recompile below.
    ++NumJitCacheCorrupt;
    std::filesystem::remove(Info.SoPath, EC);
  }

  // Cold path: write the source next to the object and compile into a
  // temp file, renaming only on success so concurrent processes never see
  // a half-written entry.
  std::filesystem::create_directories(Opts.CacheDir, EC);
  std::string SrcPath =
      Info.SoPath.substr(0, Info.SoPath.size() - 3) + ".c";
  {
    std::ofstream Src(SrcPath);
    Src << Module.Source;
    if (!Src) {
      WhyNot = "cannot write kernel source to " + SrcPath;
      return;
    }
  }
  std::string TmpSo = Info.SoPath + formatString(".tmp%d", getpid());
  std::string Cmd = Opts.Compiler + " " + Opts.Flags + " -o " + TmpSo + " " +
                    SrcPath + " -lm";
  Info.Compiled = true;
  ++NumJitCompiles;
  CommandResult CR = [&] {
    obs::Span S("jit.compile");
    return runCommand(Cmd, Opts.CompileTimeoutSec);
  }();
  if (!CR.ok()) {
    ++NumJitCompileFailures;
    std::filesystem::remove(TmpSo, EC);
    WhyNot = CR.TimedOut
                 ? formatString("compiler exceeded the %u s CPU budget",
                                Opts.CompileTimeoutSec)
                 : "compile failed: " +
                       (CR.Output.empty() ? "exit " +
                                                std::to_string(CR.ExitCode)
                                          : CR.Output);
    return;
  }
  std::filesystem::rename(TmpSo, Info.SoPath, EC);
  if (EC) {
    std::filesystem::remove(TmpSo, EC);
    WhyNot = "cannot install compiled kernel into the cache";
    return;
  }
  if (Opts.MaxCacheBytes)
    evictCacheOverage(Opts.CacheDir, Opts.MaxCacheBytes, Info.SoPath);

  void *Handle = dlopen(Info.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *Err = dlerror();
    WhyNot = std::string("dlopen failed: ") + (Err ? Err : "unknown error");
    return;
  }
  if (LoadEntry(Handle))
    return;
  dlclose(Handle);
  WhyNot = "entry symbol '" + Module.EntryName + "' missing from kernel";
}

void JitEngine::runOnStorage(const LoopProgram &LP, Storage &Store,
                             JitRunInfo *OutInfo) {
  ++NumJitRuns;
  JitRunInfo Info;
  std::string WhyNot;
  std::shared_ptr<const PreparedKernel> Prep = prepare(LP, Info, WhyNot);
  const scalarize::CModule &Module = Prep->Module;
  if (Opts.Vectorize && Module.ok()) {
    Info.VectorizedNests = Module.NumVectorizedNests;
    Info.VectorFallbacks = Module.NumVectorFallbacks;
    Info.Reassociated = Module.Reassociated;
    NumVectorizedNests += Module.NumVectorizedNests;
    NumVectorizeFallbacks += Module.NumVectorFallbacks;
    if (Module.NumVectorizedNests)
      ++NumVectorizedRuns;
    for (unsigned I = 0; I < Module.NumVectorFallbacks; ++I)
      obs::instant("jit.vectorize.fallback");
  }
  LoadedKernel *Kernel = Prep->Kernel;

  // Marshal the caller-owned buffers in the module's argument order. Each
  // layout class's slots come from the first buffer bound to it, and the
  // class's other buffers must have the same bounds.
  std::vector<double *> Arrays;
  std::vector<long> Dims;
  std::vector<const ArrayBuffer *> ClassBuf;
  if (Kernel) {
    Arrays.reserve(Module.Arrays.size());
    for (size_t I = 0; I < Module.Arrays.size(); ++I) {
      const ArraySymbol *A = Module.Arrays[I];
      ArrayBuffer *Buf = Store.buffer(A);
      unsigned Class = Module.ArrayLayouts[I];
      if (!Buf || Buf->bounds().rank() != A->getRank() ||
          (Class < ClassBuf.size() &&
           !(Buf->bounds() == ClassBuf[Class]->bounds()))) {
        WhyNot = "storage of array '" + A->getName() +
                 "' does not have the layout the kernel expects";
        Kernel = nullptr;
        break;
      }
      Arrays.push_back(Buf->data());
      if (Class < ClassBuf.size())
        continue;
      ClassBuf.push_back(Buf);
      long Origin = 0;
      for (unsigned D = 0; D < A->getRank(); ++D) {
        Origin += Buf->bounds().lo(D) * Buf->strides()[D];
        if (D + 1 < A->getRank())
          Dims.push_back(Buf->strides()[D]);
      }
      Dims.push_back(Origin);
    }
  }
  Dims.insert(Dims.end(), Module.Dims.begin(), Module.Dims.end());
  if (!Kernel) {
    ++NumJitFallbacks;
    Info.FallbackReason = WhyNot;
    if (OutInfo)
      *OutInfo = Info;
    exec::runOnStorage(LP, Store);
    return;
  }

  std::vector<double> Scalars;
  Scalars.reserve(Module.Scalars.size());
  for (const ScalarSymbol *S : Module.Scalars)
    Scalars.push_back(Store.getScalar(S));

  {
    obs::Span S("jit.dispatch");
    if (S.active())
      S.setBytes(Store.totalBytes());
    Kernel->Entry(Arrays.data(), Scalars.data(), Dims.data(),
                  Module.Consts.data());
  }

  for (size_t I = 0; I < Module.Scalars.size(); ++I)
    Store.setScalar(Module.Scalars[I], Scalars[I]);

  Info.UsedJit = true;
  if (OutInfo)
    *OutInfo = Info;
}

RunResult JitEngine::run(const LoopProgram &LP, uint64_t Seed,
                         JitRunInfo *OutInfo) {
  Storage Store = allocateStorage(LP, Seed);
  runOnStorage(LP, Store, OutInfo);
  return collectResults(LP, Store);
}

std::string JitEngine::cachePathFor(const LoopProgram &LP) {
  scalarize::CModule Module = emit(LP);
  if (!Module.ok())
    return "";
  return soPathFor(Opts.CacheDir,
                   contentHash(Module.Source, Opts, compilerVersion()));
}

RunResult exec::runNativeJit(const LoopProgram &LP, uint64_t Seed,
                             JitRunInfo *Info) {
  static JitEngine SharedEngine;
  return SharedEngine.run(LP, Seed, Info);
}

RunResult exec::runNativeJitSimd(const LoopProgram &LP, uint64_t Seed,
                                 JitRunInfo *Info) {
  static JitEngine SharedEngine([] {
    JitOptions Opts;
    Opts.Vectorize = true;
    return Opts;
  }());
  return SharedEngine.run(LP, Seed, Info);
}

SanitizedRunResult exec::runSanitized(const LoopProgram &LP, uint64_t Seed,
                                      const JitOptions &InOpts) {
  SanitizedRunResult R;
  if (!InOpts.Sanitize) {
    R.Output = "sanitizer oracle disabled (JitOptions::Sanitize is off)";
    return R;
  }
  JitOptions Opts = InOpts;
  if (Opts.CacheDir.empty())
    Opts.CacheDir = defaultCacheDir();

  scalarize::CEmitOptions EmitOpts;
  EmitOpts.Vectorize = Opts.Vectorize;
  EmitOpts.VectorWidth = Opts.VectorWidth;
  if (Opts.Vectorize)
    Opts.SanitizeFlags += " -march=native -Wno-psabi";
  scalarize::CEmitResult Src =
      scalarize::emitCWithHarnessChecked(LP, KernelName, Seed, EmitOpts);
  if (!Src.ok()) {
    R.Output = "emission failed: " + Src.Error;
    return R;
  }

  // The harness is pid-suffixed and deleted after the run: a sanitized
  // executable is an oracle verdict, not a reusable kernel, so it never
  // enters the shared .so cache.
  std::error_code EC;
  std::filesystem::create_directories(Opts.CacheDir, EC);
  uint64_t Hash = hashName(Src.Source + '\x1f' + Opts.Compiler + ' ' +
                           Opts.SanitizeFlags);
  std::string Base =
      Opts.CacheDir + "/" +
      formatString("alf-san-%016llx-%d",
                   static_cast<unsigned long long>(Hash), getpid());
  std::string SrcPath = Base + ".c";
  std::string ExePath = Base + ".bin";
  {
    std::ofstream Out(SrcPath);
    Out << Src.Source;
    if (!Out) {
      R.Output = "cannot write harness source to " + SrcPath;
      return R;
    }
  }
  std::string Cmd = Opts.Compiler + " " + Opts.SanitizeFlags + " -o " +
                    ExePath + " " + SrcPath + " -lm";
  CommandResult Compile = [&] {
    obs::Span S("jit.sanitize.compile");
    return runCommand(Cmd, Opts.CompileTimeoutSec);
  }();
  if (!Compile.ok()) {
    std::filesystem::remove(SrcPath, EC);
    std::filesystem::remove(ExePath, EC);
    R.Output = Compile.TimedOut
                   ? formatString("sanitized compile exceeded the %u s "
                                  "CPU budget",
                                  Opts.CompileTimeoutSec)
                   : "sanitized compile failed: " + Compile.Output;
    return R;
  }

  ++NumSanitizedRuns;
  CommandResult Run = [&] {
    obs::Span S("jit.sanitize.run");
    return runCommand(ExePath, Opts.CompileTimeoutSec);
  }();
  std::filesystem::remove(SrcPath, EC);
  std::filesystem::remove(ExePath, EC);

  R.Ran = true;
  R.ExitCode = Run.ExitCode;
  R.Output = Run.Output;
  R.Clean = Run.ok() && !Run.TimedOut;
  if (!R.Clean)
    ++NumSanitizedReports;
  return R;
}
