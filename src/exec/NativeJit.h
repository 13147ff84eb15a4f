//===- exec/NativeJit.h - Native JIT kernel backend ------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a scalarized LoopProgram as real machine code: the C backend
/// emits a kernel with a fixed `_entry(arrays, scalars, dims, consts)`
/// ABI (scalarize::CModule), the system compiler turns it into a shared
/// object, and the engine dlopens it and runs it against exec::Storage —
/// so the paper's eight strategies are finally measured on hardware
/// instead of the interpreter.
///
/// Kernels are cached twice: in memory (per engine, by content hash) and
/// on disk (shared across processes and runs), keyed by a hash of the
/// emitted source, the compiler flags and the compiler version — so a
/// strategy sweep or the 50-seed stress harness pays each compile once,
/// and a toolchain upgrade invalidates stale objects automatically. The
/// source leaves extents, bounds, strides and constants open (they travel
/// in dims and consts), so every program of one structure shares a
/// kernel: a new problem size or constant set never invokes the compiler.
/// Emission and hashing are paid once per LoopProgram state: each engine
/// keeps the prepared kernel of every live program it has run, so a
/// warm run neither emits nor hashes C (see JitEngine).
///
/// The fallback ladder keeps the backend total: emission failure, missing
/// compiler, compile failure/timeout, dlopen or dlsym failure each
/// degrade to the sequential interpreter with the reason recorded (and
/// counted in the "jit" Statistic group), so callers always get a result.
/// Results are bit-identical to the interpreter: the emitted helpers
/// mirror the interpreter's guarded arithmetic and kernels are compiled
/// with `-ffp-contract=off` and without fast-math.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_EXEC_NATIVEJIT_H
#define ALF_EXEC_NATIVEJIT_H

#include "exec/Interpreter.h"
#include "scalarize/CEmitter.h"
#include "scalarize/LoopIR.h"

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

namespace alf {
namespace exec {

/// Configuration of the native backend.
struct JitOptions {
  /// Kernel-cache directory; shared objects land here as
  /// `alf-<contenthash>.so`. Empty selects $ALF_JIT_CACHE_DIR, falling
  /// back to <tmp>/alf-kernel-cache.
  std::string CacheDir;

  /// Compiler driver invoked for kernels.
  std::string Compiler = "cc";

  /// Optimization/correctness flags. -ffp-contract=off (and the absence
  /// of fast-math) is what keeps native results bit-identical to the
  /// interpreter; changing flags changes the content hash.
  std::string Flags = "-std=c99 -O2 -ffp-contract=off -fPIC -shared";

  /// CPU-seconds budget for one compiler invocation; a runaway compile is
  /// killed and treated as a compile failure. 0 disables the limit.
  unsigned CompileTimeoutSec = 60;

  /// Selects the vectorizing emission mode (scalarize::CEmitOptions):
  /// loop nests the legality check certifies are emitted as explicit SIMD
  /// loops over the innermost FIND-LOOP-STRUCTURE dimension; the rest
  /// keep the scalar spelling. Results stay bit-identical to the
  /// interpreter except where a float + reduction is lane-split
  /// (JitRunInfo::Reassociated; compare with support::Tolerance).
  bool Vectorize = false;

  /// Lanes per vector accumulator/load/store in vectorize mode.
  unsigned VectorWidth = 4;

  /// Upper bound, in bytes, on the on-disk kernel cache (shared objects
  /// plus their paired sources). After each install the oldest entries by
  /// modification time are evicted until the directory fits; the entry
  /// just installed is never evicted, and disk hits refresh an entry's
  /// mtime so hot kernels survive. 0 disables the bound.
  uint64_t MaxCacheBytes = 0;

  /// Enables the sanitizer-tier dynamic oracle (runSanitized): emitted
  /// kernels are additionally compiled as standalone harness executables
  /// with SanitizeFlags and run out of process, so any out-of-bounds
  /// access or uninitialized read the static safety checker should have
  /// caught aborts with a sanitizer report instead of silently corrupting
  /// memory. The dlopen JIT path is unchanged — the ASan runtime does not
  /// survive into a shared object loaded by an unsanitized host, which is
  /// why the oracle always runs as a separate process.
  bool Sanitize = false;

  /// Flags for the sanitized harness build. -O1 keeps shadow checks on
  /// every access; -fno-sanitize-recover=all turns the first finding into
  /// a nonzero exit so the oracle's verdict is just the exit code.
  std::string SanitizeFlags = "-std=c99 -O1 -g -ffp-contract=off "
                              "-fsanitize=address,undefined "
                              "-fno-sanitize-recover=all";
};

/// Outcome of one runSanitized oracle run.
struct SanitizedRunResult {
  bool Ran = false;   ///< The harness compiled and executed.
  bool Clean = false; ///< Ran and exited 0: no sanitizer report.
  int ExitCode = -1;  ///< Harness exit code (sanitizers exit nonzero).
  std::string Output; ///< Emission/compile diagnostics or the report.
};

/// What happened on one JitEngine::run call (for tests and reports).
struct JitRunInfo {
  bool UsedJit = false;        ///< Kernel executed natively.
  bool Compiled = false;       ///< This run invoked the compiler.
  bool CacheHitMemory = false; ///< Served from this engine's loaded kernels.
  bool CacheHitDisk = false;   ///< Loaded a previously compiled .so.
  std::string FallbackReason;  ///< Why the interpreter ran instead ("" = jit).
  std::string SoPath;          ///< Cache entry backing this kernel.

  // Vectorize-mode outcome (JitOptions::Vectorize only).
  unsigned VectorizedNests = 0; ///< Nests emitted as SIMD loops.
  unsigned VectorFallbacks = 0; ///< Nests the legality check refused.
  bool Reassociated = false;    ///< A float + fold was lane-split.
};

/// A JIT compilation engine: owns the loaded kernels of one process and
/// the handle bookkeeping. Thread-safe; one engine can serve every
/// strategy of a sweep so repeated shapes hit the in-memory cache.
///
/// Thread-safety contract (the serving layer dispatches many worker
/// threads into one engine):
///
///  - run/runOnStorage/kernelFor may be called concurrently from any
///    number of threads. Kernel lookup and installation are guarded by
///    the engine mutex; compilation, disk-cache I/O and dlopen run
///    UNLOCKED so a ~300 ms compile of one kernel never blocks warm
///    dispatch of another.
///  - Compiles are single-flight per content hash: the first thread to
///    miss marks the hash in-flight and compiles; later threads needing
///    the same hash block on a condition variable and are handed the
///    installed kernel — an N-thread thundering herd of one program
///    performs exactly one compiler invocation (asserted in debug
///    builds: installation requires the hash to be absent from the
///    loaded-kernel map). Failed compiles are not negative-cached: the
///    next waiter retries, preserving the retry behavior single-threaded
///    callers always had.
///  - Installed LoadedKernel entries are never erased before the engine
///    is destroyed, and std::map never moves mapped values, so the
///    pointer kernelFor returns stays valid (and Entry is immutable) for
///    the engine's lifetime; dispatch through it needs no lock.
///  - Preparation (emit the C module, hash it, find or build the kernel,
///    record the argument order) happens once per LoopProgram state:
///    the result is memoized under LoopProgram::identity() plus the
///    emission test hook, so a warm run is a lookup, argument
///    marshalling and the call. Preparation is single-flight per
///    identity the same way compiles are per content hash: N threads
///    making the first run of one program emit it once. A memo entry is
///    immutable and shared, so a run keeps using its entry even if
///    another thread replaces it; entries whose program was mutated or
///    destroyed are dropped at the next preparation, so the memo holds
///    no more than the programs still alive.
///  - The disk-cache LRU bound (MaxCacheBytes) may evict an entry that a
///    concurrent thread or process is between installing and dlopening.
///    Eviction deletes oldest-mtime first and a just-installed entry is
///    mtime-newest (disk hits refresh mtime), so this is rare; when it
///    does happen the loser re-compiles or falls back to the
///    interpreter — never a wrong result. An already-dlopened kernel is
///    unaffected by deletion of its backing file (the mapping survives
///    unlink).
class JitEngine {
public:
  explicit JitEngine(JitOptions Opts = JitOptions());
  ~JitEngine();

  JitEngine(const JitEngine &) = delete;
  JitEngine &operator=(const JitEngine &) = delete;

  /// Runs \p LP natively on inputs seeded by \p Seed, falling back to the
  /// sequential interpreter when any step of the JIT ladder fails. Same
  /// observable semantics as exec::run on the same seed.
  RunResult run(const lir::LoopProgram &LP, uint64_t Seed,
                JitRunInfo *Info = nullptr);

  /// Executes \p LP natively against caller-provided storage, in place
  /// (the JIT counterpart of exec::runOnStorage): the kernel's array
  /// arguments are bound to \p Store's buffers and its scalar slots are
  /// copied in and back out, so the runtime engine can re-run one cached
  /// kernel against the live buffers of each flush. Falls back to the
  /// interpreter on the same storage when the JIT ladder fails.
  void runOnStorage(const lir::LoopProgram &LP, Storage &Store,
                    JitRunInfo *Info = nullptr);

  /// The on-disk cache entry \p LP's kernel maps to under this engine's
  /// options (exists only after a successful compile). Tests use this to
  /// corrupt entries deliberately.
  std::string cachePathFor(const lir::LoopProgram &LP);

  /// Resolved cache directory.
  const std::string &cacheDir() const { return Opts.CacheDir; }

  /// True when \p Opts.Compiler can run at all (probed once per call).
  static bool compilerAvailable(const JitOptions &Opts = JitOptions());

private:
  using KernelEntry = void (*)(double **arrays, double *scalars,
                               const long *dims, const double *consts);

  struct LoadedKernel {
    void *Handle = nullptr;
    KernelEntry Entry = nullptr;
  };

  /// The prepared form of one LoopProgram state: what a warm run needs.
  struct PreparedKernel {
    std::weak_ptr<const uint64_t> Program; ///< LoopProgram::identity()
    scalarize::VectorizeFault Fault =      ///< emission hook it was built under
        scalarize::VectorizeFault::None;
    scalarize::CModule Module; ///< Source dropped once hashed; keeps this
                               ///< program's dims and consts slots
    LoadedKernel *Kernel = nullptr;        ///< null: WhyNot says why
    std::string SoPath;
  };

  /// Returns \p LP's prepared kernel, from the memo when this state of
  /// \p LP was prepared before (a memory hit), else by emitting and
  /// calling kernelFor. Kernel is null, with \p WhyNot set, when a rung
  /// failed; failures are not memoized, so the next run retries.
  std::shared_ptr<const PreparedKernel>
  prepare(const lir::LoopProgram &LP, JitRunInfo &Info, std::string &WhyNot);

  /// Emits \p LP under this engine's emission options.
  scalarize::CModule emit(const lir::LoopProgram &LP) const;

  /// Returns the entry point for \p Module's kernel, compiling and/or
  /// loading as needed; null with \p WhyNot set when every rung failed.
  /// Single-flight per content hash (see the class comment).
  LoadedKernel *kernelFor(const scalarize::CModule &Module, JitRunInfo &Info,
                          std::string &WhyNot);

  /// Disk probe + compile + dlopen, run without the engine lock while
  /// the content hash is claimed in InFlight.
  void compileAndLoad(const scalarize::CModule &Module, JitRunInfo &Info,
                      LoadedKernel &Out, std::string &WhyNot);

  /// The compiler's `--version` line, probed once under the engine mutex.
  std::string compilerVersion();

  JitOptions Opts;
  std::mutex Mutex;
  std::map<uint64_t, LoadedKernel> Kernels; // by content hash
  std::set<uint64_t> InFlight;              // hashes being compiled now
  std::condition_variable InFlightDone;     // signaled per finished compile
                                            // or preparation
  // Prepared kernels by LoopProgram::identity() value, and the identities
  // being prepared now.
  std::unordered_map<uint64_t, std::shared_ptr<const PreparedKernel>> Prepared;
  std::set<uint64_t> Preparing;
  std::string CompilerVersion;
  bool CompilerVersionProbed = false;
};

/// Runs \p LP through a process-wide shared engine with default options
/// (honoring $ALF_JIT_CACHE_DIR). This is what ExecMode::NativeJit
/// dispatches to.
RunResult runNativeJit(const lir::LoopProgram &LP, uint64_t Seed,
                       JitRunInfo *Info = nullptr);

/// Like runNativeJit, but through a second process-wide shared engine
/// with the vectorizing emission mode on (JitOptions::Vectorize). This is
/// what ExecMode::NativeJitSimd dispatches to. The two shared engines
/// never collide in the kernel cache: vectorized modules differ in source
/// and flags, so their content hashes differ.
RunResult runNativeJitSimd(const lir::LoopProgram &LP, uint64_t Seed,
                           JitRunInfo *Info = nullptr);

/// The sanitizer-tier dynamic oracle: emits \p LP's kernel together with
/// its self-seeding main() harness (scalarize::emitCWithHarnessChecked,
/// seeded with \p Seed), compiles it as a standalone executable with
/// \p Opts.SanitizeFlags, and runs it out of process. Clean means the
/// harness exited 0 — every load and store passed the ASan/UBSan checks
/// on real hardware — so the StressSweepTest sweep can assert that
/// programs the static safety checker certifies also run sanitizer-clean.
/// Requires \p Opts.Sanitize; returns Ran=false (with the reason in
/// Output) when the oracle is disabled or any build step fails.
SanitizedRunResult runSanitized(const lir::LoopProgram &LP, uint64_t Seed,
                                const JitOptions &Opts = JitOptions());

} // namespace exec
} // namespace alf

#endif // ALF_EXEC_NATIVEJIT_H
