//===- perfbench/Harness.h - Shared pieces of the repository benchmark ----===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: run options, sample statistics, the
/// span recorder of the traced run, the result report, the host block
/// and the hermetic process setup. Spans are recorded only here, around
/// the public library calls the workloads make; nothing under src/ is
/// instrumented for the benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_PERFBENCH_HARNESS_H
#define ALF_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

inline double msSince(Clock::time_point A) {
  return msBetween(A, Clock::now());
}

/// Command line of one benchmark process.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Private scratch directory of this process (JIT kernel cache, the
  /// compiler's temporaries, the server socket); removed at exit.
  std::string WorkDir;
  /// Where the traced run writes its spans (empty: not written).
  std::string TraceFile;
};

/// Latency samples of one class of operation, in milliseconds.
class Samples {
public:
  void add(double Ms) { V.push_back(Ms); }
  void append(const Samples &O) { V.insert(V.end(), O.V.begin(), O.V.end()); }
  size_t size() const { return V.size(); }
  double sum() const;
  /// Percentile \p P (0..100) by linear interpolation between the
  /// closest ranks, as numpy's default does; the median is P = 50.
  double percentile(double P) const;
  double median() const { return percentile(50); }

private:
  std::vector<double> V;
};

/// The highest of the percentiles 50, 90, 99 and 99.9 that has at least
/// ten samples beyond it among \p N samples (50 when none has).
double tailPercentile(size_t N);

/// Geometric mean of positive values (0 for an empty list).
double geomean(const std::vector<double> &V);

//===----------------------------------------------------------------------===//
// Traced run: spans recorded in memory, written out at exit.
//===----------------------------------------------------------------------===//

/// One closed span: a timed public call (or the operation enclosing
/// several). Spans of one operation share Op; Parent indexes the
/// enclosing span of the same thread, -1 for a root.
struct SpanRecord {
  const char *Name;
  uint64_t Op;
  int64_t Parent;
  unsigned Thread;
  uint64_t StartNs;
  uint64_t EndNs;
};

/// Span recorder of one thread. A disabled recorder costs one branch per
/// span.
class Tracer {
public:
  Tracer(bool Enabled, unsigned Thread) : Enabled(Enabled), Thread(Thread) {}

  bool enabled() const { return Enabled; }

  /// Starts a new operation; spans opened until the next call share its
  /// id. Ids are unique across threads.
  void beginOp();

  size_t open(const char *Name);
  void close(size_t Index);

  const std::vector<SpanRecord> &spans() const { return Spans; }

private:
  bool Enabled;
  unsigned Thread;
  uint64_t Op = 0;
  std::vector<SpanRecord> Spans;
  std::vector<size_t> Stack;
};

/// RAII span on \p T.
class Span {
public:
  Span(Tracer &T, const char *Name) : T(T) {
    if (T.enabled())
      Index = T.open(Name);
  }
  ~Span() {
    if (T.enabled())
      T.close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  size_t Index = 0;
};

/// Per span name: count, total duration and total self time (duration
/// minus the part of it covered by child spans), in milliseconds.
struct SpanSummary {
  uint64_t Count = 0;
  double TotalMs = 0;
  double SelfMs = 0;
};
std::map<std::string, SpanSummary>
summarizeSpans(const std::vector<const Tracer *> &Tracers);

/// Writes every span of \p Tracers as Chrome trace_event JSON (one "X"
/// event per span, with op id, parent and self time in its args).
bool writeTrace(const std::string &Path,
                const std::vector<const Tracer *> &Tracers);

//===----------------------------------------------------------------------===//
// Result report.
//===----------------------------------------------------------------------===//

/// Everything one workload run produces. Human-readable lines go to
/// stdout as they are added; the machine-readable result is the last
/// line printResult writes.
class Report {
public:
  /// End-to-end metric (untraced runs) and per-layer metric. Names and
  /// units are declared in BENCHMARK.json; run.py attaches the units and
  /// rejects a name that is not declared there.
  void e2e(const std::string &Name, double Value);
  void layer(const std::string &Name, double Value);
  /// A latency distribution, printed with its median, its tail
  /// percentile and sample count.
  void distribution(const std::string &Name, const Samples &S);
  /// One human-readable line, prefixed "# ".
  void note(const std::string &Line);

  /// Counts one attempted operation.
  void attempt(uint64_t N = 1) {
    std::lock_guard<std::mutex> Lock(Mu);
    Attempted += N;
  }
  /// Records a failed operation (wrong result, error reply, fallback).
  void fail(const std::string &Why);

  void printResult(const Options &Opts) const;

  uint64_t failed() const { return Failed; }

private:
  mutable std::mutex Mu;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  unsigned FailuresShown = 0;
  std::map<std::string, double> E2E, Layer;
};

//===----------------------------------------------------------------------===//
// Process environment.
//===----------------------------------------------------------------------===//

/// Makes the process independent of the caller's environment: clears
/// ALF_VERIFY, ALF_OBS and ALF_JIT_CACHE_DIR, points TMPDIR at
/// \p WorkDir (the kernel compiler's temporaries land there) and sets
/// the obs level to Off.
void makeHermetic(const std::string &WorkDir);

/// Pins this process, and every thread and child it starts later, to
/// the CPU it runs on; returns that CPU (-1 when it cannot). Every
/// workload has one operation in flight at a time, so one CPU runs all
/// of it. Unpinned, the client and server threads of a request wake
/// each other across virtual CPUs, at a cost the host's scheduler sets:
/// serve-churn's warm-request p99 read 2.5-7.7 ms unpinned and
/// 1.7-3.3 ms pinned in alternating runs.
int pinToCurrentCpu();

/// Host block: CPU model, nproc, CPUs this process may use, cache sizes,
/// `cc --version`, build type, workload and seed, as one JSON object.
std::string hostJson(const Options &Opts);

/// Peak and current resident set of this process, in MiB.
double peakRssMiB();
double currentRssMiB();

/// Removes \p Dir and everything below it (errors ignored).
void removeTree(const std::string &Dir);

} // namespace perfbench

#endif // ALF_PERFBENCH_HARNESS_H
