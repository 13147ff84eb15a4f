//===- perfbench/Workloads.h - The benchmark's three workloads ------------===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets up (several times, reporting the median as
/// setup_s), runs a closed-loop timed window of Options::Seconds, checks
/// every output against a reference that does not come from the code
/// path under test, and fills the Report with the same four end-to-end
/// metrics and the per-layer metrics of the layers it calls. README.md
/// in this directory describes what each one measures and why.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_PERFBENCH_WORKLOADS_H
#define ALF_PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

/// Setups per run; setup_s is their median. Each is timed from its own
/// start, the first one included.
constexpr unsigned SetupRepeats = 5;

void runCompileMix(const Options &Opts, Report &R);
void runSteadyRun(const Options &Opts, Report &R);
void runServeChurn(const Options &Opts, Report &R);

/// Per-class latency samples of one timed window, and the end-to-end
/// metrics derived from them: op_ms.geomean (geometric mean over classes
/// of each class's median) and ops_per_s (the median over the window's
/// whole rounds of each round's operations per second; a round runs
/// every class, so it is the workload's unit of throughput, and its
/// median ignores the rounds a burst on the shared host slowed).
class OpStats {
public:
  /// One sample of \p Class (a sample may be the mean of a batch).
  void add(const std::string &Class, double Ms) { ByClass[Class].add(Ms); }
  void addAll(const std::string &Class, const Samples &S) {
    ByClass[Class].append(S);
  }
  /// A whole round of \p Ops operations took \p Ms.
  void endRound(double Ms, uint64_t Ops) {
    RoundRate.add(static_cast<double>(Ops) * 1000.0 / Ms);
  }
  const Samples &of(const std::string &Class) const;

  /// Adds op_ms.geomean and ops_per_s, and one report line per class
  /// with its share of the summed latency.
  void reportE2E(Report &R) const;

private:
  std::map<std::string, Samples> ByClass;
  Samples RoundRate;
};

/// Traced run only: reports each span name's count, total and self time
/// (the per-layer split of where the run's time went) and writes every
/// span to Options::TraceFile.
void finishTrace(const Options &Opts, Report &R,
                 const std::vector<const Tracer *> &Tracers);

/// Adds setup_s (median of \p SetupSeconds) and peak_rss_mb
/// (\p PeakRssMiB, as peakRssMiB() read it).
void reportSetupAndMemory(Report &R, const Samples &SetupSeconds,
                          double PeakRssMiB);

} // namespace perfbench

#endif // ALF_PERFBENCH_WORKLOADS_H
