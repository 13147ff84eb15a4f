//===- perfbench/CompileLayers.h - Per-layer split of one compile ---------===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// driver::Pipeline::tryCompile is one public call; the per-layer split
/// of its cost comes from replaying, on a second fresh copy of the same
/// program, the chain it runs at VerifyLevel::Structural one public call
/// at a time: ir::normalizeProgram, ir::verifyProgram,
/// analysis::ASDG::build, verify::verifyStructure, xform::applyStrategy,
/// scalarize::scalarize. What tryCompile spends beyond the sum of those
/// calls is the driver's own glue. scalarize::emitCChecked is timed as
/// well; tryCompile does not run it, so it is kept out of the split.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_PERFBENCH_COMPILELAYERS_H
#define ALF_PERFBENCH_COMPILELAYERS_H

#include "Harness.h"

#include "driver/Pipeline.h"
#include "ir/Program.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The verify level every compile of the benchmark runs at.
constexpr alf::verify::VerifyLevel BenchVerify =
    alf::verify::VerifyLevel::Structural;

/// Times of one replayed compile, in milliseconds, plus the counts it
/// produced.
struct ReplayTimes {
  double Normalize = 0, IrVerify = 0, Asdg = 0, Structural = 0, Strategy = 0,
         Lower = 0, Emit = 0;
  unsigned Edges = 0, Clusters = 0, Contracted = 0;
};

/// Pipeline options of every benchmark compile: verify level set
/// explicitly (never from $ALF_VERIFY), kernels in \p JitCacheDir.
alf::driver::PipelineOptions benchPipelineOptions(
    const std::string &JitCacheDir = "");

/// Runs `PL.tryCompile(S)` under a "driver.tryCompile" span and returns
/// its status; \p Ms receives its wall time.
alf::driver::CompileStatus timedTryCompile(alf::driver::Pipeline &PL,
                                           alf::xform::Strategy S,
                                           Tracer &T, double &Ms);

/// Replays tryCompile's chain on \p P (a fresh, unnormalized copy), one
/// span per public call; a call that rejects is a failure in \p R.
ReplayTimes replayCompile(alf::ir::Program &P, alf::xform::Strategy S,
                          Tracer &T, Report &R);

/// Collects tryCompile times and replays per program and turns them into
/// the ir/analysis/verify/xform/scalarize/driver per-layer metrics: each
/// time metric is the sum over the programs of the per-program median,
/// i.e. one pass over the workload's program set.
class CompileLayers {
public:
  void addTryCompile(const std::string &Prog, double Ms) {
    TryMs[Prog].add(Ms);
  }
  void addReplay(const std::string &Prog, const ReplayTimes &R) {
    Replays[Prog].push_back(R);
  }

  /// Sum over programs of the median tryCompile time (ms).
  double totalMs() const;
  /// Geometric mean over programs of the median tryCompile time (ms).
  double geomeanMs() const;

  void report(Report &R) const;

private:
  std::map<std::string, Samples> TryMs;
  std::map<std::string, std::vector<ReplayTimes>> Replays;
};

} // namespace perfbench

#endif // ALF_PERFBENCH_COMPILELAYERS_H
