//===- perfbench/CompileLayers.cpp - Per-layer split of one compile -------===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//

#include "CompileLayers.h"

#include "analysis/ASDG.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "scalarize/CEmitter.h"
#include "scalarize/Scalarize.h"
#include "verify/Verify.h"
#include "xform/Strategy.h"

#include <optional>

using namespace alf;
using namespace perfbench;

driver::PipelineOptions
perfbench::benchPipelineOptions(const std::string &JitCacheDir) {
  driver::PipelineOptions PO;
  PO.Verify = BenchVerify;
  PO.Jit.CacheDir = JitCacheDir;
  return PO;
}

driver::CompileStatus perfbench::timedTryCompile(driver::Pipeline &PL,
                                                 xform::Strategy S, Tracer &T,
                                                 double &Ms) {
  Clock::time_point T0 = Clock::now();
  driver::CompileStatus St = [&] {
    Span Sp(T, "driver.tryCompile");
    driver::CompileRequest Req;
    Req.Strat = S;
    return PL.tryCompile(Req);
  }();
  Ms = msSince(T0);
  return St;
}

namespace {

/// Runs \p F under span \p Name and adds its wall time to \p Ms.
template <typename Fn>
auto timed(Tracer &T, const char *Name, double &Ms, Fn &&F) {
  Clock::time_point T0 = Clock::now();
  Span Sp(T, Name);
  auto Result = F();
  Ms += msSince(T0);
  return Result;
}

double medianOf(const std::vector<ReplayTimes> &V,
                double ReplayTimes::*Field) {
  Samples S;
  for (const ReplayTimes &R : V)
    S.add(R.*Field);
  return S.median();
}

} // namespace

ReplayTimes perfbench::replayCompile(ir::Program &P, xform::Strategy S,
                                     Tracer &T, Report &R) {
  ReplayTimes RT;
  timed(T, "ir.normalize", RT.Normalize,
        [&] { return ir::normalizeProgram(P); });
  bool WellFormed = timed(T, "ir.verify", RT.IrVerify,
                          [&] { return ir::verifyProgram(P).empty(); });
  std::optional<analysis::ASDG> G;
  timed(T, "analysis.asdg", RT.Asdg, [&] {
    G.emplace(analysis::ASDG::build(P));
    return 0;
  });
  bool Certified = timed(T, "verify.structural", RT.Structural,
                         [&] { return verify::verifyStructure(P, &*G).ok(); });
  xform::StrategyResult SR = timed(T, "xform.strategy", RT.Strategy,
                                   [&] { return xform::applyStrategy(*G, S); });
  lir::LoopProgram LP = timed(T, "scalarize.lower", RT.Lower, [&] {
    return alf::scalarize::scalarize(*G, SR);
  });
  bool Emitted = timed(T, "scalarize.emit", RT.Emit, [&] {
    return alf::scalarize::emitCChecked(LP, "perfbench_kernel").Error.empty();
  });
  RT.Edges = G->numEdges();
  RT.Clusters = SR.Partition.numClusters();
  RT.Contracted = static_cast<unsigned>(SR.Contracted.size());
  R.attempt();
  if (!WellFormed || !Certified || !Emitted)
    R.fail(P.getName() + ": the layer-by-layer replay of tryCompile rejected");
  return RT;
}

double CompileLayers::totalMs() const {
  double Sum = 0;
  for (const auto &[Prog, S] : TryMs)
    Sum += S.median();
  return Sum;
}

double CompileLayers::geomeanMs() const {
  std::vector<double> Medians;
  for (const auto &[Prog, S] : TryMs)
    Medians.push_back(S.median());
  return geomean(Medians);
}

void CompileLayers::report(Report &R) const {
  double Normalize = 0, IrVerify = 0, Asdg = 0, Structural = 0, Strategy = 0,
         Lower = 0, Emit = 0, Edges = 0, Clusters = 0, Contracted = 0;
  for (const auto &[Prog, V] : Replays) {
    Normalize += medianOf(V, &ReplayTimes::Normalize);
    IrVerify += medianOf(V, &ReplayTimes::IrVerify);
    Asdg += medianOf(V, &ReplayTimes::Asdg);
    Structural += medianOf(V, &ReplayTimes::Structural);
    double Strat = medianOf(V, &ReplayTimes::Strategy);
    Strategy += Strat;
    Lower += medianOf(V, &ReplayTimes::Lower);
    Emit += medianOf(V, &ReplayTimes::Emit);
    // Counts are deterministic: every replay of a program yields the
    // same ones, so the last stands for all.
    Edges += V.back().Edges;
    Clusters += V.back().Clusters;
    Contracted += V.back().Contracted;
    if (Prog == "sp")
      R.layer("xform.strategy_ms.sp", Strat);
    if (Prog == "floydwarshall")
      R.layer("xform.strategy_ms.floydwarshall", Strat);
  }
  double Total = totalMs();
  double Split = Normalize + IrVerify + Asdg + Structural + Strategy + Lower;
  R.layer("ir.normalize_ms", Normalize);
  R.layer("ir.verify_ms", IrVerify);
  R.layer("analysis.asdg_ms", Asdg);
  R.layer("analysis.asdg_edges", Edges);
  R.layer("verify.structural_ms", Structural);
  R.layer("xform.strategy_ms", Strategy);
  R.layer("xform.clusters", Clusters);
  R.layer("xform.contracted", Contracted);
  R.layer("scalarize.lower_ms", Lower);
  R.layer("scalarize.emit_ms", Emit);
  R.layer("driver.compile_ms.total", Total);
  R.layer("driver.compile_ms.geomean", geomeanMs());
  if (!Replays.empty() && Total > 0) {
    R.layer("xform.strategy_share", Strategy / Total);
    R.layer("driver.glue_ms", Total - Split);
    R.layer("driver.split_coverage", Split / Total);
  }
}
