//===- perfbench/Workloads.cpp - Metrics every workload reports -----------===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>

using namespace perfbench;

const Samples &OpStats::of(const std::string &Class) const {
  static const Samples Empty;
  auto It = ByClass.find(Class);
  return It == ByClass.end() ? Empty : It->second;
}

void OpStats::reportE2E(Report &R) const {
  std::vector<double> Medians;
  double Busy = 0;
  for (const auto &[Class, S] : ByClass)
    Busy += S.sum();
  for (const auto &[Class, S] : ByClass) {
    Medians.push_back(S.median());
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "op %s (%.1f%% of time)", Class.c_str(),
                  100.0 * S.sum() / Busy);
    R.distribution(Buf, S);
  }
  R.e2e("op_ms.geomean", geomean(Medians));
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "ops_per_s median %.4f /s over %zu rounds (p10 %.4f /s)",
                RoundRate.median(), RoundRate.size(),
                RoundRate.percentile(10));
  R.note(Buf);
  R.e2e("ops_per_s", RoundRate.median());
}

void perfbench::reportSetupAndMemory(Report &R, const Samples &SetupSeconds,
                                     double PeakRssMiB) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "setup_s median %.4f s over %zu setups",
                SetupSeconds.median(), SetupSeconds.size());
  R.note(Buf);
  R.e2e("setup_s", SetupSeconds.median());
  R.e2e("peak_rss_mb", PeakRssMiB);
}

void perfbench::finishTrace(const Options &Opts, Report &R,
                            const std::vector<const Tracer *> &Tracers) {
  if (!Opts.Trace)
    return;
  for (const auto &[Name, Sum] : summarizeSpans(Tracers)) {
    char Buf[200];
    std::snprintf(Buf, sizeof(Buf),
                  "span %-30s n=%-7llu total %12.3f ms   self %12.3f ms",
                  Name.c_str(), static_cast<unsigned long long>(Sum.Count),
                  Sum.TotalMs, Sum.SelfMs);
    R.note(Buf);
  }
  if (!Opts.TraceFile.empty() && !writeTrace(Opts.TraceFile, Tracers))
    R.fail("cannot write " + Opts.TraceFile);
}
