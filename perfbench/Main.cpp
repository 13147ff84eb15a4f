//===- perfbench/Main.cpp - Repository benchmark driver -------------------===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One workload per process (Server::start changes the process-global
/// obs level, so workloads never share one):
///
///   alf_perfbench --workload compile-mix|steady-run|serve-churn
///                 --seed N --seconds S --trace 0|1
///                 --workdir DIR [--trace-file FILE]
///
/// Prints report lines ("# ...") and, last, one JSON object with the
/// run's correctness, attempted and failed counts, end-to-end and
/// per-layer metrics and the host block. run.py builds this binary and
/// turns that object into the benchmark's result line.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>

using namespace perfbench;

namespace {

int usage() {
  std::cerr << "usage: alf_perfbench --workload compile-mix|steady-run|"
               "serve-churn --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-file FILE]\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      Opts.Workload = Val;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::strtod(Val.c_str(), &End);
    else if (Flag == "--trace")
      Opts.Trace = Val == "1";
    else if (Flag == "--workdir")
      Opts.WorkDir = Val;
    else if (Flag == "--trace-file")
      Opts.TraceFile = Val;
    else
      return usage();
    if (End && *End)
      return usage();
  }
  if (argc % 2 != 1 || Opts.WorkDir.empty() || Opts.Seconds <= 0 ||
      (Opts.Workload != "compile-mix" && Opts.Workload != "steady-run" &&
       Opts.Workload != "serve-churn"))
    return usage();

  std::error_code EC;
  std::filesystem::create_directories(Opts.WorkDir, EC);
  if (EC) {
    std::cerr << "alf_perfbench: cannot create " << Opts.WorkDir << ": "
              << EC.message() << "\n";
    return 1;
  }
  makeHermetic(Opts.WorkDir);
  if (pinToCurrentCpu() < 0)
    std::cerr << "alf_perfbench: cannot pin to one CPU; running unpinned\n";

  Report R;
  if (Opts.Workload == "compile-mix")
    runCompileMix(Opts, R);
  else if (Opts.Workload == "steady-run")
    runSteadyRun(Opts, R);
  else
    runServeChurn(Opts, R);
  R.printResult(Opts);
  removeTree(Opts.WorkDir);
  return R.failed() == 0 ? 0 : 1;
}
