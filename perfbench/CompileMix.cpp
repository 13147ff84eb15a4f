//===- perfbench/CompileMix.cpp - compile-mix workload --------------------===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One caller, closed loop: compiles the six paper programs (at the
/// alf_bench suite size N=16) plus Floyd–Warshall and transitive closure
/// at N=8 (256 statements each), each compile from freshly built IR
/// through Pipeline::tryCompile at C2+F3 and VerifyLevel::Structural.
/// Strategy does almost all the work and execution none, so this is
/// where the strategy layer's cost shows.
///
/// Check: every artifact's census (exec::computeCensus over the
/// contracted set) must equal the paper's Figure 7 count of static
/// arrays after contraction, with no compiler temporary left.
///
//===----------------------------------------------------------------------===//

#include "CompileLayers.h"
#include "Workloads.h"

#include "benchprogs/Benchmarks.h"
#include "exec/MemoryAccounting.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>

using namespace alf;
using namespace perfbench;

namespace {

struct MixProgram {
  std::string Name; ///< lower-case
  const benchprogs::BenchmarkInfo *Info;
  int64_t N;
  /// Compiles per sample, each from its own fresh IR: programs that
  /// compile in well under a millisecond are sampled in batches lasting
  /// about 20 ms on the reference host, so their figures are not one
  /// cold cache miss after another. Fixed, so every run does the same
  /// work.
  unsigned Batch;
};

std::vector<MixProgram> mixPrograms() {
  std::vector<MixProgram> Mix;
  auto Lower = [](std::string S) {
    std::transform(S.begin(), S.end(), S.begin(), ::tolower);
    return S;
  };
  const std::map<std::string, unsigned> Batch = {
      {"ep", 32}, {"frac", 128}, {"tomcatv", 32}, {"fibro", 8}};
  auto BatchOf = [&](const std::string &Name) {
    auto It = Batch.find(Name);
    return It == Batch.end() ? 1u : It->second;
  };
  for (const benchprogs::BenchmarkInfo &B : benchprogs::allBenchmarks())
    Mix.push_back({Lower(B.Name), &B, 16, BatchOf(Lower(B.Name))});
  for (const benchprogs::BenchmarkInfo &B : benchprogs::zooBenchmarks())
    if (B.Name == "FloydWarshall" || B.Name == "Closure")
      Mix.push_back({Lower(B.Name), &B, 8, 1});
  return Mix;
}

/// Compiles \p M \p Batch times, each from freshly built IR, and checks
/// every artifact; returns the mean tryCompile time, or a negative value
/// after recording a failure.
double compileBatch(const MixProgram &M, unsigned Batch, Tracer &T, Report &R,
                    CompileLayers *Layers) {
  T.beginOp();
  Span Op(T, "compile-mix.op");
  std::vector<std::unique_ptr<ir::Program>> Progs;
  std::vector<std::unique_ptr<driver::Pipeline>> Pipes;
  for (unsigned K = 0; K < Batch; ++K) {
    Progs.push_back(M.Info->Build(M.N));
    Pipes.push_back(std::make_unique<driver::Pipeline>(
        *Progs.back(), benchPipelineOptions()));
  }
  std::vector<driver::CompileStatus> Status;
  double Total = 0;
  for (unsigned K = 0; K < Batch; ++K) {
    double Ms = 0;
    Status.push_back(timedTryCompile(*Pipes[K], xform::Strategy::C2F3, T, Ms));
    Total += Ms;
  }
  for (unsigned K = 0; K < Batch; ++K) {
    const driver::CompileStatus &St = Status[K];
    R.attempt();
    if (!St.ok() || !St.SR) {
      R.fail(M.Name + ": tryCompile: " + St.Message);
      return -1;
    }
    std::set<const ir::ArraySymbol *> Contracted(St.SR->Contracted.begin(),
                                                 St.SR->Contracted.end());
    exec::MemoryCensus C = [&] {
      Span Sp(T, "exec.computeCensus");
      return exec::computeCensus(Pipes[K]->program(), Contracted);
    }();
    if (C.StaticArrays != M.Info->PaperStaticAfter || C.StaticCompiler != 0) {
      R.fail(M.Name + ": census " + std::to_string(C.StaticArrays) + " (" +
             std::to_string(C.StaticCompiler) +
             " compiler temporaries), Figure 7 says " +
             std::to_string(M.Info->PaperStaticAfter) + " (0)");
      return -1;
    }
  }
  double Ms = Total / Batch;
  if (Layers) {
    Layers->addTryCompile(M.Name, Ms);
    if (T.enabled()) {
      std::unique_ptr<ir::Program> Fresh = M.Info->Build(M.N);
      Layers->addReplay(M.Name,
                        replayCompile(*Fresh, xform::Strategy::C2F3, T, R));
    }
  }
  return Ms;
}

} // namespace

void perfbench::runCompileMix(const Options &Opts, Report &R) {
  std::vector<MixProgram> Mix = mixPrograms();
  Tracer T(Opts.Trace, 0);

  // Setup: one untimed compile of every program (page-faulting the
  // allocator and code in, and checking every census once), repeated.
  Samples SetupS;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    for (const MixProgram &M : Mix)
      compileBatch(M, 1, T, R, nullptr);
    SetupS.add(msSince(T0) / 1000.0);
  }

  // The seed fixes the order programs are compiled in within a pass.
  std::mt19937_64 Rng(Opts.Seed);
  std::shuffle(Mix.begin(), Mix.end(), Rng);
  std::string Order;
  for (const MixProgram &M : Mix)
    Order += (Order.empty() ? "" : " ") + M.Name + "x" +
             std::to_string(M.Batch);
  R.note("compile-mix order (x compiles per sample): " + Order);

  OpStats Ops;
  CompileLayers Layers;
  Samples Passes; // whole passes only: compile_ms.total
  Clock::time_point W0 = Clock::now();
  double WindowMs = Opts.Seconds * 1000.0;
  while (msSince(W0) < WindowMs) {
    double Pass = 0;
    uint64_t Compiles = 0;
    bool Whole = true;
    Clock::time_point P0 = Clock::now();
    for (const MixProgram &M : Mix) {
      double Ms = compileBatch(M, M.Batch, T, R, &Layers);
      if (Ms >= 0) {
        Ops.add(M.Name, Ms);
        Pass += Ms;
      }
      Compiles += M.Batch;
      if (msSince(W0) >= WindowMs) {
        Whole = &M == &Mix.back();
        break;
      }
    }
    if (Whole) {
      Passes.add(Pass);
      Ops.endRound(msSince(P0), Compiles);
    }
  }

  reportSetupAndMemory(R, SetupS, peakRssMiB());
  Ops.reportE2E(R);
  R.distribution("compile_ms.total (per pass)", Passes);
  R.note("compile_ms.total (sum of medians) " +
         std::to_string(Layers.totalMs()) + " ms; compile_ms.geomean " +
         std::to_string(Layers.geomeanMs()) + " ms");
  Layers.report(R);

  finishTrace(Opts, R, {&T});
}
