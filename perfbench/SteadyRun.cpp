//===- perfbench/SteadyRun.cpp - steady-run workload ----------------------===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One caller, closed loop: warm native runs of seven programs compiled
/// at C2+F3 in setup, each in both emission modes (scalar and vector),
/// on pre-allocated storage seeded from the run's seed, interleaved with
/// warm steps of a Jacobi loop through runtime::Engine. Execution does
/// almost all the work and strategy none.
///
/// Extents are chosen so each program's C2+F3 working set (0.5-1.3 MiB;
/// EP contracts to scalars) is at least 10x the 48 KiB L1d and fits the
/// 2 MiB per-core L2 of the reference host, while the unfused baseline
/// of most programs does not: contraction's saved traffic shows as L1/L2
/// traffic. Working sets beyond L2 live in the L3 and DRAM that the
/// host shares with other tenants; there a run's speed followed the
/// neighbours' memory traffic (op_ms.geomean spread by 20-29% of its
/// median over ten runs of identical code).
///
/// Checks, after the timed window: for every program a fresh native run
/// of each tier against exec::run (the interpreter) on the same seed —
/// bit-identical for the scalar tier and for the vector tier's arrays,
/// and for its reassociated `+` sums within the rounding bound of two
/// summation orders — and the Jacobi grid against a plain C++ loop
/// nest doing the same steps.
///
//===----------------------------------------------------------------------===//

#include "CompileLayers.h"
#include "Workloads.h"

#include "benchprogs/Benchmarks.h"
#include "exec/Eval.h"
#include "exec/NativeJit.h"
#include "ir/Expr.h"
#include "runtime/Runtime.h"
#include "scalarize/CEmitter.h"
#include "support/Casting.h"
#include "support/Ulp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>

using namespace alf;
using namespace perfbench;

namespace {

/// Jacobi grid: N x N interior, one ghost ring; steps per round.
constexpr int64_t JacobiN = 256;
constexpr unsigned StepsPerRound = 4;
/// Untimed rounds before the window.
constexpr double WarmupMs = 1000;

struct SteadyProgram {
  std::string Name;
  const benchprogs::BenchmarkInfo *Info;
  int64_t N;
};

const benchprogs::BenchmarkInfo &benchmarkNamed(const std::string &Name) {
  for (const auto *List :
       {&benchprogs::allBenchmarks(), &benchprogs::zooBenchmarks()})
    for (const benchprogs::BenchmarkInfo &B : *List)
      if (B.Name == Name)
        return B;
  std::abort();
}

std::vector<SteadyProgram> steadyPrograms() {
  return {
      {"ep", &benchmarkNamed("EP"), int64_t(1) << 16},
      {"frac", &benchmarkNamed("Frac"), 384},
      {"sp", &benchmarkNamed("SP"), 60},
      {"tomcatv", &benchmarkNamed("Tomcatv"), 144},
      {"simple", &benchmarkNamed("Simple"), 64},
      {"fibro", &benchmarkNamed("Fibro"), 72},
      {"knn", &benchmarkNamed("Knn"), int64_t(1) << 17},
  };
}

/// One program compiled and primed on both tiers. Members are declared
/// in dependency order: the pipeline references the program, the
/// artifact references both.
struct Loaded {
  SteadyProgram Def;
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<driver::Pipeline> PL;
  std::optional<driver::CompiledProgram> CP;
  std::optional<exec::Storage> Store;

  const lir::LoopProgram &lp() const { return CP->LP; }
};

/// What one setup measured (per-layer metrics).
struct SetupCosts {
  double AllocMs = 0, JitMs = 0;
  unsigned JitCompiles = 0, VectorizedNests = 0;
  uint64_t AllocBytes = 0;
};

/// Everything the timed window needs. The runtime engine outlives the
/// array handle into it; the JIT engines outlive nothing that calls
/// them after destruction.
struct SteadyState {
  std::string JitDir;
  std::unique_ptr<exec::JitEngine> Scalar, Simd;
  std::vector<Loaded> Progs;
  std::unique_ptr<runtime::Engine> Rt;
  runtime::Array U;
  uint64_t StepsDone = 0;
};

ir::Region jacobiDomain() {
  return ir::Region({0, 0}, {JacobiN + 1, JacobiN + 1});
}
ir::Region jacobiInterior() {
  return ir::Region({1, 1}, {JacobiN, JacobiN});
}

std::vector<double> jacobiInitial(uint64_t Seed) {
  std::mt19937_64 Rng(Seed ^ 0x6a6163);
  std::uniform_real_distribution<double> D(-1.0, 1.0);
  std::vector<double> V(static_cast<size_t>((JacobiN + 2) * (JacobiN + 2)));
  for (double &X : V)
    X = D(Rng);
  return V;
}

/// One Jacobi step through the runtime engine: record, then flush.
void jacobiStep(SteadyState &S, Tracer &T, double &RecordMs,
                double &FlushMs) {
  using namespace alf::runtime;
  ir::Region In = jacobiInterior();
  Clock::time_point T0 = Clock::now();
  {
    Span Sp(T, "runtime.record");
    Array V = S.Rt->compute(In, (shift(S.U, ir::Offset({-1, 0})) +
                                 shift(S.U, ir::Offset({1, 0})) +
                                 shift(S.U, ir::Offset({0, -1})) +
                                 shift(S.U, ir::Offset({0, 1}))) *
                                    0.25);
    S.Rt->update(S.U, ir::Offset({0, 0}), In,
                 Ex(S.U) + (Ex(V) - Ex(S.U)) * 0.8);
  }
  Clock::time_point T1 = Clock::now();
  {
    Span Sp(T, "runtime.flush");
    S.Rt->flush();
  }
  RecordMs = msBetween(T0, T1);
  FlushMs = msSince(T1);
  ++S.StepsDone;
}

/// The same steps as plain loops: the Jacobi reference.
std::vector<double> jacobiReference(uint64_t Seed, uint64_t Steps) {
  const int64_t W = JacobiN + 2;
  std::vector<double> U = jacobiInitial(Seed), V(U.size());
  for (uint64_t S = 0; S < Steps; ++S) {
    for (int64_t I = 1; I <= JacobiN; ++I)
      for (int64_t J = 1; J <= JacobiN; ++J)
        V[I * W + J] = (U[(I - 1) * W + J] + U[(I + 1) * W + J] +
                        U[I * W + J - 1] + U[I * W + J + 1]) *
                       0.25;
    for (int64_t I = 1; I <= JacobiN; ++I)
      for (int64_t J = 1; J <= JacobiN; ++J)
        U[I * W + J] = U[I * W + J] + (V[I * W + J] - U[I * W + J]) * 0.8;
  }
  return U;
}

/// Builds, compiles, allocates and primes everything; \p Costs and
/// \p Layers receive what it measured.
std::unique_ptr<SteadyState> setUp(const Options &Opts, unsigned Rep,
                                   Tracer &T, Report &R, SetupCosts &Costs,
                                   CompileLayers &Layers) {
  auto S = std::make_unique<SteadyState>();
  S->JitDir = Opts.WorkDir + "/jit-steady-" + std::to_string(Rep);
  exec::JitOptions JO;
  JO.CacheDir = S->JitDir;
  S->Scalar = std::make_unique<exec::JitEngine>(JO);
  JO.Vectorize = true;
  S->Simd = std::make_unique<exec::JitEngine>(JO);

  for (const SteadyProgram &Def : steadyPrograms()) {
    T.beginOp();
    Span Op(T, "steady-run.setup");
    Loaded L;
    L.Def = Def;
    L.P = Def.Info->Build(Def.N);
    L.PL = std::make_unique<driver::Pipeline>(*L.P,
                                              benchPipelineOptions(S->JitDir));
    double Ms = 0;
    driver::CompileStatus St =
        timedTryCompile(*L.PL, xform::Strategy::C2F3, T, Ms);
    R.attempt();
    if (!St.ok() || !St.Artifact) {
      R.fail(Def.Name + ": tryCompile: " + St.Message);
      continue;
    }
    Layers.addTryCompile(Def.Name, Ms);
    if (T.enabled()) {
      std::unique_ptr<ir::Program> Fresh = Def.Info->Build(Def.N);
      Layers.addReplay(Def.Name,
                       replayCompile(*Fresh, xform::Strategy::C2F3, T, R));
    }
    L.CP = std::move(St.Artifact);

    Clock::time_point A0 = Clock::now();
    {
      Span Sp(T, "exec.allocateStorage");
      L.Store.emplace(exec::allocateStorage(L.lp(), Opts.Seed));
    }
    Costs.AllocMs += msSince(A0);
    Costs.AllocBytes += L.Store->totalBytes();

    for (exec::JitEngine *E : {S->Scalar.get(), S->Simd.get()}) {
      exec::JitRunInfo Info;
      Clock::time_point J0 = Clock::now();
      {
        Span Sp(T, "exec.jitPrime");
        E->runOnStorage(L.lp(), *L.Store, &Info);
      }
      Costs.JitMs += msSince(J0);
      Costs.JitCompiles += Info.Compiled ? 1 : 0;
      Costs.VectorizedNests += Info.VectorizedNests;
      R.attempt();
      if (!Info.UsedJit)
        R.fail(Def.Name + ": native tier fell back to the interpreter: " +
               Info.FallbackReason);
    }
    S->Progs.push_back(std::move(L));
  }

  runtime::EngineOptions EO;
  EO.Strat = xform::Strategy::C2F3;
  EO.Mode = xform::ExecMode::NativeJit;
  EO.Verify = BenchVerify;
  EO.Jit.CacheDir = S->JitDir;
  S->Rt = std::make_unique<runtime::Engine>(EO);
  S->U = S->Rt->input("U", jacobiDomain());
  S->U.setAll(jacobiInitial(Opts.Seed));
  double Rec = 0, Fl = 0;
  jacobiStep(*S, T, Rec, Fl); // compiles the step's kernel
  R.attempt();
  if (!S->Rt->lastFlush().UsedJit)
    R.fail("runtime engine step did not run natively");
  return S;
}

/// For each scalar a float `+` reduction of \p Def writes: how far apart
/// two summation orders of its terms can land. Summed in any order, n
/// terms are within g(n-1)*sum|x_i| of the exact sum, g(k) = k*u/(1-k*u)
/// (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
/// section 4.2), so the interpreter's result and the vector tier's
/// lane-folded one are within 2*g(n)*sum|x_i|. The terms are the same on
/// both sides: the kernels are built with -ffp-contract=off, and the
/// lane fold is the vector tier's only reordering. sum|x_i| comes from
/// the interpreter running a copy of the program whose reduction bodies
/// are wrapped in abs(); being a float sum of non-negative terms, it is
/// low by at most a factor 1-g(n).
std::map<std::string, double> reassociationBounds(const SteadyProgram &Def,
                                                  uint64_t Seed, Report &R) {
  std::unique_ptr<ir::Program> P = Def.Info->Build(Def.N);
  std::map<std::string, int64_t> Terms;
  for (unsigned I = 0; I < P->numStmts(); ++I) {
    auto *RS = dyn_cast<ir::ReduceStmt>(P->getStmt(I));
    if (!RS || RS->getOp() != ir::ReduceStmt::ReduceOpKind::Sum)
      continue;
    Terms[RS->getAccumulator()->getName()] = RS->getRegion()->size();
    RS->setBody(std::make_unique<ir::UnaryExpr>(ir::UnaryExpr::Opcode::Abs,
                                                RS->getBody()->clone()));
  }
  driver::Pipeline PL(*P, benchPipelineOptions());
  driver::CompileRequest Req;
  Req.Strat = xform::Strategy::C2F3;
  driver::CompileStatus St = PL.tryCompile(Req);
  R.attempt();
  if (!St.ok() || !St.Artifact) {
    R.fail(Def.Name + ": abs-sum copy: tryCompile: " + St.Message);
    return {};
  }
  exec::RunResult Abs = exec::run(St.Artifact->LP, Seed);
  const double U = std::ldexp(1.0, -53);
  std::map<std::string, double> Bounds;
  for (const auto &[Name, N] : Terms) {
    double G = static_cast<double>(N) * U / (1 - static_cast<double>(N) * U);
    Bounds[Name] = 2 * G * Abs.ScalarsOut[Name] / (1 - G);
  }
  return Bounds;
}

/// Runs \p L natively on \p E from fresh storage and compares the result
/// with the interpreter's \p Ref. Every value must be bit-identical (+0
/// and -0 aside), except that the scalars named in \p Bounds (the vector
/// tier's reassociated `+` folds) may be off by up to their bound.
void checkTier(exec::JitEngine &E, const Loaded &L, const exec::RunResult &Ref,
               const char *Tier, const std::map<std::string, double> &Bounds,
               uint64_t Seed, Tracer &T, Report &R) {
  exec::JitRunInfo Info;
  exec::RunResult Got = [&] {
    Span Sp(T, "exec.JitEngine.run");
    return E.run(L.lp(), Seed, &Info);
  }();
  R.attempt();
  std::string Where = L.Def.Name + " " + Tier + " tier";
  if (!Info.UsedJit) {
    R.fail(Where + ": check run fell back to the interpreter");
    return;
  }
  uint64_t Differing = 0, MaxUlps = 0;
  double WorstShare = 0; // largest |difference| / bound
  if (Got.LiveOut.size() != Ref.LiveOut.size() ||
      Got.ScalarsOut.size() != Ref.ScalarsOut.size())
    ++Differing;
  for (const auto &[Name, Want] : Ref.LiveOut) {
    auto It = Got.LiveOut.find(Name);
    if (It == Got.LiveOut.end() || It->second.size() != Want.size()) {
      ++Differing;
      continue;
    }
    for (size_t I = 0; I < Want.size(); ++I)
      if (support::ulpDistance(It->second[I], Want[I]) != 0)
        ++Differing;
  }
  for (const auto &[Name, Want] : Ref.ScalarsOut) {
    auto It = Got.ScalarsOut.find(Name);
    if (It == Got.ScalarsOut.end()) {
      ++Differing;
      continue;
    }
    uint64_t Ulps = support::ulpDistance(It->second, Want);
    if (Ulps == 0)
      continue;
    MaxUlps = std::max(MaxUlps, Ulps);
    auto B = Bounds.find(Name);
    double Diff = std::fabs(It->second - Want);
    if (B == Bounds.end() || !(Diff <= B->second))
      ++Differing;
    else
      WorstShare = std::max(WorstShare, Diff / B->second);
  }
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "%s vs interpreter: %llu values outside the contract; "
                "reassociated sums off by up to %llu ulps, %.2g of their "
                "bound",
                Where.c_str(), static_cast<unsigned long long>(Differing),
                static_cast<unsigned long long>(MaxUlps), WorstShare);
  R.note(Buf);
  if (Differing != 0)
    R.fail(Where + " disagrees with the interpreter");
}

} // namespace

void perfbench::runSteadyRun(const Options &Opts, Report &R) {
  Tracer T(Opts.Trace, 0);
  if (!exec::JitEngine::compilerAvailable()) {
    // Timing the interpreter fallback instead would be a different
    // benchmark; refuse.
    R.attempt();
    R.fail("no working C compiler (cc): the native tiers cannot run");
    return;
  }

  Samples SetupS, AllocMs, JitMs;
  SetupCosts Last;
  CompileLayers Layers;
  std::unique_ptr<SteadyState> S;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    if (S) {
      removeTree(S->JitDir);
      S.reset();
    }
    Clock::time_point T0 = Clock::now();
    SetupCosts Costs;
    S = setUp(Opts, Rep, T, R, Costs, Layers);
    SetupS.add(msSince(T0) / 1000.0);
    AllocMs.add(Costs.AllocMs);
    JitMs.add(Costs.JitMs);
    Last = Costs;
  }

  std::vector<size_t> Order(S->Progs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::mt19937_64 Rng(Opts.Seed);
  std::shuffle(Order.begin(), Order.end(), Rng);

  OpStats Ops, WarmupOps;
  Samples RecordMs, FlushMs, WarmupRecordMs, WarmupFlushMs;
  // One round: every program on both tiers, then StepsPerRound steps.
  auto Round = [&](OpStats &Ops, Samples &RecordMs, Samples &FlushMs) {
    for (size_t I : Order) {
      Loaded &L = S->Progs[I];
      for (bool Vector : {false, true}) {
        exec::JitEngine &E = Vector ? *S->Simd : *S->Scalar;
        exec::JitRunInfo Info;
        T.beginOp();
        Clock::time_point O0 = Clock::now();
        {
          Span Sp(T, Vector ? "exec.runOnStorage.simd"
                            : "exec.runOnStorage.scalar");
          E.runOnStorage(L.lp(), *L.Store, &Info);
        }
        double Ms = msSince(O0);
        R.attempt();
        if (!Info.UsedJit)
          R.fail(L.Def.Name + ": warm run fell back to the interpreter");
        Ops.add(L.Def.Name + (Vector ? ".simd" : ".scalar"), Ms);
      }
    }
    for (unsigned K = 0; K < StepsPerRound; ++K) {
      double Rec = 0, Fl = 0;
      T.beginOp();
      {
        Span Sp(T, "runtime.step");
        jacobiStep(*S, T, Rec, Fl);
      }
      R.attempt();
      if (!S->Rt->lastFlush().UsedJit || !S->Rt->lastFlush().CacheHit)
        R.fail("runtime step was not a native trace-cache hit");
      Ops.add("runtime.step", Rec + Fl);
      RecordMs.add(Rec);
      FlushMs.add(Fl);
    }
  };

  // Warm-up, untimed: caches, branch predictors and page tables settle.
  Clock::time_point U0 = Clock::now();
  while (msSince(U0) < WarmupMs)
    Round(WarmupOps, WarmupRecordMs, WarmupFlushMs);

  runtime::EngineStats Before = S->Rt->stats();
  Clock::time_point W0 = Clock::now();
  double WindowMs = Opts.Seconds * 1000.0;
  while (msSince(W0) < WindowMs) {
    Clock::time_point R0 = Clock::now();
    Round(Ops, RecordMs, FlushMs);
    Ops.endRound(msSince(R0), 2 * Order.size() + StepsPerRound);
  }
  runtime::EngineStats After = S->Rt->stats();

  reportSetupAndMemory(R, SetupS, peakRssMiB());
  Ops.reportE2E(R);

  // Per-layer: exec.
  std::vector<double> ScalarMed, SimdMed;
  for (const Loaded &L : S->Progs) {
    double Sc = Ops.of(L.Def.Name + ".scalar").median();
    double Si = Ops.of(L.Def.Name + ".simd").median();
    ScalarMed.push_back(Sc);
    SimdMed.push_back(Si);
    R.layer("exec.dispatch_ms." + L.Def.Name + ".scalar", Sc);
    R.layer("exec.dispatch_ms." + L.Def.Name + ".simd", Si);
    R.layer("exec.simd_speedup." + L.Def.Name, Sc / Si);
    R.note(L.Def.Name + " N=" + std::to_string(L.Def.N) + " c2+f3 storage " +
           std::to_string(L.Store->totalBytes() >> 10) + " KiB");
  }
  R.layer("exec.run_ms.geomean", geomean(ScalarMed));
  R.layer("exec.run_simd_ms.geomean", geomean(SimdMed));
  R.note("run_ms.geomean " + std::to_string(geomean(ScalarMed)) +
         " ms; run_simd_ms.geomean " + std::to_string(geomean(SimdMed)) +
         " ms");
  R.layer("exec.vectorized_nests", Last.VectorizedNests);
  R.layer("exec.alloc_bytes.c2f3", static_cast<double>(Last.AllocBytes));
  R.layer("exec.alloc_ms", AllocMs.median());
  R.layer("exec.jit_compile_ms", JitMs.median());
  R.layer("exec.jit_compiles", Last.JitCompiles);
  Layers.report(R);

  // Per-layer: runtime.
  const Samples &Steps = Ops.of("runtime.step");
  R.distribution("runtime_step_ms", Steps);
  R.layer("runtime.step_ms.p50", Steps.median());
  R.layer("runtime.step_ms.p99", Steps.percentile(99));
  R.layer("runtime.record_ms", RecordMs.median());
  R.layer("runtime.flush_ms", FlushMs.median());
  R.layer("runtime.trace_hits",
          static_cast<double>(After.CacheHits - Before.CacheHits));
  R.layer("runtime.trace_misses",
          static_cast<double>(After.CacheMisses - Before.CacheMisses));

  // Checks against references outside the code under test.
  for (const Loaded &L : S->Progs) {
    Clock::time_point I0 = Clock::now();
    exec::RunResult Ref = [&] {
      Span Sp(T, "exec.run");
      return exec::run(L.lp(), Opts.Seed);
    }();
    R.layer("exec.interp_ms." + L.Def.Name, msSince(I0));
    checkTier(*S->Scalar, L, Ref, "scalar", {}, Opts.Seed, T, R);
    std::map<std::string, double> Bounds;
    if (alf::scalarize::simdToleranceFor(L.lp()) ==
        support::Tolerance::ReassociatedFloat)
      Bounds = reassociationBounds(L.Def, Opts.Seed, R);
    checkTier(*S->Simd, L, Ref, "vector", Bounds, Opts.Seed, T, R);
  }
  R.attempt();
  if (S->U.values() != jacobiReference(Opts.Seed, S->StepsDone))
    R.fail("runtime Jacobi grid differs from the loop-nest reference after " +
           std::to_string(S->StepsDone) + " steps");

  // Traced run only: the unfused baseline of every program, for the
  // fusion+contraction speedup (baseline run / C2+F3 run, scalar tier).
  if (Opts.Trace) {
    uint64_t BaselineBytes = 0;
    for (size_t I = 0; I < S->Progs.size(); ++I) {
      Loaded &L = S->Progs[I];
      driver::CompileRequest Req;
      Req.Strat = xform::Strategy::Baseline;
      driver::CompileStatus St = L.PL->tryCompile(Req);
      R.attempt();
      if (!St.ok() || !St.Artifact) {
        R.fail(L.Def.Name + ": baseline tryCompile: " + St.Message);
        continue;
      }
      const lir::LoopProgram &BLP = St.Artifact->LP;
      exec::Storage BStore = exec::allocateStorage(BLP, Opts.Seed);
      BaselineBytes += BStore.totalBytes();
      exec::JitRunInfo Info;
      S->Scalar->runOnStorage(BLP, BStore, &Info); // compile, untimed
      Samples Base;
      for (unsigned K = 0; K < 5; ++K) {
        Clock::time_point B0 = Clock::now();
        Span Sp(T, "exec.runOnStorage.baseline");
        S->Scalar->runOnStorage(BLP, BStore);
        Base.add(msSince(B0));
      }
      R.layer("xform.fusion_speedup." + L.Def.Name,
              Base.median() / ScalarMed[I]);
    }
    R.layer("exec.alloc_bytes.baseline", static_cast<double>(BaselineBytes));
  }

  finishTrace(Opts, R, {&T});
  removeTree(S->JitDir);
}
