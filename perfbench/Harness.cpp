//===- perfbench/Harness.cpp - Shared pieces of the repository benchmark --===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Obs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sched.h>
#include <sstream>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

//===----------------------------------------------------------------------===//
// Statistics.
//===----------------------------------------------------------------------===//

double Samples::percentile(double P) const {
  if (V.empty())
    return 0;
  std::vector<double> Sorted = V;
  std::sort(Sorted.begin(), Sorted.end());
  double Rank = P / 100.0 * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

double Samples::sum() const {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

double perfbench::tailPercentile(size_t N) {
  double Best = 50;
  for (double P : {90.0, 99.0, 99.9})
    if (static_cast<double>(N) * (1.0 - P / 100.0) >= 10.0)
      Best = P;
  return Best;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

//===----------------------------------------------------------------------===//
// Spans.
//===----------------------------------------------------------------------===//

namespace {

std::atomic<uint64_t> NextOp{1};

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Self time of every span in \p Spans (one thread's, in open order):
/// its duration minus the union of its children's intervals. Children of
/// one parent never overlap (they run on the same thread), so the union
/// is their sum.
std::vector<uint64_t> selfTimes(const std::vector<SpanRecord> &Spans) {
  std::vector<uint64_t> Child(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      Child[S.Parent] += S.EndNs - S.StartNs;
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    uint64_t D = Spans[I].EndNs - Spans[I].StartNs;
    Self[I] = D > Child[I] ? D - Child[I] : 0;
  }
  return Self;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "-1";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

void Tracer::beginOp() {
  if (Enabled)
    Op = NextOp.fetch_add(1, std::memory_order_relaxed);
}

size_t Tracer::open(const char *Name) {
  int64_t Parent = Stack.empty() ? -1 : static_cast<int64_t>(Stack.back());
  Spans.push_back(SpanRecord{Name, Op, Parent, Thread, nowNs(), 0});
  Stack.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void Tracer::close(size_t Index) {
  Spans[Index].EndNs = nowNs();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

std::map<std::string, SpanSummary>
perfbench::summarizeSpans(const std::vector<const Tracer *> &Tracers) {
  std::map<std::string, SpanSummary> Out;
  for (const Tracer *T : Tracers) {
    std::vector<uint64_t> Self = selfTimes(T->spans());
    for (size_t I = 0; I < T->spans().size(); ++I) {
      const SpanRecord &S = T->spans()[I];
      SpanSummary &Sum = Out[S.Name];
      ++Sum.Count;
      Sum.TotalMs += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
      Sum.SelfMs += static_cast<double>(Self[I]) / 1e6;
    }
  }
  return Out;
}

bool perfbench::writeTrace(const std::string &Path,
                           const std::vector<const Tracer *> &Tracers) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  uint64_t Base = UINT64_MAX;
  for (const Tracer *T : Tracers)
    for (const SpanRecord &S : T->spans())
      Base = std::min(Base, S.StartNs);
  OS << "{\"traceEvents\":[";
  bool First = true;
  for (const Tracer *T : Tracers) {
    std::vector<uint64_t> Self = selfTimes(T->spans());
    for (size_t I = 0; I < T->spans().size(); ++I) {
      const SpanRecord &S = T->spans()[I];
      OS << (First ? "\n" : ",\n");
      First = false;
      OS << "{\"name\":\"" << S.Name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << S.Thread << ",\"ts\":" << jsonNumber((S.StartNs - Base) / 1e3)
         << ",\"dur\":" << jsonNumber((S.EndNs - S.StartNs) / 1e3)
         << ",\"args\":{\"op\":" << S.Op << ",\"id\":" << I
         << ",\"parent\":" << S.Parent
         << ",\"self_us\":" << jsonNumber(Self[I] / 1e3) << "}}";
    }
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

//===----------------------------------------------------------------------===//
// Report.
//===----------------------------------------------------------------------===//

void Report::e2e(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> Lock(Mu);
  E2E[Name] = Value;
}

void Report::layer(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> Lock(Mu);
  Layer[Name] = Value;
}

void Report::distribution(const std::string &Name, const Samples &S) {
  double P = tailPercentile(S.size());
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%-34s p50 %10.4f ms   p%-4g %10.4f ms   n=%zu", Name.c_str(),
                S.median(), P, S.percentile(P), S.size());
  note(Buf);
}

void Report::note(const std::string &Line) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::cout << "# " << Line << "\n" << std::flush;
}

void Report::fail(const std::string &Why) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Failed;
  // Every failure counts; the first few are shown so a broken run says
  // why without flooding the output.
  if (++FailuresShown <= 10)
    std::cerr << "perfbench: FAILED: " << Why << "\n";
}

void Report::printResult(const Options &Opts) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto Obj = [](const std::map<std::string, double> &M) {
    std::ostringstream OS;
    OS << "{";
    for (auto It = M.begin(); It != M.end(); ++It)
      OS << (It == M.begin() ? "" : ", ") << "\"" << jsonEscape(It->first)
         << "\": " << jsonNumber(It->second);
    OS << "}";
    return OS.str();
  };
  std::cout << "{\"correct\": " << (Failed == 0 ? "true" : "false")
            << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
            << ", \"e2e\": " << Obj(E2E) << ", \"layer\": " << Obj(Layer)
            << ", \"host\": " << hostJson(Opts) << "}\n"
            << std::flush;
}

//===----------------------------------------------------------------------===//
// Process environment.
//===----------------------------------------------------------------------===//

void perfbench::makeHermetic(const std::string &WorkDir) {
  ::unsetenv("ALF_VERIFY");
  ::unsetenv("ALF_OBS");
  ::unsetenv("ALF_JIT_CACHE_DIR");
  std::error_code EC;
  ::setenv("TMPDIR", std::filesystem::absolute(WorkDir, EC).c_str(), 1);
  alf::obs::setLevel(alf::obs::ObsLevel::Off);
}

int perfbench::pinToCurrentCpu() {
  int Cpu = ::sched_getcpu();
  if (Cpu < 0)
    return -1;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return ::sched_setaffinity(0, sizeof(Set), &Set) == 0 ? Cpu : -1;
}

namespace {

std::string readFirstLine(const std::string &Path) {
  std::ifstream IS(Path);
  std::string Line;
  std::getline(IS, Line);
  return Line;
}

std::string commandFirstLine(const char *Cmd) {
  std::string Out;
  if (FILE *F = ::popen(Cmd, "r")) {
    char Buf[512];
    if (std::fgets(Buf, sizeof(Buf), F))
      Out = Buf;
    ::pclose(F);
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Out;
}

} // namespace

std::string perfbench::hostJson(const Options &Opts) {
  std::string Cpu;
  {
    std::ifstream IS("/proc/cpuinfo");
    std::string Line;
    while (std::getline(IS, Line))
      if (Line.rfind("model name", 0) == 0) {
        Cpu = Line.substr(Line.find(':') + 2);
        break;
      }
  }
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int Allowed = ::sched_getaffinity(0, sizeof(Set), &Set) == 0
                    ? CPU_COUNT(&Set)
                    : -1;
  std::ostringstream OS;
  OS << "{\"cpu\": \"" << jsonEscape(Cpu)
     << "\", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpus_used\": " << Allowed;
  // Cache sizes as the kernel reports them for cpu0 (per instance).
  for (unsigned I = 0; I < 8; ++I) {
    std::string Dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(I) + "/";
    std::string Level = readFirstLine(Dir + "level");
    if (Level.empty())
      break;
    std::string Type = readFirstLine(Dir + "type");
    if (Type == "Instruction")
      continue;
    OS << ", \"l" << Level << (Type == "Data" ? "d" : "") << "\": \""
       << jsonEscape(readFirstLine(Dir + "size")) << "\"";
  }
  OS << ", \"cc\": \"" << jsonEscape(commandFirstLine("cc --version 2>&1"))
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"workload\": \"" << jsonEscape(Opts.Workload)
     << "\", \"seed\": " << Opts.Seed << ", \"trace\": " << Opts.Trace << "}";
  return OS.str();
}

double perfbench::peakRssMiB() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that
  // was larger.
  std::ifstream IS("/proc/self/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

double perfbench::currentRssMiB() {
  std::ifstream IS("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  IS >> Size >> Resident;
  return static_cast<double>(Resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void perfbench::removeTree(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}
