//===- tests/PartitionGoldenTest.cpp - Fusion partition snapshots ------------===//
//
// Pins the exact output of every fusion pass on the benchmark programs:
// the cluster of each statement and the names of the contracted arrays,
// for the paper's eight strategies, the exact partitioner, the partial
// contraction extension and the five vendor models. The census tests
// only count clusters and arrays; this snapshot catches a refactor that
// keeps the counts but moves a statement or swaps a contracted array.
//
// The expected text lives in golden/partitions.txt, one line per
// (program, pass). On a mismatch the test also writes the snapshot this
// build produced to PartitionGoldenTest.actual in its working directory,
// so the two files can be diffed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "ir/Normalize.h"
#include "vendors/CompilerModel.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace alf;
using namespace alf::analysis;
using namespace alf::benchprogs;
using namespace alf::ir;
using namespace alf::xform;

namespace {

/// Programs the exact partitioner solves within its node budget quickly.
bool solvedByIlp(const std::string &Name) {
  return Name == "EP" || Name == "Frac" || Name == "Tomcatv" ||
         Name == "Fibro" || Name == "Knn";
}

std::string clusterList(const std::vector<unsigned> &ClusterOf) {
  std::string Out;
  for (unsigned Cl : ClusterOf)
    Out += (Out.empty() ? "" : " ") + std::to_string(Cl);
  return Out;
}

std::string describe(const StrategyResult &SR) {
  std::vector<unsigned> ClusterOf;
  for (unsigned I = 0; I < SR.Partition.numStmts(); ++I)
    ClusterOf.push_back(SR.Partition.clusterOf(I));
  std::string Out = "clusters=" + clusterList(ClusterOf) + " contracted=";
  for (size_t I = 0; I < SR.Contracted.size(); ++I)
    Out += (I ? "," : "") + SR.Contracted[I]->getName();
  return Out;
}

std::string describe(const std::vector<PartialPlan> &Plans) {
  std::string Out = " partial=";
  for (size_t I = 0; I < Plans.size(); ++I) {
    Out += (I ? "," : "") + Plans[I].Array->getName() + "[";
    for (size_t D = 0; D < Plans[I].BufferExtents.size(); ++D)
      Out += (D ? "x" : "") + std::to_string(Plans[I].BufferExtents[D]);
    Out += "]";
  }
  return Out;
}

/// Every pass on one benchmark at size \p N, one "key: value" line each.
void snapshot(const BenchmarkInfo &B, int64_t N, std::ostream &OS) {
  auto P = B.Build(N);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);

  for (Strategy S : allStrategies())
    OS << B.Name << " " << getStrategyName(S) << ": "
       << describe(applyStrategy(G, S)) << "\n";
  if (solvedByIlp(B.Name))
    OS << B.Name << " ilp: " << describe(applyStrategy(G, Strategy::IlpOptimal))
       << "\n";

  const std::pair<const char *, SequentialDims> SeqCases[] = {
      {"{0}", SequentialDims::dims({0})},
      {"{1}", SequentialDims::dims({1})},
      {"{0,1}", SequentialDims::dims({0, 1})}};
  for (const auto &[Label, Seq] : SeqCases) {
    std::vector<PartialPlan> Plans;
    StrategyResult SR =
        applyStrategyWithPartialContraction(G, Strategy::C2, Seq, Plans);
    OS << B.Name << " c2 seq" << Label << ": " << describe(SR)
       << describe(Plans) << "\n";
  }

  for (const vendors::VendorPolicy &Policy : vendors::allVendorPolicies()) {
    vendors::VendorRun Run = vendors::runVendorPipeline(B.Build(N), Policy);
    OS << B.Name << " vendor " << Policy.Name
       << ": clusters=" << clusterList(Run.ClusterOf) << " contracted=";
    bool First = true;
    for (const std::string &Name : Run.ContractedNames) {
      OS << (First ? "" : ",") << Name;
      First = false;
    }
    OS << "\n";
  }
}

/// Splits "key: value" lines into a map, keeping the key order separately.
std::map<std::string, std::string> parseLines(const std::string &Text,
                                              std::vector<std::string> &Keys) {
  std::map<std::string, std::string> Lines;
  std::istringstream IS(Text);
  std::string Line;
  while (std::getline(IS, Line)) {
    size_t Colon = Line.find(": ");
    if (Line.empty() || Colon == std::string::npos)
      continue;
    Keys.push_back(Line.substr(0, Colon));
    Lines[Keys.back()] = Line.substr(Colon + 2);
  }
  return Lines;
}

TEST(PartitionGoldenTest, EveryPassMatchesTheSnapshot) {
  std::ostringstream Actual;
  for (const BenchmarkInfo &B : allBenchmarks())
    snapshot(B, 16, Actual);
  for (const BenchmarkInfo &B : zooBenchmarks())
    snapshot(B, 8, Actual);

  std::ifstream In(ALF_PARTITION_GOLDEN);
  ASSERT_TRUE(In.good()) << "cannot read " << ALF_PARTITION_GOLDEN;
  std::stringstream Expected;
  Expected << In.rdbuf();

  std::vector<std::string> ActualKeys, ExpectedKeys;
  auto ActualLines = parseLines(Actual.str(), ActualKeys);
  auto ExpectedLines = parseLines(Expected.str(), ExpectedKeys);
  EXPECT_EQ(ActualKeys, ExpectedKeys);
  for (const std::string &Key : ExpectedKeys)
    EXPECT_EQ(ActualLines[Key], ExpectedLines[Key]) << Key;

  if (::testing::Test::HasFailure())
    std::ofstream("PartitionGoldenTest.actual") << Actual.str();
}

} // namespace
