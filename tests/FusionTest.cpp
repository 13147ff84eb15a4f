//===- tests/FusionTest.cpp - Fusion partition and algorithm tests ----------===//

#include "xform/Fusion.h"
#include "xform/Strategy.h"

#include "benchprogs/Benchmarks.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "support/Statistic.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <random>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

namespace {

bool contains(const std::vector<const ArraySymbol *> &Vec,
              const std::string &Name) {
  for (const ArraySymbol *A : Vec)
    if (A->getName() == Name)
      return true;
  return false;
}

TEST(FusionPartitionTest, TrivialPartition) {
  auto P = tp::makeFigure2();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_EQ(FP.numClusters(), 3u);
  for (unsigned I = 0; I < 3; ++I) {
    EXPECT_EQ(FP.clusterOf(I), I);
    EXPECT_EQ(FP.members(I), std::vector<unsigned>{I});
  }
  EXPECT_TRUE(isValidPartition(FP));
}

TEST(FusionPartitionTest, MergeIntoSmallestId) {
  auto P = tp::makeFigure2();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  unsigned Survivor = FP.merge({0, 2});
  EXPECT_EQ(Survivor, 0u);
  EXPECT_EQ(FP.numClusters(), 2u);
  EXPECT_EQ(FP.clusterOf(2), 0u);
  EXPECT_EQ(FP.members(0), (std::vector<unsigned>{0, 2}));
}

TEST(FusionPartitionTest, GrowFindsPathClusters) {
  // S0 -> S1 -> S2 with S0 and S2 referencing X: fusing {S0,S2} without S1
  // would create a cycle, so GROW must return {S1}.
  Program P("grow");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *X = P.makeUserTemp("X", 1);
  ArraySymbol *Y = P.makeUserTemp("Y", 1);
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, X, aref(A));               // S0 writes X
  P.assign(R, Y, aref(X));               // S1 reads X, writes Y
  P.assign(R, B, add(aref(Y), aref(X))); // S2 reads X and Y
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  std::set<unsigned> C{0, 2};
  EXPECT_EQ(FP.grow(C), std::set<unsigned>{1});
  // Growing a closed set adds nothing.
  std::set<unsigned> All{0, 1, 2};
  EXPECT_TRUE(FP.grow(All).empty());

  // Definition 5 condition (iii): every dependence here has a null UDV,
  // so only the cycle through S1 makes {S0,S2} illegal; the GROW-closed
  // set is legal.
  EXPECT_FALSE(isLegalFusion(FP, C));
  EXPECT_TRUE(isLegalFusion(FP, All));
  // Whole-partition acyclicity: {S0,S2} and {S1} depend on each other.
  EXPECT_FALSE(isValidPartition(FusionPartition::fromAssignment(G, {0, 1, 0})));
}

/// The quotient queries of \p P recomputed from scratch out of clusterOf
/// and the ASDG's edge list, and compared with what \p P maintains.
void expectQuotientMatchesRecomputation(const FusionPartition &P,
                                        std::mt19937_64 &Rng,
                                        const std::string &Where) {
  const ASDG &G = P.graph();
  unsigned N = P.numStmts();
  std::vector<std::vector<unsigned>> Members(N);
  for (unsigned I = 0; I < N; ++I)
    Members[P.clusterOf(I)].push_back(I);
  std::set<std::pair<unsigned, unsigned>> Arcs;
  for (const DepEdge &E : G.edges())
    if (P.clusterOf(E.Src) != P.clusterOf(E.Tgt))
      Arcs.insert({P.clusterOf(E.Src), P.clusterOf(E.Tgt)});
  std::vector<unsigned> Clusters;
  for (unsigned Cl = 0; Cl < N; ++Cl)
    if (!Members[Cl].empty())
      Clusters.push_back(Cl);

  ASSERT_EQ(P.clusters(), Clusters) << Where;
  EXPECT_EQ(P.numClusters(), Clusters.size()) << Where;
  for (unsigned Cl : Clusters)
    EXPECT_EQ(P.members(Cl), Members[Cl]) << Where << " cluster " << Cl;
  using ArcList = std::vector<std::pair<unsigned, unsigned>>;
  EXPECT_EQ(P.clusterEdges(), ArcList(Arcs.begin(), Arcs.end())) << Where;

  // GROW of random cluster sets: reachable from C and reaching C.
  auto Reach = [&](const std::set<unsigned> &C, bool Forward) {
    std::set<unsigned> Seen(C.begin(), C.end());
    std::vector<unsigned> Work(C.begin(), C.end());
    while (!Work.empty()) {
      unsigned Node = Work.back();
      Work.pop_back();
      for (auto [Src, Tgt] : Arcs) {
        unsigned From = Forward ? Src : Tgt, To = Forward ? Tgt : Src;
        if (From == Node && Seen.insert(To).second)
          Work.push_back(To);
      }
    }
    return Seen;
  };
  for (unsigned Query = 0; Query < 4; ++Query) {
    std::set<unsigned> C;
    unsigned Size = 1 + static_cast<unsigned>(Rng() % 3);
    for (unsigned K = 0; K < Size; ++K)
      C.insert(Clusters[Rng() % Clusters.size()]);
    std::set<unsigned> Fwd = Reach(C, true), Bwd = Reach(C, false);
    std::set<unsigned> Expected;
    for (unsigned Cl : Fwd)
      if (Bwd.count(Cl) && !C.count(Cl))
        Expected.insert(Cl);
    EXPECT_EQ(P.grow(C), Expected) << Where << " query " << Query;
    std::vector<unsigned> Stmts;
    for (unsigned Cl : C)
      Stmts.insert(Stmts.end(), Members[Cl].begin(), Members[Cl].end());
    std::sort(Stmts.begin(), Stmts.end());
    EXPECT_EQ(P.memberStmts(C), Stmts) << Where << " query " << Query;
  }
}

TEST(FusionPartitionTest, QuotientMatchesRecomputation) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    GeneratorConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumStmts = 6 + static_cast<unsigned>(Seed % 10);
    Cfg.NumTemps = 2 + static_cast<unsigned>(Seed % 4);
    Cfg.Rank = 1 + static_cast<unsigned>(Seed % 3);
    Cfg.Extent = 6;
    Cfg.UseTwoRegions = Seed % 5 == 0;
    Cfg.AddOpaque = Seed % 7 == 0;
    auto Prog = generateRandomProgram(Cfg);
    normalizeProgram(*Prog);
    ASDG G = ASDG::build(*Prog);
    std::mt19937_64 Rng(Seed);
    FusionPartition P = FusionPartition::trivial(G);
    std::string Where = "seed " + std::to_string(Seed);
    expectQuotientMatchesRecomputation(P, Rng, Where + " trivial");

    // Random GROW-closed legal merges of two clusters at a time.
    for (unsigned Step = 0; Step < 3 * P.numStmts(); ++Step) {
      std::vector<unsigned> Clusters = P.clusters();
      if (Clusters.size() < 2)
        break;
      std::set<unsigned> C{Clusters[Rng() % Clusters.size()],
                           Clusters[Rng() % Clusters.size()]};
      std::set<unsigned> Grown = P.grow(C);
      C.insert(Grown.begin(), Grown.end());
      if (C.size() < 2 || !isLegalFusion(P, C))
        continue;
      P.merge(C);
      std::string At = Where + " step " + std::to_string(Step);
      expectQuotientMatchesRecomputation(P, Rng, At);
      EXPECT_TRUE(isValidPartition(P)) << At;

      std::vector<unsigned> Assignment(P.numStmts());
      for (unsigned I = 0; I < P.numStmts(); ++I)
        Assignment[I] = P.clusterOf(I);
      expectQuotientMatchesRecomputation(
          FusionPartition::fromAssignment(G, Assignment), Rng,
          At + " fromAssignment");
      if (HasFatalFailure() || HasFailure())
        return;
    }
  }
}

/// Deterministic work of the strategy layer: c2+f3's Figure 3 passes
/// visit ASDG labels (CONTRACTIBLE? on Var's dependences, the statement
/// set conditions on the candidate's internal edges) and quotient arcs
/// (GROW). The paper bounds the passes by O(r*e) for r candidate arrays
/// and e ASDG edges. A flat statement-to-cluster map rescans every edge
/// per candidate; counted the same way, that visited about 5*r*e: SP
/// 4,542,929 against r*e = 928,892 (r=181, e=5,132), Floyd-Warshall
/// 1,314,737 against r*e = 256,768 (r=136, e=1,888). The maintained
/// quotient and the per-array dependence lists visit about r*e/40 and
/// r*e/30 (SP 23,456, Floyd-Warshall 8,392); the gate is r*e/10.
TEST(FusionWorkTest, GreedyVisitsStayUnderTenthOfRE) {
  struct Case {
    const benchprogs::BenchmarkInfo &B;
    int64_t N;
  };
  for (const Case &K : {Case{benchprogs::allBenchmarks()[2], 16},
                        Case{benchprogs::zooBenchmarks()[0], 8}}) {
    auto Prog = K.B.Build(K.N);
    normalizeProgram(*Prog);
    ASDG G = ASDG::build(*Prog);
    uint64_t R = G.arraysByDecreasingWeight().size(), E = G.numEdges();
    resetStatistics();
    applyStrategy(G, Strategy::C2F3);
    uint64_t Labels = getStatisticValue("fusion", "NumLabelsVisited");
    uint64_t Arcs = getStatisticValue("fusion", "NumQuotientArcsVisited");
    EXPECT_LE(10 * (Labels + Arcs), R * E)
        << K.B.Name << ": " << Labels << " labels + " << Arcs
        << " quotient arcs visited, r=" << R << " e=" << E;
  }
}

TEST(LegalityTest, RegionMismatchBlocksFusion) {
  Program P("regions");
  const Region *R1 = P.regionFromExtents({8});
  const Region *R2 = P.regionFromExtents({9});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R1, B, aref(A));
  P.assign(R2, C, aref(A));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isLegalFusion(FP, {0, 1}));
}

TEST(LegalityTest, NonNullFlowBlocksFusion) {
  // Definition 5 (ii): loop-carried flow dependences inhibit fusion.
  Program P("flow");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeUserTemp("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R, B, aref(A));
  P.assign(R, C, aref(B, {-1})); // flow UDV (0)-(-1) = (1)
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isLegalFusion(FP, {0, 1}));
}

TEST(LegalityTest, NullFlowAllowsFusion) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  LoopStructureVector LSV;
  EXPECT_TRUE(isLegalFusion(FP, {0, 1}, SequentialDims::none(), &LSV));
  EXPECT_EQ(LSV, LoopStructureVector::identity(2));
}

TEST(LegalityTest, AntiDependenceFusedByReversal) {
  // Figure 5 fragment (3) shape: S0 reads C@(-1,0); S1 writes C. The anti
  // UDV (-1,0) requires a reversed loop, which FIND-LOOP-STRUCTURE
  // provides (the commercial compilers in section 5.1 fail here).
  Program P("frag3");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, B, add(aref(A, {-1, 0}), aref(C, {-1, 0})));
  P.assign(R, C, mul(aref(A), aref(A)));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  LoopStructureVector LSV;
  ASSERT_TRUE(isLegalFusion(FP, {0, 1}, SequentialDims::none(), &LSV));
  EXPECT_EQ(LSV, LoopStructureVector({-1, 2}));
}

TEST(LegalityTest, CommStatementNeverFuses) {
  Program P("comm");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, A, aref(B));
  P.comm(A, Offset({1}));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isLegalFusion(FP, {0, 1}));
}

TEST(ContractibleTest, RequiresNullUDVsAndSingleCluster) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  const auto *B = cast<ArraySymbol>(P->findSymbol("B"));
  // Unfused: refs in two clusters.
  EXPECT_FALSE(isContractible(FP, B));
  // Hypothetically fused: contractible.
  EXPECT_TRUE(isContractible(FP, {0, 1}, B));
  FP.merge({0, 1});
  EXPECT_TRUE(isContractible(FP, B));
}

TEST(ContractibleTest, LiveOutNeverContractible) {
  Program P("liveout");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1); // live-out by default
  P.assign(R, B, aref(A));
  P.assign(R, A, aref(B));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isContractible(FP, {0, 1},
                              cast<ArraySymbol>(P.findSymbol("B"))));
}

TEST(ContractibleTest, UpwardExposedReadBlocksContraction) {
  // X is read before it is written: the live-in value is required, so the
  // array cannot become a scalar even though all UDVs are null.
  Program P("upward");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArrayOpts Opts;
  Opts.LiveOut = false;
  Opts.LiveIn = true;
  ArraySymbol *X = P.makeArray("X", 1, Opts);
  P.assign(R, A, aref(X)); // upward-exposed read of X
  P.assign(R, X, aref(B));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isContractible(FP, {0, 1},
                              cast<ArraySymbol>(P.findSymbol("X"))));
}

TEST(ContractibleTest, NonNullUDVBlocksContraction) {
  Program P("shifted");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeUserTemp("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R, B, aref(A));
  P.assign(R, C, aref(B, {1})); // UDV (0)-(1) = (-1), non-null
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isContractible(FP, {0, 1},
                              cast<ArraySymbol>(P.findSymbol("B"))));
}

TEST(FusionForContractionTest, UserTempPairContracts) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_EQ(fuseForContraction(FP, anyArray()), 1u);
  EXPECT_EQ(FP.numClusters(), 1u);
  auto Contracted = contractibleArrays(FP, anyArray());
  ASSERT_EQ(Contracted.size(), 1u);
  EXPECT_EQ(Contracted[0]->getName(), "B");
  EXPECT_TRUE(isValidPartition(FP));
}

TEST(FusionForContractionTest, TomcatvContractsRAndCompilerTemps) {
  // The paper's Figure 1 motivation: R contracts to a scalar.
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  EXPECT_TRUE(isWellFormed(*P));
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  fuseForContraction(FP, anyArray());
  auto Contracted = contractibleArrays(FP, anyArray());
  EXPECT_TRUE(contains(Contracted, "R"));
  EXPECT_TRUE(contains(Contracted, "_T1"));
  EXPECT_TRUE(contains(Contracted, "_T2"));
  EXPECT_EQ(Contracted.size(), 3u);
  EXPECT_TRUE(isValidPartition(FP));
}

TEST(FusionForContractionTest, CompilerOnlyFilterSkipsUserTemps) {
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  fuseForContraction(FP, compilerTempsOnly());
  auto Contracted = contractibleArrays(FP, compilerTempsOnly());
  EXPECT_FALSE(contains(Contracted, "R"));
  EXPECT_TRUE(contains(Contracted, "_T1"));
  EXPECT_TRUE(contains(Contracted, "_T2"));
}

TEST(FusionForLocalityTest, FusesIndependentReaders) {
  // Figure 5 fragment (1): B = A+A; C = A*A. No dependences; locality
  // fusion merges the two statements to reuse A.
  Program P("frag1");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, B, add(aref(A), aref(A)));
  P.assign(R, C, mul(aref(A), aref(A)));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_EQ(fuseForContraction(FP, anyArray()), 0u); // nothing contractible
  EXPECT_EQ(fuseForLocality(FP), 1u);
  EXPECT_EQ(FP.numClusters(), 1u);
}

TEST(FusionTest, PairwiseFusesEverythingLegal) {
  Program P("pairwise");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  ArraySymbol *D = P.makeArray("D", 1);
  P.assign(R, B, aref(A));
  P.assign(R, C, aref(A, {1}));
  P.assign(R, D, cst(0.0));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  fuseAllPairwise(FP);
  EXPECT_EQ(FP.numClusters(), 1u);
  EXPECT_TRUE(isValidPartition(FP));
}

TEST(StrategyTest, BaselineDoesNothing) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::Baseline);
  EXPECT_EQ(SR.Partition.numClusters(), 2u);
  EXPECT_TRUE(SR.Contracted.empty());
}

TEST(StrategyTest, C2ContractsUserTemp) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  EXPECT_EQ(SR.Partition.numClusters(), 1u);
  ASSERT_EQ(SR.Contracted.size(), 1u);
  EXPECT_EQ(SR.Contracted[0]->getName(), "B");
}

TEST(StrategyTest, F2FusesForUserButContractsCompilerOnly) {
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::F2);
  // Fusion happened for R as well...
  EXPECT_LT(SR.Partition.numClusters(), 6u);
  // ...but only compiler temporaries are contracted.
  for (const ArraySymbol *A : SR.Contracted)
    EXPECT_TRUE(A->isCompilerTemp());
}

TEST(StrategyTest, F1FusesButContractsNothing) {
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::F1);
  EXPECT_TRUE(SR.Contracted.empty());
}

TEST(StrategyTest, AllStrategiesProduceValidPartitions) {
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  for (Strategy S : allStrategiesForTest()) {
    StrategyResult SR = applyStrategy(G, S);
    EXPECT_TRUE(isValidPartition(SR.Partition)) << getStrategyName(S);
    // Contracted arrays must satisfy Definition 6 in the final partition.
    for (const ArraySymbol *A : SR.Contracted)
      EXPECT_TRUE(isContractible(SR.Partition, A)) << A->getName();
  }
}

TEST(StrategyTest, NamesAreStable) {
  EXPECT_STREQ(getStrategyName(Strategy::Baseline), "baseline");
  EXPECT_STREQ(getStrategyName(Strategy::C2F3), "c2+f3");
  EXPECT_STREQ(getStrategyName(Strategy::C2F4), "c2+f4");
  EXPECT_EQ(allStrategies().size(), 8u);
}

} // namespace
