//===- tests/PartialContractionTest.cpp - Lower-dimensional contraction ------===//

#include "xform/PartialContraction.h"

#include "analysis/ASDG.h"
#include "exec/Interpreter.h"
#include "exec/PerfModel.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "scalarize/Scalarize.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

/// S0: T := A; S1: B := T@Off — a producer/consumer pair with a carried
/// flow dependence (not fusible under the strict Definition 5).
std::unique_ptr<Program> makeCarriedPair(Offset ReadOff, int64_t N = 8) {
  auto P = std::make_unique<Program>("carried");
  const Region *R = P->regionFromExtents({N, N});
  ArraySymbol *A = P->makeArray("A", 2);
  ArraySymbol *T = P->makeUserTemp("T", 2);
  ArraySymbol *B = P->makeArray("B", 2);
  P->assign(R, T, add(aref(A), cst(1.0)));
  P->assign(R, B, add(aref(T, std::move(ReadOff)), aref(T)));
  return P;
}

TEST(SequentialDimsTest, Queries) {
  SequentialDims None = SequentialDims::none();
  EXPECT_FALSE(None.isSequential(0));
  EXPECT_FALSE(None.isSequential(5));
  SequentialDims D1 = SequentialDims::dims({1});
  EXPECT_FALSE(D1.isSequential(0));
  EXPECT_TRUE(D1.isSequential(1));
  EXPECT_FALSE(D1.isSequential(2));
}

TEST(RelaxedLegalityTest, SequentialFlowDistanceAllowed) {
  auto P = makeCarriedPair({-1, 0}); // flow UDV (1,0): carried in dim 0
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  // Strict Definition 5 refuses (loop-carried flow).
  EXPECT_FALSE(isLegalFusion(FP, {0, 1}));
  // Relaxed along dim 0: legal.
  EXPECT_TRUE(isLegalFusion(FP, {0, 1}, SequentialDims::dims({0})));
  // Relaxed along dim 1 only: still illegal (distance is in dim 0).
  EXPECT_FALSE(isLegalFusion(FP, {0, 1}, SequentialDims::dims({1})));
}

TEST(RelaxedLegalityTest, PartiallyContractible) {
  auto P = makeCarriedPair({-1, 0});
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  const auto *T = cast<ArraySymbol>(P->findSymbol("T"));
  EXPECT_FALSE(isContractible(FP, {0, 1}, T));
  EXPECT_TRUE(
      isContractible(FP, {0, 1}, T, SequentialDims::dims({0})));
  EXPECT_FALSE(
      isContractible(FP, {0, 1}, T, SequentialDims::dims({1})));
}

TEST(PartialPlanTest, OutermostCarryGivesRollingWindow) {
  // Dependence carried by the outermost loop: T becomes a 2-plane
  // rolling buffer (w+1 = 2) with full rows.
  auto P = makeCarriedPair({-1, 0});
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  SequentialDims Seq = SequentialDims::dims({0});
  EXPECT_EQ(fuseForPartialContraction(FP, Seq), 1u);
  auto Plans = planPartialContraction(FP, Seq, {});
  ASSERT_EQ(Plans.size(), 1u);
  EXPECT_EQ(Plans[0].Array->getName(), "T");
  EXPECT_EQ(Plans[0].BufferExtents, (std::vector<int64_t>{2, 8}));
  EXPECT_TRUE(Plans[0].isReduced(0));
  EXPECT_FALSE(Plans[0].isReduced(1));
  // The footprint includes the halo row read at @(-1,0): 9 x 8 elements.
  EXPECT_EQ(Plans[0].origBytes(), 9u * 8u * 8u);
  EXPECT_EQ(Plans[0].bufferBytes(), 2u * 8u * 8u);
  // Buffer bounds: modular dim is [0..1], the full dim keeps footprint.
  Region BR = Plans[0].bufferRegion();
  EXPECT_EQ(BR.lo(0), 0);
  EXPECT_EQ(BR.hi(0), 1);
  EXPECT_EQ(BR.extent(1), 8);
}

TEST(PartialPlanTest, InnerCarryWithHaloReadsKeepsFullCarryDim) {
  // Dependence carried by the inner loop, and the consumer reads outside
  // the written range (column 0): the carry dimension must keep its full
  // extent; the outer dimension still contracts to one row.
  auto P = makeCarriedPair({0, -1});
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  SequentialDims Seq = SequentialDims::dims({1});
  EXPECT_EQ(fuseForPartialContraction(FP, Seq), 1u);
  auto Plans = planPartialContraction(FP, Seq, {});
  ASSERT_EQ(Plans.size(), 1u);
  EXPECT_EQ(Plans[0].BufferExtents, (std::vector<int64_t>{1, 9}));
  EXPECT_TRUE(Plans[0].isReduced(0));
}

TEST(PartialPlanTest, WrapMapsCoordinatesModulo) {
  PartialPlan Plan;
  Plan.OrigLo = {1, 0};
  Plan.FullExtents = {8, 8};
  Plan.BufferExtents = {2, 8};
  EXPECT_EQ(Plan.wrap(0, 1), 0);
  EXPECT_EQ(Plan.wrap(0, 2), 1);
  EXPECT_EQ(Plan.wrap(0, 3), 0);
  EXPECT_EQ(Plan.wrap(0, 0), 1);  // halo below lo wraps positively
  EXPECT_EQ(Plan.wrap(1, 5), 5);  // unreduced dim: identity
}

TEST(PartialContractionTest, InterpreterEquivalenceOuterCarry) {
  auto P = makeCarriedPair({-1, 0}, 10);
  ASDG G = ASDG::build(*P);
  auto Base = scalarize::scalarizeWithStrategy(G, Strategy::Baseline);
  auto Partial = scalarize::scalarizeWithPartialContraction(
      G, Strategy::C2, SequentialDims::dims({0}));
  EXPECT_EQ(Partial.partialPlans().size(), 1u);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(Base, 77), run(Partial, 77), 0.0, &Why))
      << Why;
}

TEST(PartialContractionTest, InterpreterEquivalenceInnerCarry) {
  auto P = makeCarriedPair({0, -1}, 10);
  ASDG G = ASDG::build(*P);
  auto Base = scalarize::scalarizeWithStrategy(G, Strategy::Baseline);
  auto Partial = scalarize::scalarizeWithPartialContraction(
      G, Strategy::C2, SequentialDims::dims({1}));
  EXPECT_EQ(Partial.partialPlans().size(), 1u);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(Base, 78), run(Partial, 78), 0.0, &Why))
      << Why;
}

TEST(PartialContractionTest, ForwardSubstitutionSweep) {
  // SP-style: z produced, consumed at an offset by the next statement,
  // plus the full contraction of an ordinary chain in the same program.
  Program P("sweep");
  const Region *R = P.regionFromExtents({12, 12});
  ArraySymbol *U = P.makeArray("U", 2);
  ArraySymbol *V = P.makeArray("V", 2);
  ArraySymbol *Z = P.makeUserTemp("Z", 2);
  ArraySymbol *T = P.makeUserTemp("T", 2);
  P.assign(R, Z, add(aref(U), cst(0.5)));
  P.assign(R, T, mul(aref(Z, {-2, 0}), cst(0.25))); // distance 2 in dim 0
  P.assign(R, V, add(aref(T), aref(U)));
  ASDG G = ASDG::build(P);
  auto Base = scalarize::scalarizeWithStrategy(G, Strategy::Baseline);
  auto Partial = scalarize::scalarizeWithPartialContraction(
      G, Strategy::C2, SequentialDims::dims({0}));
  // T contracts fully; Z becomes a 3-plane rolling buffer.
  const auto *ZSym = cast<ArraySymbol>(P.findSymbol("Z"));
  const auto *TSym = cast<ArraySymbol>(P.findSymbol("T"));
  EXPECT_TRUE(Partial.isContracted(TSym));
  const xform::PartialPlan *Plan = Partial.partialPlanFor(ZSym);
  ASSERT_NE(Plan, nullptr);
  EXPECT_EQ(Plan->BufferExtents[0], 3);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(Base, 99), run(Partial, 99), 0.0, &Why))
      << Why;
}

TEST(PartialContractionTest, NoSequentialDimsMeansNoPlans) {
  auto P = makeCarriedPair({-1, 0});
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarizeWithPartialContraction(
      G, Strategy::C2, SequentialDims::none());
  EXPECT_TRUE(LP.partialPlans().empty());
}

TEST(PartialContractionTest, ReducesSimulatedFootprintTraffic) {
  auto P = makeCarriedPair({-1, 0}, 64);
  ASDG G = ASDG::build(*P);
  auto Full = scalarize::scalarizeWithStrategy(G, Strategy::C2);
  auto Partial = scalarize::scalarizeWithPartialContraction(
      G, Strategy::C2, SequentialDims::dims({0}));
  machine::MachineDesc M = machine::crayT3E();
  machine::ProcGrid Grid = machine::ProcGrid::make(1, 2);
  PerfStats SFull = simulate(Full, M, Grid);
  PerfStats SPartial = simulate(Partial, M, Grid);
  // The rolling buffer stays cache-resident: fewer L1 misses.
  EXPECT_LT(SPartial.Refs - SPartial.L1Hits, SFull.Refs - SFull.L1Hits);
}

/// Property sweep: partial contraction with every dimension sequential
/// must preserve semantics on random programs (the strongest stress on
/// rolling-buffer safety).
class PartialEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartialEquivalence, RandomProgramsPreserveSemantics) {
  GeneratorConfig Cfg;
  Cfg.Seed = GetParam();
  Cfg.NumStmts = 5 + static_cast<unsigned>(GetParam() % 8);
  Cfg.Extent = 7;
  Cfg.MaxOffset = 1 + static_cast<unsigned>(GetParam() % 2);
  auto P = generateRandomProgram(Cfg);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto Base = scalarize::scalarizeWithStrategy(G, Strategy::Baseline);
  auto Partial = scalarize::scalarizeWithPartialContraction(
      G, Strategy::C2, SequentialDims::dims({0, 1}));
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(Base, GetParam() ^ 0x5555),
                           run(Partial, GetParam() ^ 0x5555), 0.0, &Why))
      << "seed " << GetParam() << ": " << Why << "\n"
      << P->str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartialEquivalence,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
