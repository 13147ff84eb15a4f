//===- tests/ASDGTest.cpp - Dependence graph tests --------------------------===//

#include "analysis/ASDG.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;

namespace {

/// Finds the edge Src->Tgt; null when absent.
const DepEdge *findEdge(const ASDG &G, unsigned Src, unsigned Tgt) {
  for (const DepEdge &E : G.edges())
    if (E.Src == Src && E.Tgt == Tgt)
      return &E;
  return nullptr;
}

bool hasLabel(const DepEdge &E, const std::string &Var, DepType T,
              std::optional<Offset> UDV) {
  for (const DepLabel &L : E.Labels)
    if (L.Var->getName() == Var && L.Type == T && L.UDV == UDV)
      return true;
  return false;
}

TEST(ASDGTest, Figure2UDVsMatchPaper) {
  auto P = tp::makeFigure2();
  ASDG G = ASDG::build(*P);
  EXPECT_EQ(G.numNodes(), 3u);

  // Paper section 2.2: "the unconstrained distance vectors that arise from
  // the dependences in the code in Figure 2(b) are (0,1) and (1,-1) for
  // array A and (-1,0) for array B."
  const DepEdge *E01 = findEdge(G, 0, 1);
  ASSERT_NE(E01, nullptr);
  EXPECT_TRUE(hasLabel(*E01, "A", DepType::Flow, Offset({0, 1})));

  const DepEdge *E02 = findEdge(G, 0, 2);
  ASSERT_NE(E02, nullptr);
  EXPECT_TRUE(hasLabel(*E02, "A", DepType::Flow, Offset({1, -1})));
  EXPECT_TRUE(hasLabel(*E02, "B", DepType::Anti, Offset({-1, 0})));

  // No dependence between statements 2 and 3 ("there are no constraints on
  // the structure of the second loop nest").
  EXPECT_EQ(findEdge(G, 1, 2), nullptr);
}

TEST(ASDGTest, OutputDependence) {
  Program P("t");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, A, aref(B));
  P.assign(R, A, Offset({1}), aref(B, {1}));
  ASDG G = ASDG::build(P);
  const DepEdge *E = findEdge(G, 0, 1);
  ASSERT_NE(E, nullptr);
  EXPECT_TRUE(hasLabel(*E, "A", DepType::Output, Offset({-1})));
}

TEST(ASDGTest, ReadReadIsNotADependence) {
  Program P("t");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R, B, aref(A));
  P.assign(R, C, aref(A, {1}));
  ASDG G = ASDG::build(P);
  EXPECT_EQ(G.numEdges(), 0u);
}

TEST(ASDGTest, MultipleLabelsDeduplicated) {
  Program P("t");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, A, aref(B));
  // Two identical reads at the same offset: one label only.
  P.assign(R, B, add(aref(A), aref(A)));
  ASDG G = ASDG::build(P);
  const DepEdge *E = findEdge(G, 0, 1);
  ASSERT_NE(E, nullptr);
  unsigned FlowCount = 0;
  for (const DepLabel &L : E->Labels)
    if (L.Type == DepType::Flow)
      ++FlowCount;
  EXPECT_EQ(FlowCount, 1u);
}

TEST(ASDGTest, OpaqueAccessesAreUnrepresentable) {
  Program P("t");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, A, aref(B));
  P.opaque("scan", R, {A}, {B});
  ASDG G = ASDG::build(P);
  const DepEdge *E = findEdge(G, 0, 1);
  ASSERT_NE(E, nullptr);
  // Flow on A with unknown distance and anti on B with unknown distance.
  EXPECT_TRUE(hasLabel(*E, "A", DepType::Flow, std::nullopt));
  EXPECT_TRUE(hasLabel(*E, "B", DepType::Anti, std::nullopt));
}

TEST(ASDGTest, CommStmtOrdersProducersAndConsumers) {
  Program P("t");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R, A, aref(B));       // S0: produces A
  P.comm(A, Offset({1}));        // S1: exchange A
  P.assign(R, C, aref(A, {1}));  // S2: consumes A's halo
  ASDG G = ASDG::build(P);
  ASSERT_NE(findEdge(G, 0, 1), nullptr);
  ASSERT_NE(findEdge(G, 1, 2), nullptr);
  EXPECT_TRUE(hasLabel(*findEdge(G, 1, 2), "A", DepType::Flow, std::nullopt));
}

TEST(ASDGTest, ReferenceWeightCountsRefsTimesRegionSize) {
  auto P = tp::makeUserTempPair(16); // region 16x16 = 256
  ASDG G = ASDG::build(*P);
  const Symbol *A = P->findSymbol("A");
  const Symbol *B = P->findSymbol("B");
  EXPECT_DOUBLE_EQ(G.referenceWeight(A), 2 * 256.0); // two reads in S0
  EXPECT_DOUBLE_EQ(G.referenceWeight(B), 2 * 256.0); // write + read
}

TEST(ASDGTest, ArraysByDecreasingWeight) {
  Program P("t");
  const Region *R = P.regionFromExtents({4});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R, A, add(aref(B), aref(B)));             // B: 2 refs
  P.assign(R, C, add(add(aref(B), aref(A)), cst(1))); // B: 3, A: 2, C: 1
  ASDG G = ASDG::build(P);
  auto Sorted = G.arraysByDecreasingWeight();
  ASSERT_EQ(Sorted.size(), 3u);
  EXPECT_EQ(Sorted[0]->getName(), "B");
  EXPECT_EQ(Sorted[1]->getName(), "A");
  EXPECT_EQ(Sorted[2]->getName(), "C");
}

TEST(ASDGTest, StatementsReferencing) {
  auto P = tp::makeFigure2();
  ASDG G = ASDG::build(*P);
  auto Refs = G.statementsReferencing(P->findSymbol("A"));
  EXPECT_EQ(std::vector<unsigned>(Refs.begin(), Refs.end()),
            (std::vector<unsigned>{0, 1, 2}));
  auto RefsC = G.statementsReferencing(P->findSymbol("C"));
  EXPECT_EQ(std::vector<unsigned>(RefsC.begin(), RefsC.end()),
            (std::vector<unsigned>{1}));
}

TEST(ASDGTest, TransitiveReduction) {
  // T -> U -> V with a direct T -> V dependence: the direct edge is
  // implied by the path and drops out of the reduction.
  Program P("tr");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ArraySymbol *U = P.makeUserTemp("U", 1);
  ArraySymbol *V = P.makeArray("V", 1);
  P.assign(R, T, aref(A));
  P.assign(R, U, aref(T));
  P.assign(R, V, add(aref(U), aref(T)));
  ASDG G = ASDG::build(P);
  EXPECT_EQ(G.numEdges(), 3u);
  auto Reduced = G.transitiveReductionEdges();
  ASSERT_EQ(Reduced.size(), 2u);
  for (unsigned EdgeId : Reduced) {
    const DepEdge &E = G.getEdge(EdgeId);
    EXPECT_FALSE(E.Src == 0 && E.Tgt == 2)
        << "the implied edge S0 -> S2 must be reduced away";
  }
  // Reduced dot output contains fewer arrows.
  EXPECT_LT(G.dot(/*Reduced=*/true).size(), G.dot().size());
}

TEST(ASDGTest, TransitiveReductionKeepsUnimpliedEdges) {
  auto P = tp::makeFigure2();
  ASDG G = ASDG::build(*P);
  // Figure 2's two edges are not implied by paths: both survive.
  EXPECT_EQ(G.transitiveReductionEdges().size(), G.numEdges());
}

TEST(ASDGTest, PrintDoesNotCrash) {
  auto P = tp::makeFigure2();
  ASDG G = ASDG::build(*P);
  std::ostringstream OS;
  G.print(OS);
  EXPECT_NE(OS.str().find("S0 -> S1"), std::string::npos);
  EXPECT_FALSE(G.dot().empty());
}

} // namespace
