//===- xform/Fusion.cpp - Statement fusion algorithms -----------------------===//

#include "xform/Fusion.h"

#include "support/Statistic.h"

#include <cassert>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

ArrayFilter xform::anyArray() {
  return [](const ArraySymbol *) { return true; };
}

ArrayFilter xform::compilerTempsOnly() {
  return [](const ArraySymbol *A) { return A->isCompilerTemp(); };
}

ALF_STATISTIC(NumCandidatesConsidered, "fusion",
              "Arrays considered by the greedy fusion loop");
ALF_STATISTIC(NumMergesPerformed, "fusion", "Cluster merges performed");
ALF_STATISTIC(NumRejectedContractible, "fusion",
              "Merges rejected by CONTRACTIBLE? or the pass's own test");
ALF_STATISTIC(NumRejectedLegality, "fusion",
              "Merges rejected by FUSION-PARTITION?");

std::vector<const ArraySymbol *> xform::weightOrder(const ASDG &G,
                                                    const ArrayFilter &Filter) {
  std::vector<const ArraySymbol *> Order;
  for (const ArraySymbol *Var : G.arraysByDecreasingWeight())
    if (Filter(Var))
      Order.push_back(Var);
  return Order;
}

MergeAccept xform::contractibleUnder(SequentialDims Seq) {
  return [Seq = std::move(Seq)](const FusionPartition &P,
                                const std::set<unsigned> &C,
                                const ArraySymbol *Var) {
    return isContractible(P, C, Var, Seq);
  };
}

unsigned xform::fuseGreedily(FusionPartition &P,
                             const std::vector<const ArraySymbol *> &Order,
                             const MergeAccept &Accept,
                             const SequentialDims &Seq) {
  const ASDG &G = P.graph();
  unsigned Merges = 0;
  for (const ArraySymbol *Var : Order) {
    // Line 5: clusters containing a reference to Var. P is acyclic, so a
    // single cluster lies on no cycle and GROW would add nothing to it.
    std::set<unsigned> C = P.clustersReferencing(Var);
    if (C.size() < 2)
      continue; // nothing to fuse
    ++NumCandidatesConsidered;

    // Line 7's tests reject every superset of a set they reject (the
    // pass's own test by MergeAccept's contract, FUSION-PARTITION?'s
    // statement-set conditions by monotonicity), so trying them on C
    // before line 6 spares the GROW for most rejected candidates and
    // decides nothing differently.
    auto Passes = [&](const std::set<unsigned> &Set) {
      if (!Accept(P, Set, Var)) {
        ++NumRejectedContractible;
        return false;
      }
      if (!isFusibleStmtSet(G, P.memberStmts(Set), Seq)) {
        ++NumRejectedLegality;
        return false;
      }
      return true;
    };
    if (!Passes(C))
      continue;

    // Line 6: close under GROW so the merge cannot create cycles; the
    // grown set must pass line 7 again. C is then GROW-closed and P
    // acyclic, so condition (iii) holds by construction.
    std::set<unsigned> Grown = P.grow(C);
    if (!Grown.empty()) {
      C.insert(Grown.begin(), Grown.end());
      if (!Passes(C))
        continue;
    }
    assert(P.grow(C).empty() && "GROW closure must leave no cycle");

    // Lines 8-10: merge into the smallest cluster id.
    P.merge(C);
    ++Merges;
    ++NumMergesPerformed;
  }
  return Merges;
}

unsigned xform::fuseForContraction(FusionPartition &P,
                                   const ArrayFilter &Candidates) {
  return fuseGreedily(P, weightOrder(P.graph(), Candidates),
                      contractibleUnder());
}

unsigned xform::fuseForLocality(FusionPartition &P) {
  return fuseGreedily(P, P.graph().arraysByDecreasingWeight(),
                      [](const FusionPartition &, const std::set<unsigned> &,
                         const ArraySymbol *) { return true; });
}

unsigned xform::fuseAllPairwise(FusionPartition &P) {
  const ir::Program &Prog = P.graph().getProgram();

  // Cheap per-cluster precheck: the region its statements share, or null
  // when the cluster cannot join a multi-statement nest at all.
  auto RegionOf = [&Prog, &P](unsigned Cluster) -> const ir::Region * {
    const ir::Region *Common = nullptr;
    for (unsigned StmtId : P.members(Cluster)) {
      const ir::Region *R = fusableRegion(Prog.getStmt(StmtId));
      if (!R)
        return nullptr;
      if (!Common)
        Common = R;
      else if (*Common != *R)
        return nullptr;
    }
    return Common;
  };

  unsigned Merges = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<unsigned> Clusters = P.clusters();
    std::set<unsigned> Dead;
    for (size_t I = 0; I < Clusters.size(); ++I) {
      if (Dead.count(Clusters[I]))
        continue;
      const ir::Region *RI = RegionOf(Clusters[I]);
      if (!RI)
        continue;
      for (size_t J = I + 1; J < Clusters.size(); ++J) {
        if (Dead.count(Clusters[J]) || Dead.count(Clusters[I]))
          break;
        const ir::Region *RJ = RegionOf(Clusters[J]);
        if (!RJ || *RI != *RJ)
          continue;
        std::set<unsigned> C{Clusters[I], Clusters[J]};
        std::set<unsigned> Grown = P.grow(C);
        C.insert(Grown.begin(), Grown.end());
        if (!isLegalFusion(P, C))
          continue;
        unsigned Survivor = P.merge(C);
        for (unsigned Cl : C)
          if (Cl != Survivor)
            Dead.insert(Cl);
        ++Merges;
        Changed = true;
        if (Survivor != Clusters[I])
          break; // this row's cluster was absorbed; move on
      }
    }
  }
  return Merges;
}

std::vector<const ArraySymbol *>
xform::contractibleArrays(const FusionPartition &P, const ArrayFilter &Allowed) {
  std::vector<const ArraySymbol *> Result;
  for (const ArraySymbol *A : P.graph().getProgram().arrays())
    if (Allowed(A) && isContractible(P, A))
      Result.push_back(A);
  return Result;
}

double xform::contractionBenefit(
    const FusionPartition &P, const std::vector<const ArraySymbol *> &Vars) {
  double Benefit = 0.0;
  for (const ArraySymbol *A : Vars)
    Benefit += P.graph().referenceWeight(A);
  return Benefit;
}
