//===- xform/FusionPartition.cpp - Fusion partitions ------------------------===//

#include "xform/FusionPartition.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

FusionPartition FusionPartition::trivial(const ASDG &Graph) {
  FusionPartition P;
  P.G = &Graph;
  P.ClusterOf.resize(Graph.numNodes());
  for (unsigned I = 0; I < Graph.numNodes(); ++I)
    P.ClusterOf[I] = I;
  return P;
}

FusionPartition FusionPartition::fromAssignment(const ASDG &Graph,
                                                std::vector<unsigned> Assignment) {
  assert(Assignment.size() == Graph.numNodes() &&
         "assignment must cover every statement");
  FusionPartition P;
  P.G = &Graph;
  P.ClusterOf = std::move(Assignment);
#ifndef NDEBUG
  for (unsigned I = 0; I < P.ClusterOf.size(); ++I) {
    assert(P.ClusterOf[I] <= I && "cluster id must be its smallest member");
    assert(P.ClusterOf[P.ClusterOf[I]] == P.ClusterOf[I] &&
           "cluster id must name an active cluster");
  }
#endif
  return P;
}

std::vector<unsigned> FusionPartition::clusters() const {
  // A cluster's id is the smallest member statement's id, so the set of
  // active ids is exactly {i : ClusterOf[i] == i}.
  std::vector<unsigned> Result;
  for (unsigned I = 0; I < ClusterOf.size(); ++I)
    if (ClusterOf[I] == I)
      Result.push_back(I);
  return Result;
}

std::vector<unsigned> FusionPartition::members(unsigned Cluster) const {
  std::vector<unsigned> Result;
  for (unsigned I = 0; I < ClusterOf.size(); ++I)
    if (ClusterOf[I] == Cluster)
      Result.push_back(I);
  return Result;
}

std::vector<unsigned>
FusionPartition::memberStmts(const std::set<unsigned> &C) const {
  std::vector<unsigned> Result;
  for (unsigned I = 0; I < ClusterOf.size(); ++I)
    if (C.count(ClusterOf[I]))
      Result.push_back(I);
  return Result;
}

unsigned FusionPartition::merge(const std::set<unsigned> &C) {
  assert(!C.empty() && "cannot merge an empty cluster set");
  unsigned Target = *C.begin(); // smallest id (set is ordered)
  for (unsigned I = 0; I < ClusterOf.size(); ++I)
    if (C.count(ClusterOf[I]))
      ClusterOf[I] = Target;
  return Target;
}

std::set<unsigned>
FusionPartition::clustersReferencing(const ir::Symbol *Var) const {
  std::set<unsigned> Result;
  for (unsigned StmtId : G->statementsReferencing(Var))
    Result.insert(ClusterOf[StmtId]);
  return Result;
}

std::vector<std::pair<unsigned, unsigned>>
FusionPartition::clusterEdges() const {
  std::set<std::pair<unsigned, unsigned>> Distinct;
  for (const DepEdge &E : G->edges()) {
    unsigned SC = ClusterOf[E.Src], TC = ClusterOf[E.Tgt];
    if (SC != TC)
      Distinct.insert({SC, TC});
  }
  return std::vector<std::pair<unsigned, unsigned>>(Distinct.begin(),
                                                    Distinct.end());
}

std::set<unsigned> FusionPartition::grow(const std::set<unsigned> &C) const {
  // Forward-reachable from C and backward-reachable to C on the quotient
  // graph; the intersection (minus C) is GROW. One application is closed:
  // any cluster reachable from C + GROW and reaching C + GROW is already
  // forward- and backward-reachable from/to C itself. Cluster ids are
  // statement ids, so numStmts() bounds them.
  std::vector<std::vector<unsigned>> Succ(numStmts()), Pred(numStmts());
  for (const DepEdge &E : G->edges()) {
    unsigned SC = ClusterOf[E.Src], TC = ClusterOf[E.Tgt];
    if (SC != TC) {
      Succ[SC].push_back(TC);
      Pred[TC].push_back(SC);
    }
  }

  auto Reach = [this, &C](const std::vector<std::vector<unsigned>> &Adj) {
    std::vector<bool> Seen(numStmts(), false);
    std::vector<unsigned> Work(C.begin(), C.end());
    for (unsigned Cl : C)
      Seen[Cl] = true;
    while (!Work.empty()) {
      unsigned Node = Work.back();
      Work.pop_back();
      for (unsigned Next : Adj[Node])
        if (!Seen[Next]) {
          Seen[Next] = true;
          Work.push_back(Next);
        }
    }
    return Seen;
  };

  std::vector<bool> Fwd = Reach(Succ), Bwd = Reach(Pred);
  std::set<unsigned> Result;
  for (unsigned Cl = 0; Cl < numStmts(); ++Cl)
    if (Fwd[Cl] && Bwd[Cl] && !C.count(Cl))
      Result.insert(Cl);
  return Result;
}

std::optional<std::vector<Offset>>
FusionPartition::internalUDVs(const std::set<unsigned> &C) const {
  std::vector<Offset> UDVs;
  for (const DepEdge &E : G->edges()) {
    if (!C.count(ClusterOf[E.Src]) || !C.count(ClusterOf[E.Tgt]))
      continue;
    for (const DepLabel &L : E.Labels) {
      if (!L.UDV)
        return std::nullopt; // unrepresentable internal dependence
      UDVs.push_back(*L.UDV);
    }
  }
  return UDVs;
}

void FusionPartition::print(std::ostream &OS) const {
  OS << "fusion partition: " << numClusters() << " clusters\n";
  for (unsigned Cl : clusters()) {
    OS << "  P" << Cl << " = {";
    bool First = true;
    for (unsigned StmtId : members(Cl)) {
      if (!First)
        OS << ", ";
      OS << "S" << StmtId;
      First = false;
    }
    OS << "}\n";
  }
}

//===----------------------------------------------------------------------===//
// Legality predicates
//===----------------------------------------------------------------------===//

const Region *xform::fusableRegion(const Stmt *S) {
  if (const auto *NS = dyn_cast<NormalizedStmt>(S))
    return NS->getRegion();
  if (const auto *RS = dyn_cast<ReduceStmt>(S))
    return RS->getRegion();
  return nullptr;
}

bool xform::isFusibleStmtSet(const ASDG &G, const std::vector<unsigned> &Stmts,
                             const SequentialDims &Seq,
                             LoopStructureVector *OutLSV) {
  assert(!Stmts.empty() && "legality query over an empty statement set");
  assert(std::is_sorted(Stmts.begin(), Stmts.end()) &&
         "statement set must be in program order");
  const Program &Prog = G.getProgram();

  // Condition (i): all statements operate under the same region. Clusters
  // of more than one statement must consist of normalized statements and
  // reductions only (communication primitives and opaque statements never
  // fuse).
  if (Stmts.size() > 1) {
    const Region *CommonRegion = nullptr;
    for (unsigned StmtId : Stmts) {
      const Region *R = fusableRegion(Prog.getStmt(StmtId));
      if (!R)
        return false;
      if (!CommonRegion)
        CommonRegion = R;
      else if (*CommonRegion != *R)
        return false;
    }
  }

  // Communication placement: a fusible cluster may not span a
  // communication statement in program order. Scalarization preserves the
  // placement of exchanges (their pipelining overlap windows were chosen
  // by the communication optimizer), so fusing statements from opposite
  // sides of an exchange would move computation out of its overlap
  // window — the interaction the paper's section 5.5 policy forbids.
  // Programs without communication statements are unaffected.
  for (unsigned Pos = Stmts.front() + 1; Pos < Stmts.back(); ++Pos)
    if (isa<CommStmt>(Prog.getStmt(Pos)))
      return false;

  // Condition (ii): intra-cluster flow dependences must be admitted by
  // Seq (null UDVs in the standard Definition 5). The same pass gathers
  // the internal UDVs condition (iv) needs; an unrepresentable internal
  // dependence fails both.
  std::vector<bool> InSet(G.numNodes(), false);
  for (unsigned StmtId : Stmts)
    InSet[StmtId] = true;
  std::vector<Offset> UDVs;
  for (const DepEdge &E : G.edges()) {
    if (!InSet[E.Src] || !InSet[E.Tgt])
      continue;
    for (const DepLabel &L : E.Labels) {
      if (!L.UDV || (L.Type == DepType::Flow && !Seq.admits(*L.UDV)))
        return false;
      UDVs.push_back(*L.UDV);
    }
  }

  // Condition (iv): a loop structure vector exists that preserves all
  // intra-cluster dependences.
  const Region *R = fusableRegion(Prog.getStmt(Stmts.front()));
  if (!R) {
    // Single non-normalized statement: vacuously legal, no loop nest.
    if (OutLSV)
      *OutLSV = LoopStructureVector();
    return true;
  }
  auto LSV = findLoopStructure(UDVs, R->rank());
  if (!LSV)
    return false;
  if (OutLSV)
    *OutLSV = *LSV;
  return true;
}

bool xform::isLegalFusion(const FusionPartition &P, const std::set<unsigned> &C,
                          const SequentialDims &Seq,
                          LoopStructureVector *OutLSV) {
  assert(!C.empty() && "legality query over an empty cluster set");
  LoopStructureVector LSV;
  if (!isFusibleStmtSet(P.graph(), P.memberStmts(C), Seq, &LSV))
    return false;
  // Condition (iii): no inter-cluster cycle after the merge. P is acyclic,
  // so a cycle would have to pass through the merged node and leave it at
  // a cluster outside C that C reaches and that reaches C: a GROW member.
  if (!P.grow(C).empty())
    return false;
  if (OutLSV)
    *OutLSV = std::move(LSV);
  return true;
}

bool xform::isContractible(const FusionPartition &P,
                           const std::set<unsigned> &C,
                           const ir::ArraySymbol *Var,
                           const SequentialDims &Seq) {
  const ASDG &G = P.graph();
  const Program &Prog = G.getProgram();

  // Side conditions: never contract arrays whose value escapes the
  // fragment or flows in from outside.
  if (Var->isLiveOut())
    return false;

  std::vector<unsigned> Referencing = G.statementsReferencing(Var);
  if (Referencing.empty())
    return false;

  bool SeenWrite = false;
  for (unsigned StmtId : Referencing) {
    const Stmt *S = Prog.getStmt(StmtId);
    if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
      if (!SeenWrite && NS->readsArray(Var))
        return false; // upward-exposed read: the live-in value is needed
      if (NS->getLHS() == Var)
        SeenWrite = true;
      continue;
    }
    if (isa<ReduceStmt>(S)) {
      // Reductions only read arrays, at constant offsets.
      if (!SeenWrite)
        return false; // upward-exposed read
      continue;
    }
    // Arrays touched by communication or opaque statements are not
    // contraction candidates: their accesses have no constant offsets.
    return false;
  }
  if (!SeenWrite)
    return false; // read-only array; nothing to contract

  // Definition 6 (i): the endpoints of every dependence due to Var lie in
  // one fusible cluster (the merged one), and (ii) every such UDV is
  // admitted by Seq.
  for (const DepEdge &E : G.edges()) {
    for (const DepLabel &L : E.Labels) {
      if (L.Var != Var)
        continue;
      unsigned SC = P.clusterOf(E.Src), TC = P.clusterOf(E.Tgt);
      bool SameCluster = (SC == TC) || (C.count(SC) && C.count(TC));
      if (!SameCluster)
        return false;
      if (!L.UDV || !Seq.admits(*L.UDV))
        return false;
    }
  }
  return true;
}

bool xform::isContractible(const FusionPartition &P,
                           const ir::ArraySymbol *Var) {
  // No hypothetical merge: every cluster stands alone. Passing a set that
  // cannot match two distinct clusters reduces to the same-cluster test.
  return isContractible(P, std::set<unsigned>{}, Var);
}

bool xform::isValidPartition(const FusionPartition &P) {
  for (unsigned Cl : P.clusters())
    if (!isLegalFusion(P, std::set<unsigned>{Cl}))
      return false;
  return true;
}
