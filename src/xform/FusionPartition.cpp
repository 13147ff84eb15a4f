//===- xform/FusionPartition.cpp - Fusion partitions ------------------------===//

#include "xform/FusionPartition.h"

#include "support/Statistic.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

ALF_STATISTIC(NumLabelsVisited, "fusion",
              "ASDG dependence labels visited by the legality and "
              "contractibility predicates");
ALF_STATISTIC(NumQuotientArcsVisited, "fusion",
              "Quotient-graph arcs visited by GROW");

FusionPartition FusionPartition::trivial(const ASDG &Graph) {
  std::vector<unsigned> Identity(Graph.numNodes());
  for (unsigned I = 0; I < Graph.numNodes(); ++I)
    Identity[I] = I;
  return fromAssignment(Graph, std::move(Identity));
}

FusionPartition FusionPartition::fromAssignment(const ASDG &Graph,
                                                std::vector<unsigned> Assignment) {
  assert(Assignment.size() == Graph.numNodes() &&
         "assignment must cover every statement");
  FusionPartition P;
  P.G = &Graph;
  P.ClusterOf = std::move(Assignment);
  unsigned N = P.numStmts();
#ifndef NDEBUG
  for (unsigned I = 0; I < N; ++I) {
    assert(P.ClusterOf[I] <= I && "cluster id must be its smallest member");
    assert(P.ClusterOf[P.ClusterOf[I]] == P.ClusterOf[I] &&
           "cluster id must name an active cluster");
  }
#endif

  P.ById.resize(N);
  for (unsigned I = 0; I < N; ++I) {
    std::unique_ptr<Cluster> &Rec = P.ById[P.ClusterOf[I]];
    if (!Rec) {
      Rec = std::make_unique<Cluster>();
      ++P.NumClusters;
    }
    Rec->Members.push_back(I);
  }
  for (const DepEdge &E : Graph.edges()) {
    unsigned SC = P.ClusterOf[E.Src], TC = P.ClusterOf[E.Tgt];
    if (SC != TC) {
      P.ById[SC]->Succ.push_back(TC);
      P.ById[TC]->Pred.push_back(SC);
    }
  }
  for (std::unique_ptr<Cluster> &Rec : P.ById)
    if (Rec)
      for (std::vector<unsigned> *L : {&Rec->Succ, &Rec->Pred}) {
        std::sort(L->begin(), L->end());
        L->erase(std::unique(L->begin(), L->end()), L->end());
      }

  // Kahn's algorithm over the quotient; a cycle leaves clusters behind.
  std::vector<unsigned> InDegree(N, 0);
  for (unsigned Cl = 0; Cl < N; ++Cl)
    if (P.ById[Cl]) {
      InDegree[Cl] = static_cast<unsigned>(P.ById[Cl]->Pred.size());
      if (InDegree[Cl] == 0)
        P.Topo.push_back(Cl);
    }
  for (size_t Head = 0; Head < P.Topo.size(); ++Head)
    for (unsigned Next : P.ById[P.Topo[Head]]->Succ)
      if (--InDegree[Next] == 0)
        P.Topo.push_back(Next);
  P.Acyclic = P.Topo.size() == P.NumClusters;
  for (unsigned I = 0; I < P.Topo.size(); ++I)
    P.ById[P.Topo[I]]->Pos = I;
  return P;
}

std::vector<unsigned> FusionPartition::clusters() const {
  std::vector<unsigned> Result;
  Result.reserve(NumClusters);
  for (unsigned Cl = 0; Cl < ById.size(); ++Cl)
    if (ById[Cl])
      Result.push_back(Cl);
  return Result;
}

const std::vector<unsigned> &FusionPartition::members(unsigned Cluster) const {
  static const std::vector<unsigned> None;
  return ById[Cluster] ? ById[Cluster]->Members : None;
}

std::vector<unsigned>
FusionPartition::memberStmts(const std::set<unsigned> &C) const {
  std::vector<unsigned> Result;
  for (unsigned Cl : C)
    Result.insert(Result.end(), members(Cl).begin(), members(Cl).end());
  std::sort(Result.begin(), Result.end());
  return Result;
}

unsigned FusionPartition::merge(const std::set<unsigned> &C) {
  assert(!C.empty() && "cannot merge an empty cluster set");
  unsigned Target = *C.begin(); // smallest id (set is ordered)
  if (C.size() == 1)
    return Target;
  std::vector<unsigned char> InC(numStmts(), 0);
  for (unsigned Cl : C) {
    assert(ById[Cl] && "merging an inactive cluster id");
    InC[Cl] = 1;
  }

  // Topological order. C's clusters occupy positions Lo..Hi. Every
  // cluster in that window that reaches C moves before the merged
  // cluster and every other one after it, each group in its old relative
  // order; positions outside the window keep their order. No arc runs
  // from the second group to the first (its tail would reach C), and a
  // cluster both reachable from C and reaching it is a GROW member; so
  // the order stays topological exactly when GROW(C) is empty, and a
  // merge that is not GROW-closed leaves a cyclic quotient.
  if (Acyclic) {
    std::vector<unsigned char> Reaching = reaching(C);
    if (!growGiven(C, Reaching).empty()) {
      Acyclic = false;
    } else {
      unsigned Lo = ById[Target]->Pos, Hi = Lo;
      for (unsigned Cl : C) {
        Lo = std::min(Lo, ById[Cl]->Pos);
        Hi = std::max(Hi, ById[Cl]->Pos);
      }
      std::vector<unsigned> Window, After;
      for (unsigned I = Lo; I <= Hi; ++I) {
        unsigned Cl = Topo[I];
        if (!InC[Cl])
          (Reaching[Cl] ? Window : After).push_back(Cl);
      }
      Window.push_back(Target);
      Window.insert(Window.end(), After.begin(), After.end());
      Topo.erase(Topo.begin() + Lo, Topo.begin() + Hi + 1);
      Topo.insert(Topo.begin() + Lo, Window.begin(), Window.end());
      for (unsigned I = Lo; I < Topo.size(); ++I)
        ById[Topo[I]]->Pos = I;
    }
  }

  // Quotient arcs: the merged cluster's neighbours are the union of C's
  // outside C, and each neighbour's reverse list renames C to Target.
  auto Union = [&](std::vector<unsigned> Cluster::*List) {
    std::vector<unsigned> Result;
    for (unsigned Cl : C)
      for (unsigned Next : (*ById[Cl]).*List)
        if (!InC[Next])
          Result.push_back(Next);
    std::sort(Result.begin(), Result.end());
    Result.erase(std::unique(Result.begin(), Result.end()), Result.end());
    return Result;
  };
  auto Rename = [&](std::vector<unsigned> &Back) {
    Back.erase(std::remove_if(Back.begin(), Back.end(),
                              [&InC](unsigned Cl) { return InC[Cl]; }),
               Back.end());
    Back.insert(std::lower_bound(Back.begin(), Back.end(), Target), Target);
  };
  std::vector<unsigned> Succs = Union(&Cluster::Succ);
  std::vector<unsigned> Preds = Union(&Cluster::Pred);
  for (unsigned Next : Succs)
    Rename(ById[Next]->Pred);
  for (unsigned Prev : Preds)
    Rename(ById[Prev]->Succ);

  // Member lists and the statement map; the absorbed records go away.
  Cluster &Into = *ById[Target];
  Into.Succ = std::move(Succs);
  Into.Pred = std::move(Preds);
  for (unsigned Cl : C) {
    if (Cl == Target)
      continue;
    for (unsigned StmtId : ById[Cl]->Members)
      ClusterOf[StmtId] = Target;
    Into.Members.insert(Into.Members.end(), ById[Cl]->Members.begin(),
                        ById[Cl]->Members.end());
    ById[Cl].reset();
  }
  std::sort(Into.Members.begin(), Into.Members.end());

  NumClusters -= static_cast<unsigned>(C.size() - 1);
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
  std::vector<std::pair<unsigned, unsigned>> Result;
  for (unsigned Cl = 0; Cl < ById.size(); ++Cl)
    if (ById[Cl])
      for (unsigned Next : ById[Cl]->Succ)
        Result.push_back({Cl, Next});
  return Result;
}

std::vector<unsigned char>
FusionPartition::reaching(const std::set<unsigned> &C) const {
  // Along a topological order every path climbs, so a path into C starts
  // at or after C's first position: the search never leaves the window.
  unsigned Lo = 0;
  if (Acyclic) {
    Lo = ~0u;
    for (unsigned Cl : C)
      Lo = std::min(Lo, ById[Cl]->Pos);
  }
  std::vector<unsigned char> Seen(numStmts(), 0);
  std::vector<unsigned> Work(C.begin(), C.end());
  for (unsigned Cl : C)
    Seen[Cl] = 1;
  uint64_t Arcs = 0;
  while (!Work.empty()) {
    unsigned Node = Work.back();
    Work.pop_back();
    const std::vector<unsigned> &Preds = ById[Node]->Pred;
    Arcs += Preds.size();
    for (unsigned Prev : Preds) {
      assert(ById[Prev] && "quotient arc from a merged-away cluster");
      if (!Seen[Prev] && (!Acyclic || ById[Prev]->Pos > Lo)) {
        Seen[Prev] = 1;
        Work.push_back(Prev);
      }
    }
  }
  NumQuotientArcsVisited += Arcs;
  return Seen;
}

std::set<unsigned>
FusionPartition::growGiven(const std::set<unsigned> &C,
                           const std::vector<unsigned char> &Reaching) const {
  // Forward from C, through clusters that reach C only: every cluster on
  // a path from C to a GROW member reaches C through that member, so the
  // restricted search finds all of GROW and nothing else. One
  // application is closed: any cluster reachable from C + GROW and
  // reaching C + GROW is already reachable from C and reaches C.
  std::vector<unsigned char> Seen(numStmts(), 0);
  std::vector<unsigned> Work(C.begin(), C.end());
  for (unsigned Cl : C)
    Seen[Cl] = 1;
  std::set<unsigned> Result;
  uint64_t Arcs = 0;
  while (!Work.empty()) {
    unsigned Node = Work.back();
    Work.pop_back();
    const std::vector<unsigned> &Succs = ById[Node]->Succ;
    Arcs += Succs.size();
    for (unsigned Next : Succs)
      if (Reaching[Next] && !Seen[Next]) {
        Seen[Next] = 1;
        Work.push_back(Next);
        Result.insert(Next);
      }
  }
  NumQuotientArcsVisited += Arcs;
  return Result;
}

std::set<unsigned> FusionPartition::grow(const std::set<unsigned> &C) const {
  // In an acyclic quotient a single cluster lies on no cycle.
  if (Acyclic && C.size() == 1)
    return {};
  return growGiven(C, reaching(C));
}

std::optional<std::vector<Offset>>
FusionPartition::internalUDVs(const std::set<unsigned> &C) const {
  std::vector<Offset> UDVs;
  for (unsigned StmtId : memberStmts(C))
    for (unsigned EdgeId : G->outEdges(StmtId)) {
      const DepEdge &E = G->getEdge(EdgeId);
      if (!C.count(ClusterOf[E.Tgt]))
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
  uint64_t Visited = 0;
  auto CollectUDVs = [&] {
    for (unsigned StmtId : Stmts)
      for (unsigned EdgeId : G.outEdges(StmtId)) {
        const DepEdge &E = G.getEdge(EdgeId);
        if (!InSet[E.Tgt])
          continue;
        for (const DepLabel &L : E.Labels) {
          ++Visited;
          if (!L.UDV || (L.Type == DepType::Flow && !Seq.admits(*L.UDV)))
            return false;
          UDVs.push_back(*L.UDV);
        }
      }
    return true;
  };
  bool Admitted = CollectUDVs();
  NumLabelsVisited += Visited;
  if (!Admitted)
    return false;

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

  std::span<const unsigned> Referencing = G.statementsReferencing(Var);
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
  uint64_t Visited = 0;
  bool Contractible = true;
  for (LabelRef Ref : G.dependencesOn(Var)) {
    ++Visited;
    const DepEdge &E = G.getEdge(Ref.Edge);
    const DepLabel &L = G.getLabel(Ref);
    unsigned SC = P.clusterOf(E.Src), TC = P.clusterOf(E.Tgt);
    bool SameCluster = (SC == TC) || (C.count(SC) && C.count(TC));
    if (!SameCluster || !L.UDV || !Seq.admits(*L.UDV)) {
      Contractible = false;
      break;
    }
  }
  NumLabelsVisited += Visited;
  return Contractible;
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
