//===- analysis/ASDG.cpp - Array statement dependence graph ---------------===//

#include "analysis/ASDG.h"

#include "support/ErrorHandling.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <map>
#include <set>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;

const char *analysis::getDepTypeName(DepType T) {
  switch (T) {
  case DepType::Flow:
    return "flow";
  case DepType::Anti:
    return "anti";
  case DepType::Output:
    return "output";
  }
  alf_unreachable("unhandled dependence type");
}

ASDG ASDG::build(const ir::Program &Prog) {
  ASDG G;
  G.P = &Prog;
  unsigned N = Prog.numStmts();

  // Pre-collect the accesses of every statement.
  std::vector<std::vector<Access>> Accesses(N);
  for (unsigned I = 0; I < N; ++I)
    Prog.getStmt(I)->getAccesses(Accesses[I]);

  // For each ordered pair (Src, Tgt), Src < Tgt, build the label set.
  for (unsigned Src = 0; Src < N; ++Src) {
    for (unsigned Tgt = Src + 1; Tgt < N; ++Tgt) {
      std::vector<DepLabel> Labels;
      for (const Access &SrcAcc : Accesses[Src]) {
        for (const Access &TgtAcc : Accesses[Tgt]) {
          if (SrcAcc.Sym != TgtAcc.Sym)
            continue;
          if (!SrcAcc.IsWrite && !TgtAcc.IsWrite)
            continue; // read-read is not a dependence
          DepType Type;
          if (SrcAcc.IsWrite && TgtAcc.IsWrite)
            Type = DepType::Output;
          else if (SrcAcc.IsWrite)
            Type = DepType::Flow;
          else
            Type = DepType::Anti;
          std::optional<Offset> UDV;
          if (SrcAcc.Off && TgtAcc.Off &&
              SrcAcc.Off->rank() == TgtAcc.Off->rank())
            UDV = *SrcAcc.Off - *TgtAcc.Off;
          DepLabel Label{SrcAcc.Sym, std::move(UDV), Type};
          if (std::find(Labels.begin(), Labels.end(), Label) == Labels.end())
            Labels.push_back(std::move(Label));
        }
      }
      if (Labels.empty())
        continue;
      G.Edges.push_back(DepEdge{Src, Tgt, std::move(Labels)});
    }
  }
  G.indexEdges();

  // Reference index for statementsReferencing().
  G.RefIndex = PackedRows<unsigned>::build(Prog.numSymbols(), [&](auto Emit) {
    for (unsigned I = 0; I < N; ++I) {
      std::set<unsigned> Seen;
      for (const Access &A : Accesses[I])
        if (Seen.insert(A.Sym->getId()).second)
          Emit(A.Sym->getId(), I);
    }
  });

  // Reference weights: every array reference of a statement counts its
  // iteration region once. Communication primitives contribute nothing.
  G.Weights.assign(Prog.numSymbols(), 0.0);
  auto Count = [&G](const Symbol *Var, double RegionSize) {
    G.Weights[Var->getId()] += RegionSize;
  };
  for (unsigned I = 0; I < N; ++I) {
    const Stmt *S = Prog.getStmt(I);
    if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
      double RegionSize = static_cast<double>(NS->getRegion()->size());
      Count(NS->getLHS(), RegionSize);
      for (const ArrayRefExpr *Ref : NS->rhsArrayRefs())
        Count(Ref->getSymbol(), RegionSize);
    } else if (const auto *RS = dyn_cast<ReduceStmt>(S)) {
      double RegionSize = static_cast<double>(RS->getRegion()->size());
      for (const ArrayRefExpr *Ref : RS->bodyArrayRefs())
        Count(Ref->getSymbol(), RegionSize);
    } else if (const auto *OS = dyn_cast<OpaqueStmt>(S)) {
      double RegionSize =
          OS->getRegion() ? static_cast<double>(OS->getRegion()->size()) : 1.0;
      for (const ArraySymbol *A : OS->arrayReads())
        Count(A, RegionSize);
      for (const ArraySymbol *A : OS->arrayWrites())
        Count(A, RegionSize);
    }
  }
  for (const ArraySymbol *A : Prog.arrays())
    if (G.Weights[A->getId()] > 0.0)
      G.ByWeight.push_back(A);
  std::stable_sort(G.ByWeight.begin(), G.ByWeight.end(),
                   [&G](const ArraySymbol *L, const ArraySymbol *R) {
                     double WL = G.Weights[L->getId()];
                     double WR = G.Weights[R->getId()];
                     if (WL != WR)
                       return WL > WR;
                     return L->getId() < R->getId();
                   });
  return G;
}

void ASDG::indexEdges() {
  auto NumEdges = static_cast<unsigned>(Edges.size());
  OutEdgeIds = PackedRows<unsigned>::build(numNodes(), [&](auto Emit) {
    for (unsigned EdgeId = 0; EdgeId < NumEdges; ++EdgeId)
      Emit(Edges[EdgeId].Src, EdgeId);
  });
  InEdgeIds = PackedRows<unsigned>::build(numNodes(), [&](auto Emit) {
    for (unsigned EdgeId = 0; EdgeId < NumEdges; ++EdgeId)
      Emit(Edges[EdgeId].Tgt, EdgeId);
  });
  DepIndex = PackedRows<LabelRef>::build(P->numSymbols(), [&](auto Emit) {
    for (unsigned EdgeId = 0; EdgeId < NumEdges; ++EdgeId) {
      const std::vector<DepLabel> &Labels = Edges[EdgeId].Labels;
      for (unsigned I = 0; I < Labels.size(); ++I)
        Emit(Labels[I].Var->getId(), LabelRef{EdgeId, I});
    }
  });
}

void ASDG::dropEdgeForTest(unsigned EdgeId) {
  if (EdgeId >= Edges.size())
    return;
  Edges.erase(Edges.begin() + EdgeId);
  indexEdges();
}

void ASDG::injectEdgeForTest(DepEdge E) {
  Edges.push_back(std::move(E));
  indexEdges();
}

double ASDG::referenceWeight(const ir::Symbol *Var) const {
  return Var->getId() < Weights.size() ? Weights[Var->getId()] : 0.0;
}

void ASDG::print(std::ostream &OS) const {
  OS << "ASDG for " << P->getName() << ": " << numNodes() << " nodes, "
     << numEdges() << " edges\n";
  for (const DepEdge &E : Edges) {
    OS << formatString("  S%u -> S%u :", E.Src, E.Tgt);
    for (const DepLabel &L : E.Labels) {
      OS << " (" << L.Var->getName() << ", "
         << (L.UDV ? L.UDV->str() : std::string("unknown")) << ", "
         << getDepTypeName(L.Type) << ")";
    }
    OS << '\n';
  }
}

std::vector<unsigned> ASDG::transitiveReductionEdges() const {
  // An edge (u, v) is redundant when v is reachable from u through a
  // path of length >= 2. BFS per edge; graphs here are basic blocks.
  std::vector<unsigned> Kept;
  for (unsigned EdgeId = 0; EdgeId < Edges.size(); ++EdgeId) {
    const DepEdge &E = Edges[EdgeId];
    // Forward search from Src skipping the direct edge.
    std::vector<bool> Seen(numNodes(), false);
    std::vector<unsigned> Work;
    for (unsigned OutId : OutEdgeIds[E.Src]) {
      if (OutId == EdgeId)
        continue;
      unsigned Next = Edges[OutId].Tgt;
      if (!Seen[Next]) {
        Seen[Next] = true;
        Work.push_back(Next);
      }
    }
    bool Redundant = false;
    while (!Work.empty() && !Redundant) {
      unsigned Node = Work.back();
      Work.pop_back();
      if (Node == E.Tgt) {
        Redundant = true;
        break;
      }
      for (unsigned OutId : OutEdgeIds[Node]) {
        unsigned Next = Edges[OutId].Tgt;
        if (Next <= E.Tgt && !Seen[Next]) {
          Seen[Next] = true;
          Work.push_back(Next);
        }
      }
    }
    if (!Redundant)
      Kept.push_back(EdgeId);
  }
  return Kept;
}

std::string ASDG::dot(bool Reduced) const {
  std::vector<unsigned> EdgeIds;
  if (Reduced) {
    EdgeIds = transitiveReductionEdges();
  } else {
    EdgeIds.resize(Edges.size());
    for (unsigned I = 0; I < Edges.size(); ++I)
      EdgeIds[I] = I;
  }
  std::string Out = "digraph ASDG {\n";
  for (unsigned I = 0; I < numNodes(); ++I)
    Out += formatString("  S%u [label=\"S%u\"];\n", I, I);
  for (unsigned EdgeId : EdgeIds) {
    const DepEdge &E = Edges[EdgeId];
    std::vector<std::string> Parts;
    for (const DepLabel &L : E.Labels)
      Parts.push_back(L.Var->getName() + " " +
                      (L.UDV ? L.UDV->str() : std::string("?")) + " " +
                      getDepTypeName(L.Type));
    Out += formatString("  S%u -> S%u [label=\"%s\"];\n", E.Src, E.Tgt,
                        join(Parts, "\\n").c_str());
  }
  Out += "}\n";
  return Out;
}
