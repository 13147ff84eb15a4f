//===- xform/Report.cpp - Contraction decision reporting --------------------===//

#include "xform/Report.h"

#include "support/ErrorHandling.h"
#include "support/StringUtil.h"

#include <set>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

const char *xform::getOutcomeName(ContractionOutcome O) {
  switch (O) {
  case ContractionOutcome::Contracted:
    return "contracted";
  case ContractionOutcome::LiveOut:
    return "live-out";
  case ContractionOutcome::ReadOnly:
    return "read-only";
  case ContractionOutcome::UpwardExposed:
    return "upward-exposed";
  case ContractionOutcome::UnfusableRef:
    return "unfusable-reference";
  case ContractionOutcome::CarriedDistance:
    return "carried-distance";
  case ContractionOutcome::SplitClusters:
    return "split-clusters";
  }
  alf_unreachable("unhandled contraction outcome");
}

ContractionOutcome xform::classifyContraction(const StrategyResult &SR,
                                              const ArraySymbol *Var,
                                              std::string *Detail) {
  auto Explain = [Detail](std::string Msg) {
    if (Detail)
      *Detail = std::move(Msg);
  };
  const FusionPartition &P = SR.Partition;
  const ASDG &G = P.graph();
  const Program &Prog = G.getProgram();

  if (SR.isContracted(Var)) {
    Explain(formatString("contracted (reference weight %.0f)",
                         G.referenceWeight(Var)));
    return ContractionOutcome::Contracted;
  }
  if (Var->isLiveOut()) {
    Explain("its value is observable after the fragment");
    return ContractionOutcome::LiveOut;
  }

  std::span<const unsigned> Refs = G.statementsReferencing(Var);

  // Read-only arrays first: there is no value to contract.
  bool EverWritten = false;
  for (unsigned StmtId : Refs) {
    const Stmt *S = Prog.getStmt(StmtId);
    if (const auto *NS = dyn_cast<NormalizedStmt>(S))
      EverWritten |= NS->getLHS() == Var;
    else if (!isa<ReduceStmt>(S))
      EverWritten = true; // conservative for comm/opaque writers
  }
  if (!EverWritten) {
    Explain("never written in the fragment");
    return ContractionOutcome::ReadOnly;
  }

  bool SeenWrite = false;
  for (unsigned StmtId : Refs) {
    const Stmt *S = Prog.getStmt(StmtId);
    if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
      if (!SeenWrite && NS->readsArray(Var)) {
        Explain(formatString("S%u reads the live-in value before any write",
                             StmtId));
        return ContractionOutcome::UpwardExposed;
      }
      if (NS->getLHS() == Var)
        SeenWrite = true;
      continue;
    }
    if (isa<ReduceStmt>(S)) {
      if (!SeenWrite) {
        Explain(formatString("S%u reads the live-in value before any write",
                             StmtId));
        return ContractionOutcome::UpwardExposed;
      }
      continue;
    }
    Explain(formatString("referenced by unfusable statement S%u (%s)",
                         StmtId,
                         isa<CommStmt>(S) ? "communication" : "opaque"));
    return ContractionOutcome::UnfusableRef;
  }

  // A dependence with non-null distance?
  for (LabelRef Ref : G.dependencesOn(Var)) {
    const DepEdge &E = G.getEdge(Ref.Edge);
    const DepLabel &L = G.getLabel(Ref);
    if (!L.UDV || !L.UDV->isZero()) {
      Explain(formatString("%s dependence S%u -> S%u carries distance %s",
                           getDepTypeName(L.Type), E.Src, E.Tgt,
                           L.UDV ? L.UDV->str().c_str() : "(unknown)"));
      return ContractionOutcome::CarriedDistance;
    }
  }

  // Null distances everywhere: the references must span clusters.
  std::set<unsigned> Clusters;
  for (unsigned StmtId : Refs)
    Clusters.insert(P.clusterOf(StmtId));
  Explain(formatString("references land in %zu separate loop nests",
                       Clusters.size()));
  return ContractionOutcome::SplitClusters;
}

std::string xform::contractionReport(const StrategyResult &SR) {
  const Program &Prog = SR.Partition.graph().getProgram();
  std::string Out;
  for (const ArraySymbol *A : Prog.arrays()) {
    std::string Detail;
    ContractionOutcome O = classifyContraction(SR, A, &Detail);
    Out += formatString("%-12s %-20s %s\n", A->getName().c_str(),
                        getOutcomeName(O), Detail.c_str());
  }
  return Out;
}

std::string
xform::parallelismReport(const std::vector<NestParallelSummary> &Nests) {
  std::string Out;
  for (const NestParallelSummary &N : Nests) {
    std::string Where =
        N.Plan.isParallel()
            ? formatString("loop %d", N.Plan.ParallelLoop + 1)
            : std::string("-");
    Out += formatString("nest %-4u %-10s %8lld pts  %-15s %-7s %s\n",
                        N.ClusterId, N.LSV.c_str(),
                        static_cast<long long>(N.Points),
                        getParallelDecisionName(N.Plan.Decision),
                        Where.c_str(), N.Plan.Reason.c_str());
  }
  return Out;
}
