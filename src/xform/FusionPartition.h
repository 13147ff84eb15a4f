//===- xform/FusionPartition.h - Fusion partitions -------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A *fusion partition* (paper Definition 5) partitions the nodes of an
/// ASDG into *fusible clusters*; upon scalarization every cluster becomes
/// one loop nest. This file provides the partition representation, the
/// cluster-quotient graph, the GROW closure (Figure 3's cycle-prevention
/// step) and the two legality predicates FUSION-PARTITION? (Definition 5)
/// and CONTRACTIBLE? (Definition 6).
///
//===----------------------------------------------------------------------===//

#ifndef ALF_XFORM_FUSIONPARTITION_H
#define ALF_XFORM_FUSIONPARTITION_H

#include "analysis/ASDG.h"
#include "xform/LoopStructure.h"

#include <initializer_list>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <vector>

namespace alf {
namespace xform {

/// A partition of the statements of an ASDG into fusible clusters.
/// Cluster ids are statement ids of representative members; after merges,
/// a cluster's id is the smallest statement id it contains (Figure 3 line
/// 8 assigns the union into the Pk with the smallest k).
///
/// Besides the statement-to-cluster map, the partition keeps, for every
/// active cluster, its member list and its distinct successor and
/// predecessor clusters in the quotient graph, plus a topological order
/// of the quotient while it is acyclic. merge() updates all of them in
/// time proportional to the merged clusters' members and neighbours, so
/// no query below rescans the ASDG's edges.
class FusionPartition {
  /// What the partition keeps for one active cluster.
  struct Cluster {
    std::vector<unsigned> Members; // ascending statement ids
    std::vector<unsigned> Succ;    // distinct quotient successors, ascending
    std::vector<unsigned> Pred;    // distinct quotient predecessors, ascending
    unsigned Pos = 0;              // index in Topo
  };

  const analysis::ASDG *G = nullptr;
  std::vector<unsigned> ClusterOf; // statement id -> cluster id
  // By cluster id; null for ids that name no active cluster, so a merged
  // partition keeps records for its surviving clusters only.
  std::vector<std::unique_ptr<Cluster>> ById;
  // Active clusters in a topological order of the quotient graph;
  // meaningful only while Acyclic.
  std::vector<unsigned> Topo;
  bool Acyclic = true;
  unsigned NumClusters = 0;

  /// Clusters with a quotient path into \p C, C included (as flags by
  /// cluster id).
  std::vector<unsigned char> reaching(const std::set<unsigned> &C) const;
  /// GROW(C) given reaching(C).
  std::set<unsigned> growGiven(const std::set<unsigned> &C,
                               const std::vector<unsigned char> &Reaching) const;

public:
  /// The trivial partition: one statement per cluster (Figure 3 line 1).
  static FusionPartition trivial(const analysis::ASDG &Graph);

  /// A partition from an explicit statement-to-cluster assignment. Each
  /// entry must already satisfy the representation invariant merge()
  /// maintains: a cluster's id is its smallest member's statement id.
  /// The branch-and-bound partitioner (IlpStrategy) materializes its
  /// search states through this. O(n + e log e) for n statements and e
  /// edges.
  static FusionPartition fromAssignment(const analysis::ASDG &Graph,
                                        std::vector<unsigned> Assignment);

  const analysis::ASDG &graph() const { return *G; }

  unsigned numStmts() const { return static_cast<unsigned>(ClusterOf.size()); }

  /// Cluster containing statement \p StmtId.
  unsigned clusterOf(unsigned StmtId) const { return ClusterOf[StmtId]; }

  /// Active cluster ids, ascending.
  std::vector<unsigned> clusters() const;

  /// Number of clusters (the paper's l).
  unsigned numClusters() const { return NumClusters; }

  /// Statement ids in cluster \p Cluster, ascending (program order);
  /// empty when no active cluster has that id.
  const std::vector<unsigned> &members(unsigned Cluster) const;

  /// Statement ids in any cluster of \p C, ascending.
  std::vector<unsigned> memberStmts(const std::set<unsigned> &C) const;

  /// Merges all clusters in \p C into the one with the smallest id.
  /// Returns the surviving cluster id.
  unsigned merge(const std::set<unsigned> &C);

  /// Clusters that currently contain a reference to \p Var (Figure 3
  /// line 5).
  std::set<unsigned> clustersReferencing(const ir::Symbol *Var) const;

  /// Distinct inter-cluster dependence edges (SrcCluster, TgtCluster),
  /// SrcCluster != TgtCluster, ascending.
  std::vector<std::pair<unsigned, unsigned>> clusterEdges() const;

  /// GROW (Figure 3): clusters not in \p C that are reachable from a
  /// cluster in C *and* reach a cluster in C — i.e. the clusters that
  /// would sit on an inter-cluster cycle if C were fused. One application
  /// is a closure (see implementation comment).
  std::set<unsigned> grow(const std::set<unsigned> &C) const;

  /// All unconstrained distance vectors on dependences internal to the
  /// hypothetical cluster formed by fusing the clusters of \p C. Returns
  /// std::nullopt when any internal dependence is unrepresentable.
  std::optional<std::vector<ir::Offset>>
  internalUDVs(const std::set<unsigned> &C) const;

  void print(std::ostream &OS) const;
};

/// Which array dimensions are sequential (not distributed across the
/// processor grid). Definitions 5 (ii) and 6 (ii) ask for null distances;
/// the paper notes the condition "may be relaxed when the dependence is
/// along a dimension of the array that is not distributed", which is what
/// the partial contraction extension does. The paper's default, every
/// dimension distributed, is `SequentialDims::none()`.
class SequentialDims {
  std::vector<bool> Seq;

public:
  /// All dimensions distributed (partial contraction disabled).
  static SequentialDims none() { return SequentialDims(); }

  /// Marks the given zero-based dimensions sequential.
  static SequentialDims dims(std::initializer_list<unsigned> Dims) {
    SequentialDims S;
    for (unsigned D : Dims) {
      if (D >= S.Seq.size())
        S.Seq.resize(D + 1, false);
      S.Seq[D] = true;
    }
    return S;
  }

  bool isSequential(unsigned D) const {
    return D < Seq.size() && Seq[D];
  }

  /// True when \p U is zero along every distributed dimension: the
  /// distance conditions (ii) of Definitions 5 and 6 accept. Under
  /// none() this is exactly `U.isZero()`.
  bool admits(const ir::Offset &U) const {
    for (unsigned D = 0; D < U.rank(); ++D)
      if (U[D] != 0 && !isSequential(D))
        return false;
    return true;
  }
};

/// The region a statement iterates over if it may join a multi-statement
/// fusible cluster (normalized statements and reductions), else null.
const ir::Region *fusableRegion(const ir::Stmt *S);

/// The conditions of Definition 5 that depend only on the statement set
/// \p Stmts (ascending ids) of one would-be cluster: (i) a common region
/// of normalized statements and reductions, (ii) every internal flow
/// dependence admitted by \p Seq, (iv) a loop structure vector preserving
/// every internal dependence, plus the communication-span rule (no
/// communication statement lies between two members in program order).
/// All four are monotone: a superset of a failing set fails too. When
/// \p OutLSV is non-null and the set passes, stores the loop structure
/// vector found.
bool isFusibleStmtSet(const analysis::ASDG &G,
                      const std::vector<unsigned> &Stmts,
                      const SequentialDims &Seq = SequentialDims::none(),
                      LoopStructureVector *OutLSV = nullptr);

/// FUSION-PARTITION? (Definition 5): would merging the clusters of \p C in
/// the acyclic partition \p P produce a legal fusion partition? The
/// statement-set conditions are isFusibleStmtSet's; condition (iii),
/// acyclicity of the quotient graph after the merge, is `P.grow(C)` being
/// empty (exact because P itself is acyclic: a cycle through the merged
/// node leaves it at some cluster outside C that is reachable from C and
/// reaches C, which is a GROW member, and conversely). When \p OutLSV is
/// non-null and the merge is legal, stores the loop structure vector
/// found for the merged cluster.
bool isLegalFusion(const FusionPartition &P, const std::set<unsigned> &C,
                   const SequentialDims &Seq = SequentialDims::none(),
                   LoopStructureVector *OutLSV = nullptr);

/// CONTRACTIBLE? (Definition 6) plus the liveness side conditions: \p Var
/// is contractible under partition \p P with the clusters of \p C merged
/// iff (a) it is an array that is written, not live-out, has no
/// upward-exposed read, and is referenced only by normalized statements
/// and reductions, (b) the source and target of every dependence due to
/// Var fall in one cluster, and (c) every such dependence's UDV is
/// admitted by \p Seq (null under none(); zero along the distributed
/// dimensions for a rolling buffer).
bool isContractible(const FusionPartition &P, const std::set<unsigned> &C,
                    const ir::ArraySymbol *Var,
                    const SequentialDims &Seq = SequentialDims::none());

/// Convenience: contractibility in the partition as-is (each cluster by
/// itself, no hypothetical merge).
bool isContractible(const FusionPartition &P, const ir::ArraySymbol *Var);

/// Structural sanity check used by tests: every cluster of \p P satisfies
/// Definition 5 on its own. This includes acyclicity of the quotient
/// graph: a single cluster has a non-empty GROW iff it lies on a cycle.
bool isValidPartition(const FusionPartition &P);

} // namespace xform
} // namespace alf

#endif // ALF_XFORM_FUSIONPARTITION_H
