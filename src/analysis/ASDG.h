//===- analysis/ASDG.h - Array statement dependence graph ------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The array statement dependence graph of paper Definition 3: a labeled
/// acyclic digraph whose vertices are the statements of a basic block and
/// whose edges carry sets of `(variable, unconstrained distance vector,
/// dependence type)` tuples. Unconstrained distance vectors (Definition 2)
/// are computed as `source offset - target offset` where the source
/// statement precedes the target in program order; accesses that have no
/// constant offset (opaque statements, communication primitives, scalars)
/// produce *unrepresentable* labels (UDV == std::nullopt) that dependence
/// consumers treat conservatively.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_ANALYSIS_ASDG_H
#define ALF_ANALYSIS_ASDG_H

#include "ir/Offset.h"
#include "ir/Program.h"

#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace alf {
namespace analysis {

/// Classic dependence classification.
enum class DepType { Flow, Anti, Output };

/// Printable name ("flow", "anti", "output").
const char *getDepTypeName(DepType T);

/// One `(variable, UDV, type)` tuple from an ASDG edge label (paper
/// Definition 3). `UDV == std::nullopt` marks a dependence whose distance
/// cannot be represented as a constant vector; such dependences order
/// statements but forbid fusing their endpoints.
struct DepLabel {
  const ir::Symbol *Var = nullptr;
  std::optional<ir::Offset> UDV;
  DepType Type = DepType::Flow;

  bool operator==(const DepLabel &RHS) const {
    return Var == RHS.Var && UDV == RHS.UDV && Type == RHS.Type;
  }
};

/// A dependence edge from statement \p Src to statement \p Tgt (program
/// order guarantees Src < Tgt), carrying all labels between the two.
struct DepEdge {
  unsigned Src = 0;
  unsigned Tgt = 0;
  std::vector<DepLabel> Labels;
};

/// One dependence label of an ASDG: label \p Label of edge \p Edge.
struct LabelRef {
  unsigned Edge = 0;
  unsigned Label = 0;
};

/// Rows of values packed into one array: row R is
/// Values[Begin[R] .. Begin[R + 1]). Rows past the end are empty.
template <typename T> class PackedRows {
  std::vector<unsigned> Begin;
  std::vector<T> Values;

public:
  /// Rows 0 .. NumRows - 1 from the (row, value) pairs \p Pairs passes to
  /// the callback it is given, each row keeping its values in that order.
  /// Pairs is called twice (count, then fill) and must emit the same
  /// pairs both times; pairs naming a row past the end are dropped.
  template <typename PairsFn>
  static PackedRows build(unsigned NumRows, const PairsFn &Pairs) {
    PackedRows Rows;
    Rows.Begin.assign(NumRows + 1, 0);
    Pairs([&Rows, NumRows](unsigned Row, const T &) {
      if (Row < NumRows)
        ++Rows.Begin[Row + 1];
    });
    for (unsigned Row = 0; Row < NumRows; ++Row)
      Rows.Begin[Row + 1] += Rows.Begin[Row];
    Rows.Values.resize(Rows.Begin[NumRows]);
    std::vector<unsigned> Next(Rows.Begin.begin(), Rows.Begin.end() - 1);
    Pairs([&Rows, &Next, NumRows](unsigned Row, const T &Value) {
      if (Row < NumRows)
        Rows.Values[Next[Row]++] = Value;
    });
    return Rows;
  }

  std::span<const T> operator[](unsigned Row) const {
    if (Row + 1 >= Begin.size())
      return {};
    return std::span<const T>(Values).subspan(Begin[Row],
                                              Begin[Row + 1] - Begin[Row]);
  }
};

/// The array statement dependence graph over one Program.
class ASDG {
  const ir::Program *P = nullptr;
  std::vector<DepEdge> Edges;
  // Edge ids by source and by target statement, and label ids by
  // variable, all in ascending edge order; rebuilt from Edges whenever it
  // changes.
  PackedRows<unsigned> OutEdgeIds, InEdgeIds;
  PackedRows<LabelRef> DepIndex;
  // Per-symbol facts by symbol id, built once during build(): the
  // statements referencing each symbol (ascending) and its reference
  // weight.
  PackedRows<unsigned> RefIndex;
  std::vector<double> Weights;
  std::vector<const ir::ArraySymbol *> ByWeight;

  void indexEdges();

public:
  /// Builds the ASDG of \p Prog. The program must be well formed (run the
  /// verifier first); normalization is the caller's responsibility.
  static ASDG build(const ir::Program &Prog);

  const ir::Program &getProgram() const { return *P; }

  unsigned numNodes() const { return P->numStmts(); }
  unsigned numEdges() const { return static_cast<unsigned>(Edges.size()); }

  const DepEdge &getEdge(unsigned EdgeId) const { return Edges[EdgeId]; }
  const std::vector<DepEdge> &edges() const { return Edges; }

  /// Indices into edges() leaving / entering statement \p Node.
  std::span<const unsigned> outEdges(unsigned Node) const {
    return OutEdgeIds[Node];
  }
  std::span<const unsigned> inEdges(unsigned Node) const {
    return InEdgeIds[Node];
  }

  /// Ids of statements containing any reference to \p Var (reads, writes,
  /// communication and opaque accesses included). O(1): served from an
  /// index built during construction.
  std::span<const unsigned> statementsReferencing(const ir::Symbol *Var) const {
    return RefIndex[Var->getId()];
  }

  /// The labels whose variable is \p Var (the dependences due to Var),
  /// ordered by edge id, then by position in the edge's label list.
  std::span<const LabelRef> dependencesOn(const ir::Symbol *Var) const {
    return DepIndex[Var->getId()];
  }

  const DepLabel &getLabel(LabelRef L) const {
    return Edges[L.Edge].Labels[L.Label];
  }

  /// The paper's reference weight w(x, G): the number of array element
  /// references eliminated if \p Var were contracted, computed as the sum
  /// over statements of (references to Var in the statement) x (region
  /// size). Communication primitives contribute nothing (they disappear
  /// with the array). O(1): computed during construction.
  double referenceWeight(const ir::Symbol *Var) const;

  /// Array variables appearing in the graph, sorted by decreasing
  /// referenceWeight (ties broken by symbol id for determinism). This is
  /// the consideration order of FUSION-FOR-CONTRACTION (Figure 3, line 3).
  /// Computed during construction.
  const std::vector<const ir::ArraySymbol *> &arraysByDecreasingWeight() const {
    return ByWeight;
  }

  /// Ids of the edges forming the transitive reduction of the graph:
  /// an edge is omitted when a longer dependence path between the same
  /// statements already implies the ordering. The full edge set remains
  /// authoritative for legality; the reduction is for presentation.
  std::vector<unsigned> transitiveReductionEdges() const;

  /// Testing hook for the verification layer: removes edge \p EdgeId,
  /// simulating a dependence the analysis failed to record. Injected-bug
  /// tests use this to prove the dependence oracle (and not an output
  /// diff) catches the corruption. Never called by the pipeline.
  void dropEdgeForTest(unsigned EdgeId);

  /// Testing hook: appends a fabricated edge (a spurious dependence).
  void injectEdgeForTest(DepEdge E);

  /// Writes a readable edge listing.
  void print(std::ostream &OS) const;

  /// Graphviz rendering for debugging. With \p Reduced, draws only the
  /// transitive reduction.
  std::string dot(bool Reduced = false) const;
};

} // namespace analysis
} // namespace alf

#endif // ALF_ANALYSIS_ASDG_H
