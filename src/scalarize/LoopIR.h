//===- scalarize/LoopIR.h - Scalarized loop nest IR ------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target of scalarization: a sequence of loop nests (one per fusible
/// cluster), communication operations and opaque operations. Each loop
/// nest carries the loop structure vector chosen by FIND-LOOP-STRUCTURE
/// and a body of element-wise scalar statements in dependence order.
/// Contracted arrays appear as scalar variables owned by the LoopProgram.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SCALARIZE_LOOPIR_H
#define ALF_SCALARIZE_LOOPIR_H

#include "ir/Program.h"
#include "xform/LoopStructure.h"
#include "xform/PartialContraction.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

namespace alf {
namespace analysis {
class FootprintInfo;
} // namespace analysis

namespace lir {

/// The left-hand side of a scalarized statement: either an array element
/// at a constant offset from the loop indices, or a scalar (a contracted
/// array or a plain scalar variable).
struct Target {
  const ir::ArraySymbol *Array = nullptr; // null => scalar target
  ir::Offset Off;
  const ir::ScalarSymbol *Scalar = nullptr;

  bool isScalar() const { return Scalar != nullptr; }

  static Target elem(const ir::ArraySymbol *A, ir::Offset O) {
    Target T;
    T.Array = A;
    T.Off = std::move(O);
    return T;
  }
  static Target scalar(const ir::ScalarSymbol *S) {
    Target T;
    T.Scalar = S;
    return T;
  }
};

/// One element-wise assignment inside a loop nest body. The right-hand
/// side reuses the ir::Expr tree; ArrayRefExpr means "element at loop
/// indices + offset", ScalarRefExpr may name a contracted array's scalar.
/// When `Accumulate` is set the statement folds the value into a scalar
/// accumulator with the ⊕ of `SR` (`LHS = LHS ⊕ RHS`) instead of
/// assigning; the matching ScalarInit seeds the accumulator with SR's 0̄.
struct ScalarStmt {
  Target LHS;
  ir::ExprPtr RHS;
  unsigned SrcStmtId = 0; ///< Provenance: originating array statement.
  bool Accumulate = false;
  const semiring::Semiring *SR = &semiring::plusTimes();
};

/// Base class for the nodes of a LoopProgram.
class LNode {
public:
  enum class LNodeKind { Loop, Comm, Opaque };

private:
  LNodeKind Kind;

protected:
  explicit LNode(LNodeKind Kind) : Kind(Kind) {}

public:
  virtual ~LNode();
  LNodeKind getKind() const { return Kind; }
};

/// Initialization of one reduction accumulator before its nest runs: the
/// ⊕-identity value plus the semiring whose ⊕ will fold into it. The
/// semiring travels with the init so lane-splitting backends (the
/// vectorizing C emitter) know how to seed every vector lane with the
/// identity and fold the lanes back together at loop exit without
/// re-deriving the algebra from the body.
struct ScalarInit {
  const ir::ScalarSymbol *Acc = nullptr;
  double Init = 0.0; ///< 0̄ of SR; splat across all lanes when vectorized
  const semiring::Semiring *SR = &semiring::plusTimes();
};

/// A loop nest implementing one fusible cluster. Accumulators of any
/// reductions in the body are initialized to their identity before the
/// nest runs (ScalarInits).
class LoopNest : public LNode {
public:
  xform::LoopStructureVector LSV;
  const ir::Region *R = nullptr;
  std::vector<ScalarStmt> Body;
  std::vector<ScalarInit> ScalarInits;
  unsigned ClusterId = 0;

  /// The unconstrained distance vectors of all dependences internal to
  /// the cluster (the inputs FIND-LOOP-STRUCTURE ran on). Retained so
  /// downstream consumers — parallelization legality above all — can
  /// reason about which loops carry dependences without re-deriving the
  /// fusion partition.
  std::vector<ir::Offset> UDVs;

  LoopNest() : LNode(LNodeKind::Loop) {}

  static bool classof(const LNode *N) {
    return N->getKind() == LNodeKind::Loop;
  }
};

/// A halo-exchange communication operation. `Dir` has exactly one nonzero
/// component: sign gives the neighbour direction along the distributed
/// dimension, magnitude the halo width in elements. Created either by
/// scalarizing an array-level CommStmt (favor-communication policy) or by
/// loop-level insertion after fusion (favor-fusion policy).
class CommOp : public LNode {
public:
  const ir::ArraySymbol *Array = nullptr;
  ir::Offset Dir;
  ir::CommStmt::CommPhase Phase = ir::CommStmt::CommPhase::Whole;
  int PairId = -1;
  const ir::CommStmt *Src = nullptr; ///< Provenance when array-level.

  CommOp() : LNode(LNodeKind::Comm) {}

  static bool classof(const LNode *N) {
    return N->getKind() == LNodeKind::Comm;
  }
};

/// An opaque operation carried over from the array program.
class OpaqueOp : public LNode {
public:
  const ir::OpaqueStmt *Src = nullptr;

  OpaqueOp() : LNode(LNodeKind::Opaque) {}

  static bool classof(const LNode *N) {
    return N->getKind() == LNodeKind::Opaque;
  }
};

/// A fully scalarized program: the loop nests of all clusters in
/// topological order plus the scalars created by contraction.
class LoopProgram {
  const ir::Program *Src = nullptr;
  std::shared_ptr<const uint64_t> Identity = freshIdentity();
  std::vector<std::unique_ptr<LNode>> Nodes;
  std::vector<std::unique_ptr<ir::ScalarSymbol>> OwnedScalars;
  std::vector<std::unique_ptr<ir::Region>> OwnedRegions;
  std::map<const ir::ArraySymbol *, const ir::ScalarSymbol *> ContractionMap;
  std::map<const ir::ArraySymbol *, xform::PartialPlan> PartialMap;

  static std::shared_ptr<const uint64_t> freshIdentity();

public:
  explicit LoopProgram(const ir::Program &SrcProg) : Src(&SrcProg) {}

  const ir::Program &source() const { return *Src; }

  /// The identity of this program's current contents, for caches of work
  /// derived from them (the native JIT's prepared kernels): a
  /// process-unique number that is never reused. Every mutator below
  /// replaces it, so a cache keyed on the number never serves a mutated
  /// program, and a cache holding a weak reference to the token sees it
  /// expire once the program is mutated or destroyed. Null only in a
  /// moved-from program.
  const std::shared_ptr<const uint64_t> &identity() const { return Identity; }

  void addNode(std::unique_ptr<LNode> N) {
    Identity = freshIdentity();
    Nodes.push_back(std::move(N));
  }

  /// Inserts \p N before position \p Pos (communication insertion).
  void insertNode(size_t Pos, std::unique_ptr<LNode> N) {
    Identity = freshIdentity();
    Nodes.insert(Nodes.begin() + static_cast<ptrdiff_t>(Pos), std::move(N));
  }

  const std::vector<std::unique_ptr<LNode>> &nodes() const { return Nodes; }

  /// Mutable access for post-scalarization passes (communication
  /// insertion, ablation experiments that override loop structures).
  /// Renews identity(): mutate through the returned reference before the
  /// program next runs, not while a backend holds it.
  std::vector<std::unique_ptr<LNode>> &nodesMutable() {
    Identity = freshIdentity();
    return Nodes;
  }

  /// Registers \p A as contracted and returns its replacement scalar.
  const ir::ScalarSymbol *addContraction(const ir::ArraySymbol *A);

  /// Takes ownership of \p R and returns a stable pointer with the
  /// LoopProgram's lifetime. Source-program regions are interned by the
  /// Program; nests whose region is synthesized after scalarization
  /// (fault-injection hooks, ablation experiments) park theirs here.
  const ir::Region *ownRegion(ir::Region R) {
    Identity = freshIdentity();
    OwnedRegions.push_back(std::make_unique<ir::Region>(std::move(R)));
    return OwnedRegions.back().get();
  }

  /// The scalar replacing \p A, or null when A was not contracted.
  const ir::ScalarSymbol *scalarFor(const ir::ArraySymbol *A) const {
    auto It = ContractionMap.find(A);
    return It == ContractionMap.end() ? nullptr : It->second;
  }

  /// True if array \p A was contracted away.
  bool isContracted(const ir::ArraySymbol *A) const {
    return ContractionMap.count(A) != 0;
  }

  /// Registers a rolling-buffer plan for a partially contracted array
  /// (the paper's lower-dimensional contraction extension).
  void addPartialPlan(xform::PartialPlan Plan) {
    Identity = freshIdentity();
    PartialMap.emplace(Plan.Array, std::move(Plan));
  }

  /// The rolling-buffer plan for \p A, or null when A has full storage.
  const xform::PartialPlan *partialPlanFor(const ir::ArraySymbol *A) const {
    auto It = PartialMap.find(A);
    return It == PartialMap.end() ? nullptr : &It->second;
  }

  const std::map<const ir::ArraySymbol *, xform::PartialPlan> &
  partialPlans() const {
    return PartialMap;
  }

  /// Arrays that still require storage (not contracted).
  std::vector<const ir::ArraySymbol *> allocatedArrays() const;

  /// The region \p A is stored over: its rolling buffer when partially
  /// contracted, else its footprint bounds in \p FI; none when A was
  /// contracted or is never referenced. exec::Storage, the C and Fortran
  /// emitters and exec::storageBytes all lay arrays out by this rule.
  std::optional<ir::Region>
  storageRegion(const ir::ArraySymbol *A,
                const analysis::FootprintInfo &FI) const;

  /// Writes C-like loop nests.
  void print(std::ostream &OS) const;

  /// Returns print() output as a string.
  std::string str() const;
};

} // namespace lir
} // namespace alf

#endif // ALF_SCALARIZE_LOOPIR_H
