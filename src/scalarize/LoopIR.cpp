//===- scalarize/LoopIR.cpp - Scalarized loop nest IR ----------------------===//

#include "scalarize/LoopIR.h"

#include "analysis/Footprint.h"
#include "support/StringUtil.h"

#include <atomic>
#include <sstream>

using namespace alf;
using namespace alf::ir;
using namespace alf::lir;

LNode::~LNode() = default;

std::shared_ptr<const uint64_t> LoopProgram::freshIdentity() {
  static std::atomic<uint64_t> Next{1};
  return std::make_shared<const uint64_t>(
      Next.fetch_add(1, std::memory_order_relaxed));
}

const ScalarSymbol *LoopProgram::addContraction(const ArraySymbol *A) {
  if (const ScalarSymbol *Existing = scalarFor(A))
    return Existing;
  Identity = freshIdentity();
  auto Scalar = std::make_unique<ScalarSymbol>(
      "s_" + A->getName(), 100000 + static_cast<unsigned>(OwnedScalars.size()));
  const ScalarSymbol *Raw = Scalar.get();
  OwnedScalars.push_back(std::move(Scalar));
  ContractionMap.emplace(A, Raw);
  return Raw;
}

std::vector<const ArraySymbol *> LoopProgram::allocatedArrays() const {
  std::vector<const ArraySymbol *> Result;
  for (const ArraySymbol *A : Src->arrays())
    if (!isContracted(A))
      Result.push_back(A);
  return Result;
}

std::optional<Region>
LoopProgram::storageRegion(const ArraySymbol *A,
                           const analysis::FootprintInfo &FI) const {
  const Region *Bounds = FI.boundsFor(A);
  if (isContracted(A) || !Bounds)
    return std::nullopt;
  if (const xform::PartialPlan *Plan = partialPlanFor(A))
    return Plan->bufferRegion();
  return *Bounds;
}

/// Renders an expression with array references spelled as C subscripts
/// ("A[i1-1][i2]"), scalar references by name.
static std::string renderExpr(const Expr *E) {
  if (const auto *C = dyn_cast<ConstExpr>(E))
    return C->str();
  if (const auto *S = dyn_cast<ScalarRefExpr>(E))
    return S->getSymbol()->getName();
  if (const auto *A = dyn_cast<ArrayRefExpr>(E)) {
    std::string Out = A->getSymbol()->getName();
    for (unsigned D = 0; D < A->getOffset().rank(); ++D) {
      int32_t Off = A->getOffset()[D];
      if (Off == 0)
        Out += formatString("[i%u]", D + 1);
      else
        Out += formatString("[i%u%+d]", D + 1, Off);
    }
    return Out;
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    if (U->getOpcode() == UnaryExpr::Opcode::Neg)
      return "-(" + renderExpr(U->getOperand()) + ")";
    return std::string(UnaryExpr::getOpcodeName(U->getOpcode())) + "(" +
           renderExpr(U->getOperand()) + ")";
  }
  const auto *B = cast<BinaryExpr>(E);
  const char *Name = BinaryExpr::getOpcodeName(B->getOpcode());
  if (B->getOpcode() == BinaryExpr::Opcode::Min ||
      B->getOpcode() == BinaryExpr::Opcode::Max)
    return std::string(Name) + "(" + renderExpr(B->getLHS()) + ", " +
           renderExpr(B->getRHS()) + ")";
  return "(" + renderExpr(B->getLHS()) + " " + Name + " " +
         renderExpr(B->getRHS()) + ")";
}

static std::string renderTarget(const Target &T) {
  if (T.isScalar())
    return T.Scalar->getName();
  std::string Out = T.Array->getName();
  for (unsigned D = 0; D < T.Off.rank(); ++D) {
    int32_t Off = T.Off[D];
    if (Off == 0)
      Out += formatString("[i%u]", D + 1);
    else
      Out += formatString("[i%u%+d]", D + 1, Off);
  }
  return Out;
}

void LoopProgram::print(std::ostream &OS) const {
  OS << "// scalarized " << Src->getName() << "\n";
  for (const auto &[Array, Scalar] : ContractionMap)
    OS << "double " << Scalar->getName() << "; // contracted "
       << Array->getName() << '\n';
  for (const auto &NodePtr : Nodes) {
    if (const auto *Loop = dyn_cast<LoopNest>(NodePtr.get())) {
      for (const ScalarInit &SI : Loop->ScalarInits)
        OS << SI.Acc->getName() << " = " << formatString("%g", SI.Init)
           << ";\n";
      std::string Indent;
      for (unsigned L = 0; L < Loop->LSV.rank(); ++L) {
        unsigned Dim = Loop->LSV.dimOf(L);
        long long Lo = Loop->R->lo(Dim), Hi = Loop->R->hi(Dim);
        if (Loop->LSV.dirOf(L) > 0)
          OS << Indent
             << formatString("for (i%u = %lld; i%u <= %lld; ++i%u)", Dim + 1,
                             Lo, Dim + 1, Hi, Dim + 1)
             << '\n';
        else
          OS << Indent
             << formatString("for (i%u = %lld; i%u >= %lld; --i%u)", Dim + 1,
                             Hi, Dim + 1, Lo, Dim + 1)
             << '\n';
        Indent += "  ";
      }
      OS << Indent << "{\n";
      for (const ScalarStmt &S : Loop->Body) {
        std::string LHS = renderTarget(S.LHS);
        if (S.Accumulate) {
          if (S.SR->Plus == semiring::OpKind::Add)
            OS << Indent << "  " << LHS << " += " << renderExpr(S.RHS.get())
               << ";\n";
          else
            OS << Indent << "  " << LHS << " = " << S.SR->plusName() << "("
               << LHS << ", " << renderExpr(S.RHS.get()) << ");\n";
          continue;
        }
        OS << Indent << "  " << LHS << " = " << renderExpr(S.RHS.get())
           << ";\n";
      }
      OS << Indent << "}\n";
      continue;
    }
    if (const auto *Comm = dyn_cast<CommOp>(NodePtr.get())) {
      const char *PhaseName = "exchange";
      if (Comm->Phase == ir::CommStmt::CommPhase::Send)
        PhaseName = "send";
      else if (Comm->Phase == ir::CommStmt::CommPhase::Recv)
        PhaseName = "recv";
      OS << "/* comm." << PhaseName << ' ' << Comm->Array->getName()
         << Comm->Dir.str() << " */\n";
      continue;
    }
    const auto *Op = cast<OpaqueOp>(NodePtr.get());
    OS << "/* " << Op->Src->str() << " */\n";
  }
}

std::string LoopProgram::str() const {
  std::ostringstream OS;
  print(OS);
  return OS.str();
}
