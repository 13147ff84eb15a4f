//===- scalarize/FortranEmitter.cpp - Fortran 77 code generation ------------===//

#include "scalarize/FortranEmitter.h"

#include "analysis/Footprint.h"
#include "support/ErrorHandling.h"
#include "support/StringUtil.h"

#include <cmath>
#include <map>
#include <set>
#include <sstream>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::scalarize;

namespace {

class FortranEmitter {
  const LoopProgram &LP;
  const Program &P;
  FootprintInfo FI;
  std::map<const Symbol *, std::string> Names;
  std::set<std::string> Taken;
  std::ostringstream OS;

public:
  explicit FortranEmitter(const LoopProgram &LP)
      : LP(LP), P(LP.source()), FI(FootprintInfo::compute(P)) {}

  /// Fortran-legal, unique name for a symbol (letter first, no
  /// underscores, case-insensitively unique).
  std::string nameOf(const Symbol *Sym) {
    auto It = Names.find(Sym);
    if (It != Names.end())
      return It->second;
    std::string Base;
    for (char C : Sym->getName())
      if (std::isalnum(static_cast<unsigned char>(C)))
        Base += static_cast<char>(std::toupper(C));
    if (Base.empty() || !std::isalpha(static_cast<unsigned char>(Base[0])))
      Base = "Z" + Base;
    std::string Candidate = Base;
    for (unsigned Suffix = 2; Taken.count(Candidate); ++Suffix)
      Candidate = Base + std::to_string(Suffix);
    Taken.insert(Candidate);
    Names.emplace(Sym, Candidate);
    return Candidate;
  }

  std::vector<const ArraySymbol *> allocatedArrays() {
    std::vector<const ArraySymbol *> Result;
    for (const ArraySymbol *A : P.arrays())
      if (LP.storageRegion(A, FI))
        Result.push_back(A);
    return Result;
  }

  std::vector<const ScalarSymbol *> programScalars() {
    std::vector<const ScalarSymbol *> Result;
    for (const Symbol *S : P.symbols())
      if (const auto *Sc = dyn_cast<ScalarSymbol>(S))
        Result.push_back(Sc);
    return Result;
  }

  /// Declared bounds of an array: rolling-buffer bounds for partially
  /// contracted arrays, footprint bounds otherwise.
  Region boundsOf(const ArraySymbol *A) { return *LP.storageRegion(A, FI); }

  /// Fixed-form line emission with continuation cards at column 72.
  void emitLine(const std::string &Body, unsigned Indent = 0) {
    std::string Prefix = "      " + std::string(Indent, ' ');
    std::string Text = Prefix + Body;
    if (Text.size() <= 72) {
      OS << Text << '\n';
      return;
    }
    size_t Avail = 72;
    OS << Text.substr(0, Avail) << '\n';
    size_t Pos = Avail;
    while (Pos < Text.size()) {
      std::string Chunk = Text.substr(Pos, 72 - 6);
      OS << "     &" << Chunk << '\n';
      Pos += Chunk.size();
    }
  }

  std::string literal(double V) {
    std::string S = formatString("%.17g", V);
    // Fortran double-precision exponent marker.
    for (char &C : S)
      if (C == 'e' || C == 'E')
        C = 'D';
    if (S.find('D') == std::string::npos &&
        S.find('.') == std::string::npos)
      S += "D0";
    else if (S.find('D') == std::string::npos)
      S += "D0";
    return S;
  }

  std::string subscript(const ArraySymbol *A, const Offset &Off) {
    const xform::PartialPlan *Plan = LP.partialPlanFor(A);
    std::vector<std::string> Coords;
    for (unsigned D = 0; D < A->getRank(); ++D) {
      std::string Coord = formatString("I%u", D + 1);
      if (Off[D] > 0)
        Coord += formatString("+%d", Off[D]);
      else if (Off[D] < 0)
        Coord += formatString("%d", Off[D]);
      if (Plan && Plan->isReduced(D))
        Coord = formatString("MOD(%s-(%lld)+%lld, %lld)", Coord.c_str(),
                             static_cast<long long>(Plan->OrigLo[D]),
                             static_cast<long long>(Plan->BufferExtents[D] *
                                                    2),
                             static_cast<long long>(Plan->BufferExtents[D]));
      Coords.push_back(Coord);
    }
    return nameOf(A) + "(" + join(Coords, ",") +
           ")";
  }

  std::string renderExpr(const Expr *E) {
    if (const auto *C = dyn_cast<ConstExpr>(E))
      return literal(C->getValue());
    if (const auto *S = dyn_cast<ScalarRefExpr>(E))
      return nameOf(S->getSymbol());
    if (const auto *A = dyn_cast<ArrayRefExpr>(E))
      return subscript(A->getSymbol(), A->getOffset());
    if (const auto *U = dyn_cast<UnaryExpr>(E)) {
      std::string Op = renderExpr(U->getOperand());
      switch (U->getOpcode()) {
      case UnaryExpr::Opcode::Neg:
        return "(-(" + Op + "))";
      case UnaryExpr::Opcode::Abs:
        return "ABS(" + Op + ")";
      case UnaryExpr::Opcode::Sqrt:
        return "SQRT(ABS(" + Op + "))";
      case UnaryExpr::Opcode::Exp:
        return "EXP(MIN(" + Op + ", 4D1))";
      case UnaryExpr::Opcode::Log:
        return "LOG(ABS(" + Op + ") + 1D-12)";
      case UnaryExpr::Opcode::Sin:
        return "SIN(" + Op + ")";
      case UnaryExpr::Opcode::Cos:
        return "COS(" + Op + ")";
      case UnaryExpr::Opcode::Recip:
        return "ALFREC(" + Op + ")";
      }
      alf_unreachable("unhandled unary opcode");
    }
    const auto *B = cast<BinaryExpr>(E);
    std::string L = renderExpr(B->getLHS());
    std::string R = renderExpr(B->getRHS());
    switch (B->getOpcode()) {
    case BinaryExpr::Opcode::Add:
      return "(" + L + " + " + R + ")";
    case BinaryExpr::Opcode::Sub:
      return "(" + L + " - " + R + ")";
    case BinaryExpr::Opcode::Mul:
      return "(" + L + " * " + R + ")";
    case BinaryExpr::Opcode::Div:
      return "ALFDIV(" + L + ", " + R + ")";
    case BinaryExpr::Opcode::Min:
      return "MIN(" + L + ", " + R + ")";
    case BinaryExpr::Opcode::Max:
      return "MAX(" + L + ", " + R + ")";
    }
    alf_unreachable("unhandled expression kind");
  }

  unsigned maxRank() {
    unsigned Rank = 0;
    for (const auto &NodePtr : LP.nodes())
      if (const auto *Nest = dyn_cast<LoopNest>(NodePtr.get()))
        Rank = std::max(Rank, Nest->R->rank());
    return Rank;
  }

  void emitNest(const LoopNest &Nest) {
    for (const lir::ScalarInit &SI : Nest.ScalarInits) {
      std::string InitText;
      if (std::isinf(SI.Init))
        InitText = SI.Init > 0 ? "1.797693134862315D308"
                               : "-1.797693134862315D308";
      else
        InitText = literal(SI.Init);
      emitLine(nameOf(SI.Acc) + " = " + InitText);
    }
    unsigned Indent = 0;
    for (unsigned L = 0; L < Nest.LSV.rank(); ++L) {
      unsigned Dim = Nest.LSV.dimOf(L);
      long long Lo = Nest.R->lo(Dim), Hi = Nest.R->hi(Dim);
      if (Nest.LSV.dirOf(L) > 0)
        emitLine(formatString("DO I%u = %lld, %lld", Dim + 1, Lo, Hi),
                 Indent);
      else
        emitLine(formatString("DO I%u = %lld, %lld, -1", Dim + 1, Hi, Lo),
                 Indent);
      Indent += 2;
    }
    for (const ScalarStmt &S : Nest.Body) {
      std::string RHS = renderExpr(S.RHS.get());
      if (S.LHS.isScalar()) {
        std::string Name = nameOf(S.LHS.Scalar);
        if (!S.Accumulate)
          emitLine(Name + " = " + RHS, Indent);
        else
          switch (S.SR->Plus) {
          case semiring::OpKind::Min:
            emitLine(Name + " = MIN(" + Name + ", " + RHS + ")", Indent);
            break;
          case semiring::OpKind::Max:
            emitLine(Name + " = MAX(" + Name + ", " + RHS + ")", Indent);
            break;
          case semiring::OpKind::Or:
            emitLine("IF (" + Name + " .NE. 0.0D0 .OR. " + RHS +
                         " .NE. 0.0D0) THEN",
                     Indent);
            emitLine(Name + " = 1.0D0", Indent + 2);
            emitLine("ELSE", Indent);
            emitLine(Name + " = 0.0D0", Indent + 2);
            emitLine("END IF", Indent);
            break;
          default:
            emitLine(Name + " = " + Name + " + " + RHS, Indent);
            break;
          }
        continue;
      }
      emitLine(subscript(S.LHS.Array, S.LHS.Off) + " = " + RHS, Indent);
    }
    for (unsigned L = 0; L < Nest.LSV.rank(); ++L) {
      Indent -= 2;
      emitLine("END DO", Indent);
    }
  }

  std::string emit(const std::string &SubName) {
    // Parameter list: arrays then scalars.
    std::vector<std::string> Params;
    for (const ArraySymbol *A : allocatedArrays())
      Params.push_back(nameOf(A));
    for (const ScalarSymbol *S : programScalars())
      Params.push_back(nameOf(S));

    OS << "C     Generated by ALF from program '" << P.getName() << "'.\n";
    emitLine("SUBROUTINE " + SubName + "(" + join(Params, ", ") + ")");
    emitLine("IMPLICIT NONE");

    // Declarations.
    for (const ArraySymbol *A : allocatedArrays()) {
      Region B = boundsOf(A);
      std::vector<std::string> Dims;
      for (unsigned D = 0; D < B.rank(); ++D)
        Dims.push_back(formatString("%lld:%lld",
                                    static_cast<long long>(B.lo(D)),
                                    static_cast<long long>(B.hi(D))));
      emitLine("DOUBLE PRECISION " + nameOf(A) + "(" + join(Dims, ",") +
               ")");
    }
    for (const ScalarSymbol *S : programScalars())
      emitLine("DOUBLE PRECISION " + nameOf(S));
    for (const ArraySymbol *A : P.arrays())
      if (const ScalarSymbol *S = LP.scalarFor(A))
        emitLine("DOUBLE PRECISION " + nameOf(S));
    unsigned Rank = maxRank();
    if (Rank > 0) {
      std::vector<std::string> Ivs;
      for (unsigned D = 0; D < Rank; ++D)
        Ivs.push_back(formatString("I%u", D + 1));
      emitLine("INTEGER " + join(Ivs, ", "));
    }
    // Guarded-arithmetic statement functions (match the interpreter).
    emitLine("DOUBLE PRECISION ALFREC, ALFDIV, ALFV, ALFL, ALFR");
    emitLine("ALFREC(ALFV) = 1D0 / (ALFV + SIGN(1D-12, ALFV))");
    emitLine("ALFDIV(ALFL, ALFR) = ALFL / (ALFR + SIGN(1D-12, ALFR))");

    for (const auto &NodePtr : LP.nodes()) {
      if (const auto *Nest = dyn_cast<LoopNest>(NodePtr.get())) {
        emitNest(*Nest);
        continue;
      }
      if (const auto *C = dyn_cast<CommOp>(NodePtr.get())) {
        OS << "C     halo exchange " << C->Array->getName()
           << C->Dir.str() << " (single address space: no-op)\n";
        continue;
      }
      OS << "C     opaque statement elided (unsupported in Fortran "
            "backend)\n";
    }
    emitLine("RETURN");
    emitLine("END");
    return OS.str();
  }
};

} // namespace

std::string scalarize::emitFortran(const LoopProgram &LP,
                                   const std::string &SubName) {
  FortranEmitter E(LP);
  return E.emit(SubName);
}
