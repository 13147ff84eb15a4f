//===- exec/Eval.cpp - Shared loop-nest evaluation core ---------------------===//

#include "exec/Eval.h"

#include "support/Casting.h"
#include "support/ErrorHandling.h"

#include <functional>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;

void EvalContext::wrapCoords(const ArraySymbol *A,
                             std::vector<int64_t> &At) const {
  const xform::PartialPlan *Plan = LP->partialPlanFor(A);
  if (!Plan)
    return;
  for (unsigned D = 0; D < At.size(); ++D)
    At[D] = Plan->wrap(D, At[D]);
}

double exec::evalExpr(const Expr *E, const EvalContext &Ctx,
                      const std::vector<int64_t> &Idx) {
  if (const auto *C = dyn_cast<ConstExpr>(E))
    return C->getValue();
  if (const auto *S = dyn_cast<ScalarRefExpr>(E))
    return Ctx.readScalar(S->getSymbol());
  if (const auto *A = dyn_cast<ArrayRefExpr>(E)) {
    const ArrayBuffer *Buf = Ctx.Store->buffer(A->getSymbol());
    if (!Buf)
      alf_unreachable("read of an array without storage");
    std::vector<int64_t> At(Idx.size());
    for (unsigned D = 0; D < Idx.size(); ++D)
      At[D] = Idx[D] + A->getOffset()[D];
    Ctx.wrapCoords(A->getSymbol(), At);
    return Buf->load(At);
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E))
    return UnaryExpr::evaluate(U->getOpcode(),
                               evalExpr(U->getOperand(), Ctx, Idx));
  const auto *B = cast<BinaryExpr>(E);
  return BinaryExpr::evaluate(B->getOpcode(), evalExpr(B->getLHS(), Ctx, Idx),
                              evalExpr(B->getRHS(), Ctx, Idx));
}

void exec::execScalarStmt(const ScalarStmt &S, EvalContext &Ctx,
                          const std::vector<int64_t> &Idx) {
  double V = evalExpr(S.RHS.get(), Ctx, Idx);
  if (S.LHS.isScalar()) {
    if (S.Accumulate)
      V = S.SR->combine(Ctx.readScalar(S.LHS.Scalar), V);
    Ctx.writeScalar(S.LHS.Scalar, V);
    return;
  }
  ArrayBuffer *Buf = Ctx.Store->buffer(S.LHS.Array);
  if (!Buf)
    alf_unreachable("write to an array without storage");
  std::vector<int64_t> At(Idx.size());
  for (unsigned D = 0; D < Idx.size(); ++D)
    At[D] = Idx[D] + S.LHS.Off[D];
  Ctx.wrapCoords(S.LHS.Array, At);
  Buf->store(At, V);
}

void exec::runNestLoops(const LoopNest &Nest, EvalContext &Ctx,
                        std::vector<int64_t> &Idx, unsigned FromLoop) {
  const Region &R = *Nest.R;
  if (FromLoop == R.rank()) {
    for (const ScalarStmt &S : Nest.Body)
      execScalarStmt(S, Ctx, Idx);
    return;
  }
  unsigned Dim = Nest.LSV.dimOf(FromLoop);
  if (Nest.LSV.dirOf(FromLoop) > 0) {
    for (int64_t I = R.lo(Dim); I <= R.hi(Dim); ++I) {
      Idx[Dim] = I;
      runNestLoops(Nest, Ctx, Idx, FromLoop + 1);
    }
  } else {
    for (int64_t I = R.hi(Dim); I >= R.lo(Dim); --I) {
      Idx[Dim] = I;
      runNestLoops(Nest, Ctx, Idx, FromLoop + 1);
    }
  }
}

void exec::runNestLoopsRestricted(const LoopNest &Nest, EvalContext &Ctx,
                                  std::vector<int64_t> &Idx,
                                  unsigned SplitLoop, int64_t Lo, int64_t Hi) {
  unsigned Dim = Nest.LSV.dimOf(SplitLoop);
  if (Nest.LSV.dirOf(SplitLoop) > 0) {
    for (int64_t I = Lo; I <= Hi; ++I) {
      Idx[Dim] = I;
      runNestLoops(Nest, Ctx, Idx, SplitLoop + 1);
    }
  } else {
    for (int64_t I = Hi; I >= Lo; --I) {
      Idx[Dim] = I;
      runNestLoops(Nest, Ctx, Idx, SplitLoop + 1);
    }
  }
}

void exec::iterateNest(const LoopNest &Nest, EvalContext &Ctx) {
  for (const lir::ScalarInit &SI : Nest.ScalarInits)
    Ctx.writeScalar(SI.Acc, SI.Init);
  std::vector<int64_t> Idx(Nest.R->rank());
  runNestLoops(Nest, Ctx, Idx, 0);
}

void exec::execOpaqueStmt(const OpaqueStmt &O, EvalContext &Ctx) {
  const Region *R = O.getRegion();
  if (!R) {
    double V = 1.0;
    for (const ScalarSymbol *S : O.scalarReads())
      V += 0.5 * Ctx.readScalar(S);
    unsigned Ordinal = 0;
    for (const ScalarSymbol *S : O.scalarWrites())
      Ctx.writeScalar(S, V + Ordinal++);
    return;
  }

  double ScalarBase = 1.0;
  for (const ScalarSymbol *S : O.scalarReads())
    ScalarBase += 0.5 * Ctx.readScalar(S);

  std::vector<double> ScalarAccum(O.scalarWrites().size(), 0.0);
  std::vector<int64_t> Idx(R->rank());
  std::function<void(unsigned)> Walk = [&](unsigned D) {
    if (D == R->rank()) {
      double V = ScalarBase;
      for (const ArraySymbol *A : O.arrayReads())
        if (const ArrayBuffer *Buf = Ctx.Store->buffer(A))
          if (Buf->bounds().rank() == Idx.size())
            V += 0.5 * Buf->load(Idx);
      unsigned Ordinal = 0;
      for (const ArraySymbol *A : O.arrayWrites())
        if (ArrayBuffer *Buf = Ctx.Store->buffer(A))
          if (Buf->bounds().rank() == Idx.size())
            Buf->store(Idx, V + Ordinal++);
      for (double &Acc : ScalarAccum)
        Acc += V;
      return;
    }
    for (int64_t I = R->lo(D); I <= R->hi(D); ++I) {
      Idx[D] = I;
      Walk(D + 1);
    }
  };
  Walk(0);

  double Scale = 1.0 / static_cast<double>(R->size());
  for (size_t I = 0; I < O.scalarWrites().size(); ++I)
    Ctx.writeScalar(O.scalarWrites()[I], ScalarAccum[I] * Scale);
}

Storage exec::allocateStorage(const LoopProgram &LP, uint64_t Seed) {
  const Program &P = LP.source();
  FootprintInfo FI = FootprintInfo::compute(P);
  return Storage::allocate(
      P, FI, Seed,
      [&](const ArraySymbol *A) { return LP.storageRegion(A, FI).has_value(); },
      [&](const ArraySymbol *A) { return LP.storageRegion(A, FI); });
}

uint64_t exec::storageBytes(const LoopProgram &LP) {
  const Program &P = LP.source();
  FootprintInfo FI = FootprintInfo::compute(P);
  uint64_t Total = 0;
  for (const ArraySymbol *A : P.arrays()) {
    std::optional<Region> R = LP.storageRegion(A, FI);
    if (!R)
      continue;
    uint64_t Bytes = A->getElemSize();
    for (unsigned D = 0; D < R->rank(); ++D) {
      int64_t Extent;
      if (__builtin_sub_overflow(R->hi(D), R->lo(D), &Extent) ||
          __builtin_add_overflow(Extent, 1, &Extent) ||
          __builtin_mul_overflow(Bytes, static_cast<uint64_t>(Extent),
                                 &Bytes))
        return UINT64_MAX;
    }
    if (__builtin_add_overflow(Total, Bytes, &Total))
      return UINT64_MAX;
  }
  return Total;
}

RunResult exec::collectResults(const LoopProgram &LP, const Storage &Store) {
  const Program &P = LP.source();
  RunResult Result;
  for (const ArraySymbol *A : P.arrays()) {
    if (!A->isLiveOut())
      continue;
    if (const ArrayBuffer *Buf = Store.buffer(A))
      Result.LiveOut.emplace(A->getName(), Buf->raw());
  }
  for (const Symbol *Sym : P.symbols())
    if (const auto *Sc = dyn_cast<ScalarSymbol>(Sym))
      Result.ScalarsOut.emplace(Sc->getName(), Store.getScalar(Sc));
  return Result;
}
