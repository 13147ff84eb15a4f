//===- exec/Storage.cpp - Array storage and address mapping ----------------===//

#include "exec/Storage.h"

#include <cassert>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;

ArrayBuffer::ArrayBuffer(const ArraySymbol *Sym, const Region &Bounds,
                         uint64_t BaseAddr)
    : Sym(Sym), Bounds(Bounds), BaseAddr(BaseAddr) {
  unsigned Rank = Bounds.rank();
  Strides.assign(Rank, 1);
  for (int D = static_cast<int>(Rank) - 2; D >= 0; --D)
    Strides[D] = Strides[D + 1] * Bounds.extent(D + 1);
  Data.assign(static_cast<size_t>(Bounds.size()), 0.0);
}

int64_t ArrayBuffer::linearIndex(const std::vector<int64_t> &Idx) const {
  assert(Idx.size() == Bounds.rank() && "index rank mismatch");
  int64_t Linear = 0;
  for (unsigned D = 0; D < Bounds.rank(); ++D) {
    assert(Idx[D] >= Bounds.lo(D) && Idx[D] <= Bounds.hi(D) &&
           "index outside allocated bounds");
    Linear += (Idx[D] - Bounds.lo(D)) * Strides[D];
  }
  return Linear;
}

void ArrayBuffer::fillRandom(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (double &V : Data)
    V = Rng.nextDouble(-1.0, 1.0);
}

void ArrayBuffer::fillZero() {
  for (double &V : Data)
    V = 0.0;
}

uint64_t exec::hashName(std::string_view Name, uint64_t H) {
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

Storage Storage::allocate(
    const Program &P, const FootprintInfo &FI, uint64_t Seed,
    const std::function<bool(const ArraySymbol *)> &Allocate,
    const std::function<std::optional<Region>(const ArraySymbol *)>
        &BoundsOverride) {
  Storage S;
  // Lay arrays out back to back, line-aligned, starting at a nonzero base
  // so address 0 is never used. A per-array stagger (a varying odd number
  // of cache lines) breaks the pathological case where equal-sized arrays
  // all map to the same cache sets — real allocators and padded commons
  // stagger the same way.
  uint64_t NextBase = 4096;
  unsigned Placed = 0;
  for (const ArraySymbol *A : P.arrays()) {
    if (!Allocate(A))
      continue;
    const Region *Bounds = FI.boundsFor(A);
    if (!Bounds)
      continue; // never referenced: no storage
    std::optional<Region> Override;
    if (BoundsOverride)
      Override = BoundsOverride(A);
    ArrayBuffer Buf(A, Override ? *Override : *Bounds, NextBase);
    NextBase += (Buf.sizeBytes() + 63) / 64 * 64;
    NextBase += ((Placed * 7 + 3) % 61) * 64;
    ++Placed;
    if (A->isLiveIn())
      Buf.fillRandom(Seed ^ hashName(A->getName()));
    else
      Buf.fillZero();
    S.TotalBytes += Buf.sizeBytes();
    S.Buffers.emplace(A->getId(), std::move(Buf));
  }
  // Scalars named by the program (parameters) get deterministic values in
  // [0.5, 1.5) so divisions stay well conditioned.
  for (const Symbol *Sym : P.symbols()) {
    if (const auto *Sc = dyn_cast<ScalarSymbol>(Sym)) {
      SplitMix64 Rng(Seed ^ hashName(Sc->getName()));
      S.Scalars[Sc->getId()] = 0.5 + Rng.nextDouble();
    }
  }
  return S;
}
