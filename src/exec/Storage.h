//===- exec/Storage.h - Array storage and address mapping ------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage for the arrays of a program during interpretation and
/// performance simulation. Every allocated (non-contracted) array gets a
/// flat row-major buffer covering its footprint bounds (statement regions
/// expanded by reference offsets) plus a base address in a synthetic
/// address space, so the cache simulator sees realistic conflict and
/// capacity behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_EXEC_STORAGE_H
#define ALF_EXEC_STORAGE_H

#include "analysis/Footprint.h"
#include "ir/Program.h"
#include "support/Random.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

namespace alf {
namespace exec {

/// Row-major storage for one array.
class ArrayBuffer {
  const ir::ArraySymbol *Sym = nullptr;
  ir::Region Bounds;
  std::vector<int64_t> Strides; // row-major element strides
  std::vector<double> Data;
  uint64_t BaseAddr = 0;

public:
  ArrayBuffer() = default;
  ArrayBuffer(const ir::ArraySymbol *Sym, const ir::Region &Bounds,
              uint64_t BaseAddr);

  const ir::ArraySymbol *symbol() const { return Sym; }
  const ir::Region &bounds() const { return Bounds; }
  const std::vector<int64_t> &strides() const { return Strides; }
  uint64_t baseAddr() const { return BaseAddr; }
  uint64_t sizeBytes() const { return Data.size() * Sym->getElemSize(); }

  /// Linear element index of the point \p Idx (absolute coordinates).
  int64_t linearIndex(const std::vector<int64_t> &Idx) const;

  /// Synthetic byte address of the element at \p Idx.
  uint64_t addrOf(const std::vector<int64_t> &Idx) const {
    return BaseAddr +
           static_cast<uint64_t>(linearIndex(Idx)) * Sym->getElemSize();
  }

  double load(const std::vector<int64_t> &Idx) const {
    return Data[linearIndex(Idx)];
  }
  void store(const std::vector<int64_t> &Idx, double V) {
    Data[linearIndex(Idx)] = V;
  }

  const std::vector<double> &raw() const { return Data; }

  /// Mutable base pointer of the row-major payload. The native JIT backend
  /// hands this to the compiled kernel, which reads and writes the buffer
  /// in place (the layout the C emitter computes from footprint bounds is
  /// identical to this buffer's).
  double *data() { return Data.data(); }

  /// Fills the buffer with deterministic pseudo-random values in
  /// [-1, 1), seeded by \p Seed (callers mix in the array name so every
  /// strategy sees identical inputs).
  void fillRandom(uint64_t Seed);

  /// Zero-fills the buffer.
  void fillZero();
};

/// All array buffers of one program plus the scalar environment.
class Storage {
  std::map<unsigned, ArrayBuffer> Buffers;       // by symbol id
  std::map<unsigned, double> Scalars;            // by symbol id
  uint64_t TotalBytes = 0;

public:
  /// Allocates every array accepted by \p Allocate (contracted arrays are
  /// excluded by the callers) with footprint bounds, and initializes:
  /// live-in arrays and scalars from \p Seed, everything else zero.
  /// \p BoundsOverride, when provided, replaces an array's allocation
  /// bounds (partially contracted arrays use rolling-buffer bounds).
  static Storage
  allocate(const ir::Program &P, const analysis::FootprintInfo &FI,
           uint64_t Seed,
           const std::function<bool(const ir::ArraySymbol *)> &Allocate,
           const std::function<std::optional<ir::Region>(
               const ir::ArraySymbol *)> &BoundsOverride = nullptr);

  ArrayBuffer *buffer(const ir::ArraySymbol *A) {
    auto It = Buffers.find(A->getId());
    return It == Buffers.end() ? nullptr : &It->second;
  }
  const ArrayBuffer *buffer(const ir::ArraySymbol *A) const {
    auto It = Buffers.find(A->getId());
    return It == Buffers.end() ? nullptr : &It->second;
  }

  double getScalar(const ir::ScalarSymbol *S) const {
    auto It = Scalars.find(S->getId());
    return It == Scalars.end() ? 0.0 : It->second;
  }
  void setScalar(const ir::ScalarSymbol *S, double V) {
    Scalars[S->getId()] = V;
  }

  /// Sets a scalar by raw symbol id (the parallel executor merges
  /// thread-private overlay entries back by id).
  void setScalarById(unsigned Id, double V) { Scalars[Id] = V; }

  /// Total bytes of array storage allocated.
  uint64_t totalBytes() const { return TotalBytes; }
};

/// Deterministic 64-bit hash of a string (FNV-1a); used to derive
/// per-array initialization seeds that are stable across strategies.
/// Passing the hash of a prefix as \p H continues it, so hashing pieces
/// in turn equals hashing their concatenation, without building it.
uint64_t hashName(std::string_view Name,
                  uint64_t H = 0xcbf29ce484222325ULL);

} // namespace exec
} // namespace alf

#endif // ALF_EXEC_STORAGE_H
