//===- xform/PartialContraction.h - Lower-dimensional contraction -*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's future-work extension: contraction of arrays to
/// *lower-dimensional* buffers. Section 5.2 observes that "SP contains a
/// great many opportunities to contract arrays to lower dimensional
/// arrays. Though the resulting arrays cannot be manipulated in
/// registers, they conserve memory and make better use of the cache",
/// and Definition 6's discussion notes that the null-distance condition
/// "may be relaxed when the dependence is along a dimension of the array
/// that is not distributed".
///
/// This module implements that relaxation. The sequential
/// (non-distributed) dimensions are a `SequentialDims` (FusionPartition.h),
/// and the relaxation is nothing but that argument to the one predicate
/// pair and the one Figure 3 loop:
///
///  * fusion legality, `isLegalFusion(P, C, Seq)`: intra-cluster flow
///    dependences may carry nonzero distance along sequential dimensions
///    (the loops over those dimensions run sequentially on each
///    processor, so such dependences do not inhibit parallelism);
///  * contractibility, `isContractible(P, C, Var, Seq)`: an array whose
///    dependences all have zero distance along every distributed
///    dimension contracts to a rolling buffer;
///  * `fuseForPartialContraction` runs `fuseGreedily` with both.
///
/// `planPartialContraction` then shapes each buffer: dimensions iterated
/// by loops outside the outermost dependence-carrying loop shrink to
/// extent 1, the carrying dimension shrinks to (max distance + 1) planes
/// addressed modulo, and inner dimensions keep their full extent.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_XFORM_PARTIALCONTRACTION_H
#define ALF_XFORM_PARTIALCONTRACTION_H

#include "xform/FusionPartition.h"

#include <cstdint>
#include <vector>

namespace alf {
namespace xform {

/// The rolling-buffer shape chosen for one partially contracted array.
struct PartialPlan {
  const ir::ArraySymbol *Array = nullptr;
  std::vector<int64_t> OrigLo;        ///< footprint lower bound per dim
  std::vector<int64_t> FullExtents;   ///< footprint extents per dim
  std::vector<int64_t> BufferExtents; ///< chosen buffer extents per dim

  /// True when dimension \p D was reduced (indexed modulo BufferExtents).
  bool isReduced(unsigned D) const {
    return BufferExtents[D] < FullExtents[D];
  }

  /// Maps an absolute coordinate into the buffer along dimension \p D.
  int64_t wrap(unsigned D, int64_t Coord) const {
    if (!isReduced(D))
      return Coord;
    int64_t E = BufferExtents[D];
    int64_t Rel = (Coord - OrigLo[D]) % E;
    return Rel < 0 ? Rel + E : Rel;
  }

  uint64_t origBytes() const;
  uint64_t bufferBytes() const;

  /// The allocation bounds of the rolling buffer: [0..E-1] along reduced
  /// dimensions, the original footprint bounds elsewhere.
  ir::Region bufferRegion() const;
};

/// Greedy fusion pass (the Figure 3 loop with CONTRACTIBLE? and
/// FUSION-PARTITION? relaxed along \p Seq) that merges clusters to enable
/// partial contraction of arrays that are not already contractible.
/// Returns the number of merges.
unsigned fuseForPartialContraction(FusionPartition &P,
                                   const SequentialDims &Seq);

/// Computes rolling-buffer plans for every array that is partially (but
/// not fully) contractible in the final partition \p P. \p Exclude lists
/// arrays already chosen for full contraction.
std::vector<PartialPlan>
planPartialContraction(const FusionPartition &P, const SequentialDims &Seq,
                       const std::vector<const ir::ArraySymbol *> &Exclude);

} // namespace xform
} // namespace alf

#endif // ALF_XFORM_PARTIALCONTRACTION_H
