//===- xform/Fusion.h - Statement fusion algorithms ------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's statement fusion algorithms (section 4.1):
///
///  * The Figure 3 greedy loop (fuseGreedily): for each array of a given
///    consideration order, merges every cluster referencing the array
///    (plus the GROW closure) when a pass-specific test accepts and the
///    merge forms a legal fusion partition. Every greedy pass below, the
///    partial contraction pass and the vendor models run this one loop.
///  * FUSION-FOR-CONTRACTION (Figure 3): the loop over arrays in
///    decreasing reference-weight order, accepting contractible arrays.
///  * Fusion for locality: "identical to that in Figure 3, except that the
///    CONTRACTIBLE? predicate in line 7 is eliminated".
///  * Greedy pairwise fusion ("all legal fusion", the paper's f4): keeps
///    merging legal cluster pairs until a fixed point.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_XFORM_FUSION_H
#define ALF_XFORM_FUSION_H

#include "xform/FusionPartition.h"

#include <functional>

namespace alf {
namespace xform {

/// Predicate selecting which arrays may drive fusion / be contracted. The
/// paper's f1/c1 strategies restrict candidates to compiler temporaries;
/// f2/c2 admit user arrays too.
using ArrayFilter = std::function<bool(const ir::ArraySymbol *)>;

/// Filter admitting every array.
ArrayFilter anyArray();

/// Filter admitting only compiler temporaries.
ArrayFilter compilerTempsOnly();

/// Figure 3 line 3's consideration order (decreasing reference weight)
/// restricted to the arrays \p Filter accepts.
std::vector<const ir::ArraySymbol *> weightOrder(const analysis::ASDG &G,
                                                 const ArrayFilter &Filter);

/// A pass-specific test of Figure 3 line 7 on the candidate merge of the
/// clusters \p C of \p P, made for array \p Var: CONTRACTIBLE? for fusion
/// for contraction, nothing for fusion for locality, a policy for the
/// vendor models. C always holds every cluster referencing Var, and a
/// test that rejects C must reject every superset of C too (CONTRACTIBLE?
/// does not depend on C then; the vendor policies only add restrictions
/// as C grows).
using MergeAccept =
    std::function<bool(const FusionPartition &P, const std::set<unsigned> &C,
                       const ir::ArraySymbol *Var)>;

/// CONTRACTIBLE?(Var, C) as a MergeAccept, with distances judged under
/// \p Seq.
MergeAccept contractibleUnder(SequentialDims Seq = SequentialDims::none());

/// The Figure 3 greedy loop (lines 4-10) over the arrays of \p Order, in
/// that order, refining the acyclic partition \p P. For each array, the
/// clusters referencing it (line 5) are closed under GROW (line 6); when
/// that yields at least two clusters, \p Accept holds and the merge
/// passes FUSION-PARTITION? with flow distances judged under \p Seq (line
/// 7), they merge into the smallest cluster id (lines 8-9). Line 7 is
/// tried on the ungrown set first, which rejects the same candidates
/// earlier. Returns the number of merges.
unsigned fuseGreedily(FusionPartition &P,
                      const std::vector<const ir::ArraySymbol *> &Order,
                      const MergeAccept &Accept,
                      const SequentialDims &Seq = SequentialDims::none());

/// FUSION-FOR-CONTRACTION (Figure 3), starting from (and refining) \p P.
/// Only arrays accepted by \p Candidates are considered (line 4's loop).
/// Returns the number of merges performed.
unsigned fuseForContraction(FusionPartition &P, const ArrayFilter &Candidates);

/// Fusion for locality: the Figure 3 loop without the CONTRACTIBLE? test.
/// "We try to fuse all statements that reference the array that will have
/// the greatest single locality benefit" (section 4.1). Returns the number
/// of merges performed.
unsigned fuseForLocality(FusionPartition &P);

/// Greedy pairwise legal fusion (the paper's f4): repeatedly merges any
/// pair of clusters whose union (with GROW closure) is a legal fusion
/// partition, until no pair can merge. Returns the number of merges.
unsigned fuseAllPairwise(FusionPartition &P);

/// Arrays contractible under the final partition \p P that are accepted by
/// \p Allowed ("Given a particular fusion partition we can decide for what
/// arrays contraction has been enabled", Definition 6).
std::vector<const ir::ArraySymbol *>
contractibleArrays(const FusionPartition &P, const ArrayFilter &Allowed);

/// The paper's contraction benefit: the sum of the reference weights of
/// all contracted arrays (section 3).
double contractionBenefit(const FusionPartition &P,
                          const std::vector<const ir::ArraySymbol *> &Vars);

} // namespace xform
} // namespace alf

#endif // ALF_XFORM_FUSION_H
