//===- xform/LoopStructure.cpp - Loop structure vectors --------------------===//

#include "xform/LoopStructure.h"

#include "support/StringUtil.h"

#include <cassert>

using namespace alf;
using namespace alf::ir;
using namespace alf::xform;

LoopStructureVector LoopStructureVector::identity(unsigned Rank) {
  std::vector<int> Elems(Rank);
  for (unsigned I = 0; I < Rank; ++I)
    Elems[I] = static_cast<int>(I + 1);
  return LoopStructureVector(std::move(Elems));
}

std::string LoopStructureVector::str() const {
  std::vector<std::string> Parts;
  Parts.reserve(Elems.size());
  for (int E : Elems)
    Parts.push_back(formatString("%d", E));
  // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict on
  // `"(" + std::string`, which -Werror would turn into a build failure.
  std::string Out = "(";
  Out += join(Parts, ",");
  Out += ")";
  return Out;
}

Offset xform::constrain(const Offset &U, const LoopStructureVector &P) {
  assert(U.rank() == P.rank() && "rank mismatch constraining UDV");
  Offset D = Offset::zero(U.rank());
  for (unsigned Loop = 0; Loop < P.rank(); ++Loop)
    D[Loop] = P.dirOf(Loop) * U[P.dimOf(Loop)];
  return D;
}

bool xform::isLexicographicallyNonnegative(const Offset &D) {
  for (unsigned I = 0; I < D.rank(); ++I) {
    if (D[I] > 0)
      return true;
    if (D[I] < 0)
      return false;
  }
  return true; // null vector
}

std::optional<LoopStructureVector>
xform::findLoopStructure(const std::vector<Offset> &UDVs, unsigned Rank) {
  // Working copy: dependences already carried by an assigned outer loop
  // are pruned (paper Figure 4 line 10).
  std::vector<Offset> C = UDVs;
  for ([[maybe_unused]] const Offset &U : C)
    assert(U.rank() == Rank && "UDV rank must match cluster rank");

  std::vector<bool> Assigned(Rank, false);
  std::vector<int> P(Rank, 0);

  for (unsigned Loop = 0; Loop < Rank; ++Loop) { // outermost first
    bool Found = false;
    // Consider dimensions low to high so inner loops are matched with
    // higher dimensions (spatial locality, Figure 4 discussion).
    for (unsigned Dim = 0; Dim < Rank && !Found; ++Dim) {
      if (Assigned[Dim])
        continue;
      bool AllNonneg = true, AllNonpos = true, AnyNeg = false;
      for (const Offset &U : C) {
        if (U[Dim] < 0) {
          AllNonneg = false;
          AnyNeg = true;
        }
        if (U[Dim] > 0)
          AllNonpos = false;
      }
      int Dir = 0;
      if (AllNonneg)
        Dir = 1;
      else if (AllNonpos && AnyNeg)
        Dir = -1;
      if (Dir == 0)
        continue; // this dimension cannot be carried by loop `Loop`
      Assigned[Dim] = true;
      P[Loop] = Dir * static_cast<int>(Dim + 1);
      // Dependences carried by this loop no longer constrain inner loops.
      std::vector<Offset> Pruned;
      Pruned.reserve(C.size());
      for (Offset &U : C)
        if (U[Dim] == 0)
          Pruned.push_back(std::move(U));
      C = std::move(Pruned);
      Found = true;
    }
    if (!Found)
      return std::nullopt; // no dimension found for this loop
  }
  return LoopStructureVector(std::move(P));
}
