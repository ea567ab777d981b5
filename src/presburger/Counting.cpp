//===- presburger/Counting.cpp - Point counting (Barvinok-lite) --------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "presburger/Counting.h"

#include <algorithm>
#include <cassert>

using namespace qlosure;
using namespace qlosure::presburger;

static int64_t floorDiv(int64_t Num, int64_t Den) {
  assert(Den != 0 && "division by zero");
  int64_t Q = Num / Den;
  if ((Num % Den != 0) && ((Num < 0) != (Den < 0)))
    --Q;
  return Q;
}

void PiecewiseQuasiAffine::addPiece(Piece P) {
  assert(P.Div > 0 && "divisor must be positive");
  assert(P.Lo <= P.Hi && "empty piece interval");
#ifndef NDEBUG
  for (const Piece &Existing : Pieces)
    assert((P.Hi < Existing.Lo || P.Lo > Existing.Hi) &&
           "overlapping pieces");
#endif
  Pieces.push_back(P);
}

int64_t PiecewiseQuasiAffine::evaluate(int64_t I) const {
  for (const Piece &P : Pieces)
    if (I >= P.Lo && I <= P.Hi)
      return floorDiv(P.C0 + P.C1 * I, P.Div);
  return 0;
}

int64_t PiecewiseQuasiAffine::sumOver(int64_t Lo, int64_t Hi) const {
  int64_t Sum = 0;
  for (const Piece &P : Pieces) {
    int64_t From = std::max(Lo, P.Lo);
    int64_t To = std::min(Hi, P.Hi);
    for (int64_t I = From; I <= To; ++I)
      Sum += floorDiv(P.C0 + P.C1 * I, P.Div);
  }
  return Sum;
}

std::optional<int64_t> presburger::countPoints(const IntegerSet &Set,
                                               size_t Budget) {
  return Set.cardinality(Budget);
}

std::optional<int64_t> presburger::countImage(const IntegerMap &Map,
                                              const Point &In, size_t Budget) {
  auto Image = Map.imageOfPoint(In, Budget);
  if (!Image)
    return std::nullopt;
  return static_cast<int64_t>(Image->size());
}

PiecewiseQuasiAffine presburger::closureImageCount1D(int64_t Lo, int64_t Hi,
                                                     int64_t Stride) {
  assert(Stride != 0 && "stride must be nonzero");
  PiecewiseQuasiAffine F;
  if (Lo > Hi)
    return F;
  if (Stride > 0) {
    // count(i) = floor((Hi - i) / Stride) for i in [Lo, Hi - Stride].
    if (Hi - Stride >= Lo)
      F.addPiece({Lo, Hi - Stride, Hi, -1, Stride});
    return F;
  }
  // Stride < 0: count(i) = floor((i - Lo) / -Stride) for i in [Lo - Stride,
  // Hi] (i.e. large enough that one step stays above Lo).
  int64_t Neg = -Stride;
  if (Lo + Neg <= Hi)
    F.addPiece({Lo + Neg, Hi, -Lo, 1, Neg});
  return F;
}
