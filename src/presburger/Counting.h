//===- presburger/Counting.h - Point counting (Barvinok-lite) ----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Point-counting utilities standing in for the Barvinok library. The paper
/// uses Barvinok to evaluate the dependence weight
///   omega(g) = card({ h : (g, h) in R+ })
/// once per gate. On the affine class produced by the lifter (1-D iteration
/// domains, strided-translation dependences) the counts are piecewise
/// quasi-affine functions of the iteration index; this header provides that
/// closed form plus exact enumeration-based counting for everything else.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PRESBURGER_COUNTING_H
#define QLOSURE_PRESBURGER_COUNTING_H

#include "presburger/IntegerMap.h"

#include <optional>
#include <vector>

namespace qlosure {
namespace presburger {

/// A piecewise quasi-affine function of one integer variable: each piece is
///   f(i) = floorDiv(C0 + C1 * i, Div)   for i in [Lo, Hi],
/// and f(i) = 0 outside all pieces. Pieces must not overlap.
class PiecewiseQuasiAffine {
public:
  struct Piece {
    int64_t Lo;
    int64_t Hi;
    int64_t C0;
    int64_t C1;
    int64_t Div; ///< Strictly positive divisor.
  };

  PiecewiseQuasiAffine() = default;

  /// Appends a piece; asserts it does not overlap existing pieces.
  void addPiece(Piece P);

  /// Evaluates the function at \p I (0 outside all pieces).
  int64_t evaluate(int64_t I) const;

  /// Sum of f(i) over [Lo, Hi].
  int64_t sumOver(int64_t Lo, int64_t Hi) const;

  const std::vector<Piece> &pieces() const { return Pieces; }

private:
  std::vector<Piece> Pieces;
};

/// Number of points in \p Set (exact, enumeration-based). std::nullopt when
/// the set is unbounded or exceeds \p Budget points.
std::optional<int64_t>
countPoints(const IntegerSet &Set,
            size_t Budget = BasicSet::DefaultEnumerationBudget);

/// Size of the image of \p In under \p Map (exact). std::nullopt when
/// unbounded / over budget.
std::optional<int64_t>
countImage(const IntegerMap &Map, const Point &In,
           size_t Budget = BasicSet::DefaultEnumerationBudget);

/// Closed-form image count for the closure of a 1-D translation map with
/// stride \p Stride over the domain [Lo, Hi]:
///   count(i) = |{ l >= 1 : Lo <= i + l*Stride <= Hi }|
/// as a piecewise quasi-affine function of i. \p Stride must be nonzero.
PiecewiseQuasiAffine closureImageCount1D(int64_t Lo, int64_t Hi,
                                         int64_t Stride);

} // namespace presburger
} // namespace qlosure

#endif // QLOSURE_PRESBURGER_COUNTING_H
