//===- presburger/IntegerSet.h - Unions of basic sets ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An IntegerSet is a finite union of BasicSets over a common visible space,
/// mirroring isl_set. Operations are exact on bounded sets.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PRESBURGER_INTEGERSET_H
#define QLOSURE_PRESBURGER_INTEGERSET_H

#include "presburger/BasicSet.h"

#include <optional>
#include <string>
#include <vector>

namespace qlosure {
namespace presburger {

/// A union of conjunctive pieces over Z^n.
class IntegerSet {
public:
  IntegerSet() = default;

  /// Creates the empty set over \p NumDims variables.
  explicit IntegerSet(unsigned NumDims) : NumDims(NumDims) {}

  /// Creates a set holding a single disjunct.
  explicit IntegerSet(BasicSet Piece);

  /// The box [Lo_0, Hi_0] x ... (inclusive bounds).
  static IntegerSet box(const std::vector<std::pair<int64_t, int64_t>> &Bounds);

  unsigned numDims() const { return NumDims; }
  const std::vector<BasicSet> &pieces() const { return Pieces; }
  bool hasPieces() const { return !Pieces.empty(); }

  /// Adds a disjunct (must share the visible space).
  void addPiece(BasicSet Piece);

  /// Exact membership test.
  bool contains(const Point &P) const;

  /// Union with \p Other (shared visible space).
  IntegerSet unionWith(const IntegerSet &Other) const;

  /// Intersection with \p Other (pairwise piece intersection).
  IntegerSet intersect(const IntegerSet &Other) const;

  /// True when no piece has an integer point (requires boundedness).
  bool isEmpty() const;

  /// Enumerates distinct points of the union. std::nullopt when unbounded
  /// or when the budget is exceeded.
  std::optional<std::vector<Point>>
  enumeratePoints(size_t MaxPoints = BasicSet::DefaultEnumerationBudget) const;

  /// Exact number of distinct points (duplicates across pieces collapse).
  /// std::nullopt when unbounded / over budget.
  std::optional<int64_t>
  cardinality(size_t MaxPoints = BasicSet::DefaultEnumerationBudget) const;

  /// Drops trivially empty pieces.
  void simplify();

  std::string toString() const;

private:
  unsigned NumDims = 0;
  std::vector<BasicSet> Pieces;
};

} // namespace presburger
} // namespace qlosure

#endif // QLOSURE_PRESBURGER_INTEGERSET_H
