//===- presburger/IntegerMap.h - Integer relations ----------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer relations (mirroring isl_map): finite unions of BasicMaps, where
/// a BasicMap is a BasicSet over the concatenated [in, out] space. Supports
/// the operations the dependence analysis needs: apply, compose, reverse,
/// domain/range, union, and point images.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PRESBURGER_INTEGERMAP_H
#define QLOSURE_PRESBURGER_INTEGERMAP_H

#include "presburger/IntegerSet.h"

#include <optional>
#include <utility>
#include <vector>

namespace qlosure {
namespace presburger {

/// A conjunctive relation { [in] -> [out] : constraints }.
class BasicMap {
public:
  BasicMap() = default;

  /// Wraps \p Set (over NumIn + NumOut visible dims) as a relation.
  BasicMap(unsigned NumIn, unsigned NumOut, BasicSet Set);

  /// The identity relation restricted to \p Domain.
  static BasicMap identity(const BasicSet &Domain);

  /// A translation map { x -> x + Delta : x in Domain }.
  static BasicMap translation(const BasicSet &Domain,
                              const std::vector<int64_t> &Delta);

  /// A single-pair relation { In -> Out }.
  static BasicMap singlePair(const Point &In, const Point &Out);

  unsigned numIn() const { return NumIn; }
  unsigned numOut() const { return NumOut; }
  const BasicSet &set() const { return Set; }
  BasicSet &set() { return Set; }

  /// True if (In, Out) is in the relation.
  bool contains(const Point &In, const Point &Out) const;

  /// The domain { in : exists out . (in, out) in R }.
  BasicSet domain() const;

  /// The range { out : exists in . (in, out) in R }.
  BasicSet range() const;

  /// Swaps input and output roles.
  BasicMap reverse() const;

  /// Relation composition: returns { in -> out : exists mid . (in, mid) in
  /// this and (mid, out) in Next }. Mid variables become existentials.
  BasicMap composeWith(const BasicMap &Next) const;

  /// If this relation is a pure translation { x -> x + d : P(x) } (i.e. it
  /// has equalities out_j == in_j + d_j and all remaining constraints only
  /// mention inputs), returns the delta vector.
  std::optional<std::vector<int64_t>> asTranslation() const;

private:
  unsigned NumIn = 0;
  unsigned NumOut = 0;
  BasicSet Set; // Visible space: [in0..in_{NumIn-1}, out0..out_{NumOut-1}].
};

/// A finite union of BasicMaps, i.e. an arbitrary Presburger relation.
class IntegerMap {
public:
  IntegerMap() = default;

  /// Empty relation with the given arities.
  IntegerMap(unsigned NumIn, unsigned NumOut) : NumIn(NumIn), NumOut(NumOut) {}

  explicit IntegerMap(BasicMap Piece);

  unsigned numIn() const { return NumIn; }
  unsigned numOut() const { return NumOut; }
  const std::vector<BasicMap> &pieces() const { return Pieces; }
  bool isEmptyUnion() const { return Pieces.empty(); }

  void addPiece(BasicMap Piece);

  bool contains(const Point &In, const Point &Out) const;

  /// All images of \p In. std::nullopt if the image is unbounded.
  std::optional<std::vector<Point>>
  imageOfPoint(const Point &In,
               size_t MaxPoints = BasicSet::DefaultEnumerationBudget) const;

  /// Union (arities must match).
  IntegerMap unionWith(const IntegerMap &Other) const;

  /// Composition: apply this first, then \p Next.
  IntegerMap composeWith(const IntegerMap &Next) const;

  IntegerMap reverse() const;

  IntegerSet domain() const;
  IntegerSet range() const;

  /// Enumerates the relation as explicit pairs. std::nullopt when unbounded
  /// or over budget.
  std::optional<std::vector<std::pair<Point, Point>>>
  enumeratePairs(size_t MaxPairs = BasicSet::DefaultEnumerationBudget) const;

  /// Exact number of distinct pairs, when enumerable.
  std::optional<int64_t>
  cardinality(size_t MaxPairs = BasicSet::DefaultEnumerationBudget) const;

private:
  unsigned NumIn = 0;
  unsigned NumOut = 0;
  std::vector<BasicMap> Pieces;
};

} // namespace presburger
} // namespace qlosure

#endif // QLOSURE_PRESBURGER_INTEGERMAP_H
