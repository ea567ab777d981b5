//===- presburger/IntegerSet.cpp - Unions of basic sets ---------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "presburger/IntegerSet.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace qlosure;
using namespace qlosure::presburger;

IntegerSet::IntegerSet(BasicSet Piece) : NumDims(Piece.numDims()) {
  Pieces.push_back(std::move(Piece));
}

IntegerSet
IntegerSet::box(const std::vector<std::pair<int64_t, int64_t>> &Bounds) {
  unsigned NumDims = static_cast<unsigned>(Bounds.size());
  BasicSet Piece(NumDims);
  for (unsigned V = 0; V < NumDims; ++V)
    Piece.addBounds(V, Bounds[V].first, Bounds[V].second);
  return IntegerSet(std::move(Piece));
}

void IntegerSet::addPiece(BasicSet Piece) {
  assert(Piece.numDims() == NumDims && "visible space mismatch");
  Pieces.push_back(std::move(Piece));
}

bool IntegerSet::contains(const Point &P) const {
  for (const BasicSet &Piece : Pieces)
    if (Piece.contains(P))
      return true;
  return false;
}

IntegerSet IntegerSet::unionWith(const IntegerSet &Other) const {
  assert(NumDims == Other.NumDims && "visible space mismatch");
  IntegerSet Result = *this;
  for (const BasicSet &Piece : Other.Pieces)
    Result.Pieces.push_back(Piece);
  return Result;
}

IntegerSet IntegerSet::intersect(const IntegerSet &Other) const {
  assert(NumDims == Other.NumDims && "visible space mismatch");
  IntegerSet Result(NumDims);
  for (const BasicSet &A : Pieces)
    for (const BasicSet &B : Other.Pieces) {
      BasicSet Piece = A.intersect(B);
      if (!Piece.isTriviallyEmpty())
        Result.Pieces.push_back(std::move(Piece));
    }
  return Result;
}

bool IntegerSet::isEmpty() const {
  for (const BasicSet &Piece : Pieces)
    if (!Piece.isEmpty())
      return false;
  return true;
}

std::optional<std::vector<Point>>
IntegerSet::enumeratePoints(size_t MaxPoints) const {
  std::set<Point> Seen;
  for (const BasicSet &Piece : Pieces) {
    auto Points = Piece.enumeratePoints(MaxPoints);
    if (!Points)
      return std::nullopt;
    for (Point &P : *Points) {
      Seen.insert(std::move(P));
      if (Seen.size() > MaxPoints)
        return std::nullopt;
    }
  }
  return std::vector<Point>(Seen.begin(), Seen.end());
}

std::optional<int64_t> IntegerSet::cardinality(size_t MaxPoints) const {
  auto Points = enumeratePoints(MaxPoints);
  if (!Points)
    return std::nullopt;
  return static_cast<int64_t>(Points->size());
}

void IntegerSet::simplify() {
  std::vector<BasicSet> Kept;
  for (BasicSet &Piece : Pieces) {
    if (Piece.simplify())
      Kept.push_back(std::move(Piece));
  }
  Pieces = std::move(Kept);
}

std::string IntegerSet::toString() const {
  if (Pieces.empty())
    return "{ }";
  std::string Out;
  for (size_t I = 0; I < Pieces.size(); ++I) {
    if (I)
      Out += " u ";
    Out += Pieces[I].toString();
  }
  return Out;
}
