//===- presburger/IntegerMap.cpp - Integer relations -------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "presburger/IntegerMap.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace qlosure;
using namespace qlosure::presburger;

BasicMap::BasicMap(unsigned NumIn, unsigned NumOut, BasicSet SetIn)
    : NumIn(NumIn), NumOut(NumOut), Set(std::move(SetIn)) {
  assert(Set.numDims() == NumIn + NumOut && "wrapped set arity mismatch");
}

BasicMap BasicMap::identity(const BasicSet &Domain) {
  unsigned N = Domain.numDims();
  BasicSet Set = Domain.appendDims(N);
  unsigned Total = Set.numTotalVars();
  for (unsigned V = 0; V < N; ++V)
    Set.addConstraint(makeEqExpr(AffineExpr::variable(Total, N + V),
                                 AffineExpr::variable(Total, V)));
  return BasicMap(N, N, std::move(Set));
}

BasicMap BasicMap::translation(const BasicSet &Domain,
                               const std::vector<int64_t> &Delta) {
  unsigned N = Domain.numDims();
  assert(Delta.size() == N && "delta arity mismatch");
  BasicSet Set = Domain.appendDims(N);
  unsigned Total = Set.numTotalVars();
  for (unsigned V = 0; V < N; ++V) {
    AffineExpr Rhs = AffineExpr::variable(Total, V) +
                     AffineExpr::constant(Total, Delta[V]);
    Set.addConstraint(
        makeEqExpr(AffineExpr::variable(Total, N + V), std::move(Rhs)));
  }
  return BasicMap(N, N, std::move(Set));
}

BasicMap BasicMap::singlePair(const Point &In, const Point &Out) {
  unsigned NumIn = static_cast<unsigned>(In.size());
  unsigned NumOut = static_cast<unsigned>(Out.size());
  BasicSet Set(NumIn + NumOut);
  unsigned Total = Set.numTotalVars();
  for (unsigned V = 0; V < NumIn; ++V)
    Set.addConstraint(makeEqExpr(AffineExpr::variable(Total, V),
                                 AffineExpr::constant(Total, In[V])));
  for (unsigned V = 0; V < NumOut; ++V)
    Set.addConstraint(makeEqExpr(AffineExpr::variable(Total, NumIn + V),
                                 AffineExpr::constant(Total, Out[V])));
  return BasicMap(NumIn, NumOut, std::move(Set));
}

bool BasicMap::contains(const Point &In, const Point &Out) const {
  assert(In.size() == NumIn && Out.size() == NumOut && "arity mismatch");
  Point Joint;
  Joint.reserve(NumIn + NumOut);
  Joint.insert(Joint.end(), In.begin(), In.end());
  Joint.insert(Joint.end(), Out.begin(), Out.end());
  return Set.contains(Joint);
}

BasicSet BasicMap::domain() const { return Set.projectOutTrailing(NumOut); }

BasicSet BasicMap::range() const {
  // Rotate outputs to the front, then project out the (now trailing) inputs.
  std::vector<unsigned> Perm(NumIn + NumOut);
  for (unsigned V = 0; V < NumOut; ++V)
    Perm[V] = NumIn + V;
  for (unsigned V = 0; V < NumIn; ++V)
    Perm[NumOut + V] = V;
  return Set.permuteDims(Perm).projectOutTrailing(NumIn);
}

BasicMap BasicMap::reverse() const {
  std::vector<unsigned> Perm(NumIn + NumOut);
  for (unsigned V = 0; V < NumOut; ++V)
    Perm[V] = NumIn + V;
  for (unsigned V = 0; V < NumIn; ++V)
    Perm[NumOut + V] = V;
  return BasicMap(NumOut, NumIn, Set.permuteDims(Perm));
}

BasicMap BasicMap::composeWith(const BasicMap &Next) const {
  assert(NumOut == Next.NumIn && "composition arity mismatch");
  unsigned Mid = NumOut;
  unsigned NewIn = NumIn;
  unsigned NewOut = Next.NumOut;
  unsigned NumExists = Mid + Set.numExists() + Next.set().numExists();
  BasicSet Joint(NewIn + NewOut, NumExists);
  unsigned Total = Joint.numTotalVars();

  // Variable layout of the result:
  //   [ in(NewIn) | out(NewOut) | mid(Mid) | exA | exB ]
  unsigned MidBase = NewIn + NewOut;
  unsigned ExABase = MidBase + Mid;
  unsigned ExBBase = ExABase + Set.numExists();

  // Remap this's constraints: in -> in, out -> mid, exists -> exA.
  {
    std::vector<unsigned> Map(Set.numTotalVars());
    for (unsigned V = 0; V < NumIn; ++V)
      Map[V] = V;
    for (unsigned V = 0; V < NumOut; ++V)
      Map[NumIn + V] = MidBase + V;
    for (unsigned X = 0; X < Set.numExists(); ++X)
      Map[NumIn + NumOut + X] = ExABase + X;
    for (const Constraint &C : Set.constraints())
      Joint.addConstraint(Constraint(C.Expr.remapVars(Map, Total), C.Kind));
  }
  // Remap Next's constraints: in -> mid, out -> out, exists -> exB.
  {
    const BasicSet &NextSet = Next.set();
    std::vector<unsigned> Map(NextSet.numTotalVars());
    for (unsigned V = 0; V < Next.NumIn; ++V)
      Map[V] = MidBase + V;
    for (unsigned V = 0; V < Next.NumOut; ++V)
      Map[Next.NumIn + V] = NewIn + V;
    for (unsigned X = 0; X < NextSet.numExists(); ++X)
      Map[Next.NumIn + Next.NumOut + X] = ExBBase + X;
    for (const Constraint &C : NextSet.constraints())
      Joint.addConstraint(Constraint(C.Expr.remapVars(Map, Total), C.Kind));
  }
  return BasicMap(NewIn, NewOut, std::move(Joint));
}

std::optional<std::vector<int64_t>> BasicMap::asTranslation() const {
  if (NumIn != NumOut)
    return std::nullopt;
  std::vector<int64_t> Delta(NumIn, 0);
  std::vector<bool> Found(NumIn, false);
  unsigned Total = Set.numTotalVars();
  for (const Constraint &C : Set.constraints()) {
    // Classify: does the constraint mention outputs or existentials?
    bool MentionsOut = false;
    bool MentionsExists = false;
    for (unsigned V = NumIn; V < NumIn + NumOut; ++V)
      if (C.Expr.coefficient(V) != 0)
        MentionsOut = true;
    for (unsigned X = NumIn + NumOut; X < Total; ++X)
      if (C.Expr.coefficient(X) != 0)
        MentionsExists = true;
    if (!MentionsOut && !MentionsExists)
      continue; // Pure domain constraint: fine.
    if (MentionsExists)
      return std::nullopt;
    // Must be out_j - in_j - d == 0 for some j.
    if (C.Kind != ConstraintKind::Equality)
      return std::nullopt;
    int OutVar = -1;
    for (unsigned V = NumIn; V < NumIn + NumOut; ++V) {
      if (C.Expr.coefficient(V) == 0)
        continue;
      if (OutVar != -1)
        return std::nullopt; // Mixes several outputs.
      OutVar = static_cast<int>(V);
    }
    unsigned J = static_cast<unsigned>(OutVar) - NumIn;
    int64_t CoefOut = C.Expr.coefficient(static_cast<unsigned>(OutVar));
    int64_t CoefIn = C.Expr.coefficient(J);
    if (CoefOut + CoefIn != 0 || (CoefOut != 1 && CoefOut != -1))
      return std::nullopt;
    for (unsigned V = 0; V < NumIn; ++V)
      if (V != J && C.Expr.coefficient(V) != 0)
        return std::nullopt;
    if (Found[J])
      return std::nullopt; // Conflicting definitions.
    Found[J] = true;
    // CoefOut*(out - in) + K == 0  =>  out = in - K/CoefOut.
    Delta[J] = -C.Expr.constantTerm() / CoefOut;
    if (-C.Expr.constantTerm() % CoefOut != 0)
      return std::nullopt;
  }
  for (bool F : Found)
    if (!F)
      return std::nullopt;
  return Delta;
}

//===----------------------------------------------------------------------===//
// IntegerMap
//===----------------------------------------------------------------------===//

IntegerMap::IntegerMap(BasicMap Piece)
    : NumIn(Piece.numIn()), NumOut(Piece.numOut()) {
  Pieces.push_back(std::move(Piece));
}

void IntegerMap::addPiece(BasicMap Piece) {
  assert(Piece.numIn() == NumIn && Piece.numOut() == NumOut &&
         "arity mismatch");
  Pieces.push_back(std::move(Piece));
}

bool IntegerMap::contains(const Point &In, const Point &Out) const {
  for (const BasicMap &Piece : Pieces)
    if (Piece.contains(In, Out))
      return true;
  return false;
}

std::optional<std::vector<Point>>
IntegerMap::imageOfPoint(const Point &In, size_t MaxPoints) const {
  assert(In.size() == NumIn && "arity mismatch");
  std::set<Point> Seen;
  for (const BasicMap &Piece : Pieces) {
    // Fix the input coordinates, leaving a set over the outputs.
    BasicSet OutSet = Piece.set();
    for (unsigned V = 0; V < NumIn; ++V)
      OutSet = OutSet.fixAndRemoveDim(0, In[V]);
    auto Points = OutSet.enumeratePoints(MaxPoints);
    if (!Points)
      return std::nullopt;
    for (Point &P : *Points)
      Seen.insert(std::move(P));
    if (Seen.size() > MaxPoints)
      return std::nullopt;
  }
  return std::vector<Point>(Seen.begin(), Seen.end());
}

IntegerMap IntegerMap::unionWith(const IntegerMap &Other) const {
  assert(NumIn == Other.NumIn && NumOut == Other.NumOut && "arity mismatch");
  IntegerMap Result = *this;
  for (const BasicMap &Piece : Other.Pieces)
    Result.Pieces.push_back(Piece);
  return Result;
}

IntegerMap IntegerMap::composeWith(const IntegerMap &Next) const {
  assert(NumOut == Next.NumIn && "composition arity mismatch");
  IntegerMap Result(NumIn, Next.NumOut);
  for (const BasicMap &A : Pieces)
    for (const BasicMap &B : Next.Pieces) {
      BasicMap Piece = A.composeWith(B);
      if (!Piece.set().isTriviallyEmpty())
        Result.Pieces.push_back(std::move(Piece));
    }
  return Result;
}

IntegerMap IntegerMap::reverse() const {
  IntegerMap Result(NumOut, NumIn);
  for (const BasicMap &Piece : Pieces)
    Result.Pieces.push_back(Piece.reverse());
  return Result;
}

IntegerSet IntegerMap::domain() const {
  IntegerSet Result(NumIn);
  for (const BasicMap &Piece : Pieces)
    Result.addPiece(Piece.domain());
  return Result;
}

IntegerSet IntegerMap::range() const {
  IntegerSet Result(NumOut);
  for (const BasicMap &Piece : Pieces)
    Result.addPiece(Piece.range());
  return Result;
}

std::optional<std::vector<std::pair<Point, Point>>>
IntegerMap::enumeratePairs(size_t MaxPairs) const {
  std::set<std::pair<Point, Point>> Seen;
  for (const BasicMap &Piece : Pieces) {
    auto Joint = Piece.set().enumeratePoints(MaxPairs);
    if (!Joint)
      return std::nullopt;
    for (const Point &P : *Joint) {
      Point In(P.begin(), P.begin() + NumIn);
      Point Out(P.begin() + NumIn, P.end());
      Seen.insert({std::move(In), std::move(Out)});
      if (Seen.size() > MaxPairs)
        return std::nullopt;
    }
  }
  return std::vector<std::pair<Point, Point>>(Seen.begin(), Seen.end());
}

std::optional<int64_t> IntegerMap::cardinality(size_t MaxPairs) const {
  auto Pairs = enumeratePairs(MaxPairs);
  if (!Pairs)
    return std::nullopt;
  return static_cast<int64_t>(Pairs->size());
}
