//===- tests/PresburgerTest.cpp - presburger substrate tests --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "presburger/AffineExpr.h"
#include "presburger/BasicSet.h"
#include "presburger/IntegerMap.h"
#include "presburger/IntegerSet.h"

#include <gtest/gtest.h>

using namespace qlosure;
using namespace qlosure::presburger;

//===----------------------------------------------------------------------===//
// AffineExpr
//===----------------------------------------------------------------------===//

TEST(AffineExprTest, EvaluateLinear) {
  // 2*x0 - x1 + 3.
  AffineExpr E({2, -1}, 3);
  EXPECT_EQ(E.evaluate({5, 4}), 9);
  EXPECT_EQ(E.evaluate({0, 0}), 3);
}

TEST(AffineExprTest, ArithmeticOperators) {
  AffineExpr A({1, 0}, 1);
  AffineExpr B({0, 2}, -1);
  AffineExpr Sum = A + B;
  EXPECT_EQ(Sum.evaluate({3, 4}), 3 + 1 + 8 - 1);
  AffineExpr Diff = A - B;
  EXPECT_EQ(Diff.evaluate({3, 4}), (3 + 1) - (8 - 1));
  AffineExpr Scaled = A * 3;
  EXPECT_EQ(Scaled.evaluate({2, 0}), 9);
}

TEST(AffineExprTest, Substitute) {
  // x0 + 2*x1, substitute x1 := x0 + 1 -> 3*x0 + 2.
  AffineExpr E({1, 2}, 0);
  AffineExpr Repl({1, 0}, 1);
  AffineExpr Result = E.substitute(1, Repl);
  EXPECT_EQ(Result.evaluate({4, 999}), 14);
}

TEST(AffineExprTest, RemapVars) {
  AffineExpr E({3, 5}, 1);
  AffineExpr Remapped = E.remapVars({2, 0}, 3);
  EXPECT_EQ(Remapped.evaluate({5, 0, 3}), 3 * 3 + 5 * 5 + 1);
}

TEST(AffineExprTest, NormalizeGcd) {
  AffineExpr E({4, -6}, 8);
  EXPECT_EQ(E.normalizeGcd(), 2);
  EXPECT_EQ(E.coefficient(0), 2);
  EXPECT_EQ(E.coefficient(1), -3);
  EXPECT_EQ(E.constantTerm(), 4);
}

TEST(AffineExprTest, Predicates) {
  EXPECT_TRUE(AffineExpr::constant(2, 5).isConstant());
  EXPECT_TRUE(AffineExpr::variable(2, 1).isUnitVariable());
  EXPECT_FALSE(AffineExpr({2, 0}, 0).isUnitVariable());
  EXPECT_FALSE(AffineExpr({1, 1}, 0).isUnitVariable());
}

TEST(AffineExprTest, ToStringReadable) {
  AffineExpr E({2, -1}, 3);
  EXPECT_EQ(E.toString(), "2*x0 - x1 + 3");
  EXPECT_EQ(AffineExpr::constant(2, -7).toString(), "-7");
}

//===----------------------------------------------------------------------===//
// BasicSet
//===----------------------------------------------------------------------===//

TEST(BasicSetTest, BoxMembership) {
  BasicSet S(2);
  S.addBounds(0, 0, 3);
  S.addBounds(1, -1, 1);
  EXPECT_TRUE(S.contains({0, 0}));
  EXPECT_TRUE(S.contains({3, -1}));
  EXPECT_FALSE(S.contains({4, 0}));
  EXPECT_FALSE(S.contains({0, 2}));
}

TEST(BasicSetTest, EnumerateBox) {
  BasicSet S(2);
  S.addBounds(0, 0, 2);
  S.addBounds(1, 0, 1);
  auto Points = S.enumeratePoints();
  ASSERT_TRUE(Points.has_value());
  EXPECT_EQ(Points->size(), 6u);
}

TEST(BasicSetTest, EnumerateWithDiagonalConstraint) {
  // { (x, y) : 0 <= x, y <= 4, x + y <= 3 } has 10 points.
  BasicSet S(2);
  S.addBounds(0, 0, 4);
  S.addBounds(1, 0, 4);
  S.addConstraint(makeLe(AffineExpr({1, 1}, 0), AffineExpr::constant(2, 3)));
  auto Points = S.enumeratePoints();
  ASSERT_TRUE(Points.has_value());
  EXPECT_EQ(Points->size(), 10u);
}

TEST(BasicSetTest, UnboundedEnumerationFails) {
  BasicSet S(1);
  S.addConstraint(makeGe(AffineExpr::variable(1, 0),
                         AffineExpr::constant(1, 0)));
  EXPECT_FALSE(S.enumeratePoints().has_value());
}

TEST(BasicSetTest, BoundsForVar) {
  BasicSet S(2);
  S.addBounds(0, 2, 9);
  // x1 == x0 + 1 -> bounds of x1 are [3, 10].
  S.addConstraint(makeEqExpr(AffineExpr::variable(2, 1),
                             AffineExpr::variable(2, 0) +
                                 AffineExpr::constant(2, 1)));
  VarBounds B = S.boundsForVar(1);
  EXPECT_TRUE(B.HasLower);
  EXPECT_TRUE(B.HasUpper);
  EXPECT_EQ(B.Lower, 3);
  EXPECT_EQ(B.Upper, 10);
}

TEST(BasicSetTest, EmptyByParity) {
  // 2*x == 1 has no integer solutions.
  BasicSet S(1);
  S.addConstraint(makeEq(AffineExpr({2}, -1)));
  S.addBounds(0, -10, 10);
  EXPECT_TRUE(S.isEmpty());
}

TEST(BasicSetTest, SimplifyDetectsContradiction) {
  BasicSet S(1);
  S.addConstraint(makeGe(AffineExpr::constant(1, -1),
                         AffineExpr::constant(1, 0)));
  EXPECT_TRUE(S.isTriviallyEmpty());
}

TEST(BasicSetTest, SimplifyTightensGcd) {
  // 2*x >= 1 over integers means x >= 1.
  BasicSet S(1);
  S.addConstraint(makeGe(AffineExpr({2}, 0), AffineExpr::constant(1, 1)));
  S.addBounds(0, -5, 5);
  EXPECT_FALSE(S.contains({0}));
  EXPECT_TRUE(S.contains({1}));
  auto Points = S.enumeratePoints();
  ASSERT_TRUE(Points.has_value());
  EXPECT_EQ(Points->size(), 5u); // 1..5.
}

TEST(BasicSetTest, IntersectConjoins) {
  BasicSet A(1), B(1);
  A.addBounds(0, 0, 10);
  B.addBounds(0, 5, 20);
  BasicSet I = A.intersect(B);
  auto Points = I.enumeratePoints();
  ASSERT_TRUE(Points.has_value());
  EXPECT_EQ(Points->size(), 6u); // 5..10.
}

TEST(BasicSetTest, ProjectOutTrailing) {
  // { (x, y) : 0 <= x <= 2, y == x + 5 } projected on x is [0, 2].
  BasicSet S(2);
  S.addBounds(0, 0, 2);
  S.addConstraint(makeEqExpr(AffineExpr::variable(2, 1),
                             AffineExpr::variable(2, 0) +
                                 AffineExpr::constant(2, 5)));
  BasicSet P = S.projectOutTrailing(1);
  EXPECT_EQ(P.numDims(), 1u);
  EXPECT_TRUE(P.contains({0}));
  EXPECT_TRUE(P.contains({2}));
  EXPECT_FALSE(P.contains({3}));
}

TEST(BasicSetTest, ExistentialStride) {
  // { x : exists e . x == 3*e, 0 <= x <= 10 } = {0, 3, 6, 9}.
  BasicSet S(1, 1);
  S.addConstraint(makeEqExpr(AffineExpr::variable(2, 0),
                             AffineExpr::variable(2, 1) * 3));
  S.addConstraint(makeGe(AffineExpr::variable(2, 0),
                         AffineExpr::constant(2, 0)));
  S.addConstraint(makeLe(AffineExpr::variable(2, 0),
                         AffineExpr::constant(2, 10)));
  EXPECT_TRUE(S.contains({0}));
  EXPECT_TRUE(S.contains({9}));
  EXPECT_FALSE(S.contains({5}));
  auto Points = S.enumeratePoints();
  ASSERT_TRUE(Points.has_value());
  EXPECT_EQ(Points->size(), 4u);
}

TEST(BasicSetTest, FixAndRemoveDim) {
  BasicSet S(2);
  S.addBounds(0, 0, 5);
  S.addBounds(1, 0, 5);
  S.addConstraint(makeEqExpr(AffineExpr::variable(2, 0) +
                                 AffineExpr::variable(2, 1),
                             AffineExpr::constant(2, 4)));
  BasicSet F = S.fixAndRemoveDim(0, 1);
  EXPECT_EQ(F.numDims(), 1u);
  EXPECT_TRUE(F.contains({3}));
  EXPECT_FALSE(F.contains({4}));
}

TEST(BasicSetTest, PermuteDims) {
  BasicSet S(2);
  S.addBounds(0, 0, 1);
  S.addBounds(1, 5, 6);
  BasicSet P = S.permuteDims({1, 0});
  EXPECT_TRUE(P.contains({5, 0}));
  EXPECT_FALSE(P.contains({0, 5}));
}

//===----------------------------------------------------------------------===//
// Fourier-Motzkin elimination
//===----------------------------------------------------------------------===//

TEST(FourierMotzkinTest, EliminatesMiddleVariable) {
  // x <= m, m <= y  =>  x <= y after eliminating m.
  std::vector<Constraint> Cs;
  Cs.push_back(makeGe(AffineExpr::variable(3, 1),
                      AffineExpr::variable(3, 0))); // m >= x
  Cs.push_back(makeGe(AffineExpr::variable(3, 2),
                      AffineExpr::variable(3, 1))); // y >= m
  auto Out = fourierMotzkinEliminate(Cs, 1, 3);
  ASSERT_EQ(Out.size(), 1u);
  // y - x >= 0.
  EXPECT_EQ(Out[0].Expr.coefficient(0), -1);
  EXPECT_EQ(Out[0].Expr.coefficient(2), 1);
}

TEST(FourierMotzkinTest, UnitEqualitySubstitutesExactly) {
  // m == x + 2 and m <= 7 => x <= 5.
  std::vector<Constraint> Cs;
  Cs.push_back(makeEqExpr(AffineExpr::variable(2, 1),
                          AffineExpr::variable(2, 0) +
                              AffineExpr::constant(2, 2)));
  Cs.push_back(makeLe(AffineExpr::variable(2, 1),
                      AffineExpr::constant(2, 7)));
  auto Out = fourierMotzkinEliminate(Cs, 1, 2);
  ASSERT_EQ(Out.size(), 1u);
  // The variable space keeps its width; the eliminated coefficient is 0.
  EXPECT_EQ(Out[0].Expr.coefficient(1), 0);
  EXPECT_TRUE(Out[0].isSatisfied({5, 0}));
  EXPECT_FALSE(Out[0].isSatisfied({6, 0}));
}

//===----------------------------------------------------------------------===//
// IntegerSet
//===----------------------------------------------------------------------===//

TEST(IntegerSetTest, UnionMembership) {
  IntegerSet A = IntegerSet::box({{0, 2}});
  IntegerSet B = IntegerSet::box({{10, 12}});
  IntegerSet U = A.unionWith(B);
  EXPECT_TRUE(U.contains({1}));
  EXPECT_TRUE(U.contains({11}));
  EXPECT_FALSE(U.contains({5}));
}

TEST(IntegerSetTest, CardinalityDeduplicatesOverlap) {
  IntegerSet A = IntegerSet::box({{0, 5}});
  IntegerSet B = IntegerSet::box({{3, 8}});
  auto Card = A.unionWith(B).cardinality();
  ASSERT_TRUE(Card.has_value());
  EXPECT_EQ(*Card, 9); // 0..8.
}

TEST(IntegerSetTest, IntersectPieces) {
  IntegerSet A = IntegerSet::box({{0, 5}});
  IntegerSet B = IntegerSet::box({{4, 9}});
  auto Card = A.intersect(B).cardinality();
  ASSERT_TRUE(Card.has_value());
  EXPECT_EQ(*Card, 2); // 4, 5.
}

TEST(IntegerSetTest, EmptyDetection) {
  IntegerSet A = IntegerSet::box({{0, 3}});
  IntegerSet B = IntegerSet::box({{5, 9}});
  EXPECT_TRUE(A.intersect(B).isEmpty());
  EXPECT_FALSE(A.isEmpty());
}

//===----------------------------------------------------------------------===//
// IntegerMap / BasicMap
//===----------------------------------------------------------------------===//

TEST(IntegerMapTest, TranslationImage) {
  BasicSet Dom(1);
  Dom.addBounds(0, 0, 9);
  IntegerMap Shift(BasicMap::translation(Dom, {3}));
  auto Image = Shift.imageOfPoint({4});
  ASSERT_TRUE(Image.has_value());
  ASSERT_EQ(Image->size(), 1u);
  EXPECT_EQ((*Image)[0], Point{7});
  EXPECT_TRUE(Shift.contains({0}, {3}));
  EXPECT_FALSE(Shift.contains({10}, {13})); // 10 outside domain.
}

TEST(IntegerMapTest, DomainAndRange) {
  BasicSet Dom(1);
  Dom.addBounds(0, 2, 5);
  IntegerMap Shift(BasicMap::translation(Dom, {10}));
  auto DomPoints = Shift.domain().enumeratePoints();
  auto RanPoints = Shift.range().enumeratePoints();
  ASSERT_TRUE(DomPoints && RanPoints);
  EXPECT_EQ(DomPoints->size(), 4u);
  EXPECT_EQ(RanPoints->front(), Point{12});
  EXPECT_EQ(RanPoints->back(), Point{15});
}

TEST(IntegerMapTest, ReverseSwapsRoles) {
  BasicSet Dom(1);
  Dom.addBounds(0, 0, 3);
  IntegerMap Shift(BasicMap::translation(Dom, {1}));
  IntegerMap Rev = Shift.reverse();
  EXPECT_TRUE(Rev.contains({1}, {0}));
  EXPECT_FALSE(Rev.contains({0}, {1}));
}

TEST(IntegerMapTest, ComposeTranslations) {
  BasicSet Dom(1);
  Dom.addBounds(0, 0, 100);
  IntegerMap A(BasicMap::translation(Dom, {2}));
  IntegerMap B(BasicMap::translation(Dom, {5}));
  IntegerMap C = A.composeWith(B);
  EXPECT_TRUE(C.contains({1}, {8}));
  EXPECT_FALSE(C.contains({1}, {7}));
}

TEST(IntegerMapTest, SinglePairAndCardinality) {
  IntegerMap M(BasicMap::singlePair({1, 2}, {3, 4}));
  M.addPiece(BasicMap::singlePair({0, 0}, {1, 1}));
  auto Card = M.cardinality();
  ASSERT_TRUE(Card.has_value());
  EXPECT_EQ(*Card, 2);
  EXPECT_TRUE(M.contains({1, 2}, {3, 4}));
}

TEST(IntegerMapTest, AsTranslationDetects) {
  BasicSet Dom(2);
  Dom.addBounds(0, 0, 4);
  Dom.addBounds(1, 0, 4);
  BasicMap T = BasicMap::translation(Dom, {1, -2});
  auto Delta = T.asTranslation();
  ASSERT_TRUE(Delta.has_value());
  EXPECT_EQ(*Delta, (std::vector<int64_t>{1, -2}));
}

TEST(IntegerMapTest, AsTranslationRejectsScaling) {
  // { [i] -> [2i] } is not a translation.
  BasicSet Set(2);
  Set.addConstraint(makeEqExpr(AffineExpr::variable(2, 1),
                               AffineExpr::variable(2, 0) * 2));
  BasicMap M(1, 1, Set);
  EXPECT_FALSE(M.asTranslation().has_value());
}

TEST(IntegerMapTest, IdentityMap) {
  BasicSet Dom(1);
  Dom.addBounds(0, 0, 5);
  BasicMap Id = BasicMap::identity(Dom);
  EXPECT_TRUE(Id.contains({3}, {3}));
  EXPECT_FALSE(Id.contains({3}, {4}));
}
