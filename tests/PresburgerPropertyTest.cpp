//===- tests/PresburgerPropertyTest.cpp - randomized algebraic properties ---------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests of the presburger substrate on seeded random
/// inputs: set algebra agrees with pointwise semantics, Fourier-Motzkin
/// projection is sound, and relation composition/reversal obey their laws.
///
//===----------------------------------------------------------------------===//

#include "presburger/IntegerMap.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <set>

using namespace qlosure;
using namespace qlosure::presburger;

namespace {

/// A random conjunctive set over [Lo, Hi]^2 with a few extra half-plane
/// constraints (always bounded).
BasicSet randomBasicSet(Rng &Generator, int64_t Lo = -4, int64_t Hi = 6) {
  BasicSet Set(2);
  Set.addBounds(0, Lo, Hi);
  Set.addBounds(1, Lo, Hi);
  unsigned Extra = static_cast<unsigned>(Generator.nextBounded(3));
  for (unsigned I = 0; I < Extra; ++I) {
    AffineExpr E({Generator.nextInRange(-2, 2), Generator.nextInRange(-2, 2)},
                 Generator.nextInRange(-4, 8));
    Set.addConstraint(Constraint(std::move(E), ConstraintKind::Inequality));
  }
  return Set;
}

std::set<Point> enumerateToSet(const BasicSet &Set) {
  auto Points = Set.enumeratePoints();
  EXPECT_TRUE(Points.has_value());
  return std::set<Point>(Points->begin(), Points->end());
}

} // namespace

class PresburgerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PresburgerPropertyTest, EnumerationMatchesMembership) {
  Rng Generator(GetParam());
  BasicSet Set = randomBasicSet(Generator);
  std::set<Point> Points = enumerateToSet(Set);
  // Every point in the box is in the enumeration iff contains() says so.
  for (int64_t X = -5; X <= 7; ++X)
    for (int64_t Y = -5; Y <= 7; ++Y) {
      Point P{X, Y};
      EXPECT_EQ(Points.count(P) > 0, Set.contains(P))
          << "(" << X << ", " << Y << ")";
    }
}

TEST_P(PresburgerPropertyTest, IntersectionIsPointwiseAnd) {
  Rng Generator(GetParam() * 31 + 7);
  BasicSet A = randomBasicSet(Generator);
  BasicSet B = randomBasicSet(Generator);
  BasicSet Both = A.intersect(B);
  for (int64_t X = -5; X <= 7; ++X)
    for (int64_t Y = -5; Y <= 7; ++Y) {
      Point P{X, Y};
      EXPECT_EQ(Both.contains(P), A.contains(P) && B.contains(P));
    }
}

TEST_P(PresburgerPropertyTest, UnionIsPointwiseOr) {
  Rng Generator(GetParam() * 17 + 3);
  IntegerSet A(randomBasicSet(Generator));
  IntegerSet B(randomBasicSet(Generator));
  IntegerSet Either = A.unionWith(B);
  for (int64_t X = -5; X <= 7; ++X)
    for (int64_t Y = -5; Y <= 7; ++Y) {
      Point P{X, Y};
      EXPECT_EQ(Either.contains(P), A.contains(P) || B.contains(P));
    }
}

TEST_P(PresburgerPropertyTest, FourierMotzkinProjectionIsSound) {
  // Eliminating y must keep every x that has a witness y.
  Rng Generator(GetParam() * 101 + 13);
  BasicSet Set = randomBasicSet(Generator);
  BasicSet Projected = Set.projectOutTrailing(1);
  auto Points = Set.enumeratePoints();
  ASSERT_TRUE(Points.has_value());
  for (const Point &P : *Points)
    EXPECT_TRUE(Projected.contains({P[0]}))
        << "lost x = " << P[0];
}

TEST_P(PresburgerPropertyTest, ReverseIsInvolution) {
  Rng Generator(GetParam() * 7 + 1);
  // A random finite relation out of explicit pairs.
  IntegerMap R(1, 1);
  unsigned NumPairs = 1 + static_cast<unsigned>(Generator.nextBounded(6));
  for (unsigned I = 0; I < NumPairs; ++I)
    R.addPiece(BasicMap::singlePair({Generator.nextInRange(0, 8)},
                                    {Generator.nextInRange(0, 8)}));
  IntegerMap RR = R.reverse().reverse();
  auto Pairs = R.enumeratePairs();
  auto PairsRR = RR.enumeratePairs();
  ASSERT_TRUE(Pairs && PairsRR);
  EXPECT_EQ(*Pairs, *PairsRR);
}

TEST_P(PresburgerPropertyTest, CompositionMatchesPointwise) {
  Rng Generator(GetParam() * 53 + 29);
  auto randomRelation = [&Generator]() {
    IntegerMap R(1, 1);
    unsigned NumPairs = 1 + static_cast<unsigned>(Generator.nextBounded(5));
    for (unsigned I = 0; I < NumPairs; ++I)
      R.addPiece(BasicMap::singlePair({Generator.nextInRange(0, 5)},
                                      {Generator.nextInRange(0, 5)}));
    return R;
  };
  IntegerMap A = randomRelation();
  IntegerMap B = randomRelation();
  IntegerMap AB = A.composeWith(B);
  for (int64_t X = 0; X <= 5; ++X)
    for (int64_t Z = 0; Z <= 5; ++Z) {
      bool Expect = false;
      for (int64_t Y = 0; Y <= 5 && !Expect; ++Y)
        Expect = A.contains({X}, {Y}) && B.contains({Y}, {Z});
      EXPECT_EQ(AB.contains({X}, {Z}), Expect)
          << X << " -> " << Z;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresburgerPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));
