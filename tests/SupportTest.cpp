//===- tests/SupportTest.cpp - support library tests ---------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Random.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cmath>

#include <set>

using namespace qlosure;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Matches = 0;
  for (int I = 0; I < 64; ++I)
    Matches += A.next() == B.next();
  EXPECT_LT(Matches, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBounded(17), 17u);
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBounded(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RngTest, RangeInclusive) {
  Rng R(11);
  std::set<int64_t> Seen;
  for (int I = 0; I < 500; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng R(13);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng R(17);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.nextBernoulli(0.0));
    EXPECT_TRUE(R.nextBernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng R(19);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Original = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Original.begin(),
                                              Original.end());
  EXPECT_EQ(A, B);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng R(23);
  uint64_t First = R.next();
  R.next();
  R.reseed(23);
  EXPECT_EQ(R.next(), First);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(StatisticsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({4, 9}), 6.0);
}

TEST(StatisticsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(StatisticsTest, Stddev) {
  EXPECT_DOUBLE_EQ(stddev({2, 2, 2}), 0.0);
  // Sample (N-1) estimator: {1, 3} has variance ((1)^2 + (1)^2) / 1 = 2.
  EXPECT_NEAR(stddev({1, 3}), std::sqrt(2.0), 1e-12);
  // {2, 4, 4, 4, 5, 5, 7, 9}: sum of squared deviations = 32, N-1 = 7.
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0),
              1e-12);
  // Degenerate sizes stay 0.
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({42.0}), 0.0);
}

TEST(StatisticsTest, MinMax) {
  EXPECT_DOUBLE_EQ(minOf({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(maxOf({3, 1, 2}), 3.0);
}

TEST(StatisticsTest, RunningStat) {
  RunningStat S;
  S.add(2);
  S.add(4);
  S.add(9);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
}

//===----------------------------------------------------------------------===//
// StringUtils / Table
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
}

TEST(StringUtilsTest, SplitKeepsEmptyFields) {
  auto Fields = splitString("a,,b", ',');
  ASSERT_EQ(Fields.size(), 3u);
  EXPECT_EQ(Fields[1], "");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trimString("  x y \t\n"), "x y");
  EXPECT_EQ(trimString("   "), "");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("queko-bss", "queko"));
  EXPECT_FALSE(startsWith("qu", "queko"));
}

TEST(TableTest, RendersAlignedColumns) {
  Table T({"Mapper", "Swaps"});
  T.addRow({"SABRE", "120"});
  T.addRow({"Qlosure", "95"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| Mapper "), std::string::npos);
  EXPECT_NE(Out.find("|   120 |"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TableTest, SeparatorRendersRule) {
  Table T({"A"});
  T.addRow({"1"});
  T.addSeparator();
  T.addRow({"2"});
  std::string Out = T.render();
  // Header rule + separator + bottom rule + top = at least 4 rules.
  size_t Count = 0, Pos = 0;
  while ((Pos = Out.find("+---", Pos)) != std::string::npos) {
    ++Count;
    ++Pos;
  }
  EXPECT_GE(Count, 4u);
}
