//===- tests/WeightsTest.cpp - dependence weight omega tests ----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "deps/TransitiveWeights.h"
#include "workloads/QasmBench.h"

#include <gtest/gtest.h>

using namespace qlosure;

TEST(WeightsTest, ExactEngineOnChain) {
  Circuit C(2);
  for (int I = 0; I < 5; ++I)
    C.addCx(0, 1);
  WeightResult R = computeDependenceWeights(C);
  EXPECT_EQ(R.Weights, (std::vector<uint64_t>{4, 3, 2, 1, 0}));
}

TEST(WeightsTest, LastGateAlwaysZero) {
  EXPECT_EQ(computeDependenceWeights(makeGhz(10)).Weights.back(), 0u);
}

TEST(WeightsTest, PaperExampleWeights) {
  // Fig. 1b circuit: omega counts transitive dependents.
  Circuit C(6);
  C.addCx(0, 1);
  C.addCx(2, 3);
  C.addCx(1, 2);
  C.addCx(3, 5);
  C.addCx(0, 2);
  C.addCx(1, 5);
  auto R = computeDependenceWeights(C);
  EXPECT_EQ(R.Weights[0], 3u); // G2, G4, G5.
  EXPECT_EQ(R.Weights[1], 4u); // G2, G3, G4, G5.
  EXPECT_EQ(R.Weights[2], 2u); // G4, G5.
  EXPECT_EQ(R.Weights[3], 1u); // G5.
  EXPECT_EQ(R.Weights[4], 0u);
  EXPECT_EQ(R.Weights[5], 0u);
}
