//===- tests/DependenceTest.cpp - affine dependence analysis tests ----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "affine/Lifter.h"
#include "circuit/Dag.h"
#include "deps/DependenceAnalysis.h"
#include "deps/TransitiveWeights.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"
#include "topology/Backends.h"

#include <gtest/gtest.h>

using namespace qlosure;
using namespace qlosure::presburger;

TEST(DependenceTest, SelfDependenceOnSlidingChain) {
  // CX(i, i+1) for i in 0..5: instance i and i+1 share qubit i+1, giving
  // the uniform self-dependence { [i] -> [i+1] }.
  Circuit C(7);
  for (int I = 0; I < 6; ++I)
    C.addCx(I, I + 1);
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 1u);
  IntegerMap Rel = buildPairDependence(AC, 0, 0);
  EXPECT_FALSE(Rel.isEmptyUnion());
  EXPECT_TRUE(Rel.contains({0}, {1}));
  EXPECT_TRUE(Rel.contains({4}, {5}));
  EXPECT_FALSE(Rel.contains({1}, {0})); // Time order.
  EXPECT_FALSE(Rel.contains({0}, {2})); // Not a direct dependence.
}

TEST(DependenceTest, CrossStatementDependence) {
  Circuit C(8);
  for (int I = 0; I < 4; ++I) // S0: CX(i, i+4).
    C.addCx(I, I + 4);
  for (int I = 0; I < 4; ++I) // S1: CZ(i, i+4) reuses every qubit.
    C.add2Q(GateKind::CZ, I, I + 4);
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 2u);
  IntegerMap Rel = buildPairDependence(AC, 0, 1);
  // Instance i of S0 and instance i of S1 share both qubits.
  EXPECT_TRUE(Rel.contains({0}, {0}));
  EXPECT_TRUE(Rel.contains({3}, {3}));
  EXPECT_FALSE(Rel.contains({2}, {1})); // Disjoint qubits.
  // No dependence back from S1 to S0.
  EXPECT_TRUE(buildPairDependence(AC, 1, 0).isEmptyUnion());
}

TEST(DependenceTest, DisjointQubitRangesHaveNoDependence) {
  Circuit C(12);
  for (int I = 0; I < 3; ++I)
    C.addCx(I, I + 1);
  for (int I = 8; I < 11; ++I)
    C.addCx(I, I + 1);
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 2u);
  EXPECT_TRUE(buildPairDependence(AC, 0, 1).isEmptyUnion());
}

TEST(DependenceTest, GcdPrecheckFiltersParityMiss) {
  // S0 touches even qubits only, S1 odd qubits only.
  Circuit C(16);
  for (int I = 0; I < 4; ++I)
    C.addCx(2 * I, 2 * I + 8);
  for (int I = 0; I < 3; ++I)
    C.add2Q(GateKind::CZ, 2 * I + 1, 2 * I + 3);
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 2u);
  EXPECT_TRUE(buildPairDependence(AC, 0, 1).isEmptyUnion());
}

TEST(DependenceTest, ReachabilityIsTransitive) {
  // Three chained statements on overlapping qubit windows.
  Circuit C(10);
  for (int I = 0; I < 3; ++I)
    C.addCx(I, I + 1);
  for (int I = 3; I < 6; ++I)
    C.add2Q(GateKind::CZ, I, I + 1);
  for (int I = 6; I < 9; ++I)
    C.add2Q(GateKind::RZZ, I, I + 1);
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 3u);
  AffineDependences Deps(AC);
  // S0 -> S1 (qubit 3 and 4 shared), S1 -> S2 (qubit 6 shared), so S2 is
  // transitively reachable from S0.
  const auto &Reach0 = Deps.reachable()[0];
  EXPECT_NE(std::find(Reach0.begin(), Reach0.end(), 1u), Reach0.end());
  EXPECT_NE(std::find(Reach0.begin(), Reach0.end(), 2u), Reach0.end());
  // Nothing reaches backwards: S2 reaches at most itself (its RZZ chain
  // has a self-dependence).
  for (uint32_t T : Deps.reachable()[2])
    EXPECT_EQ(T, 2u);
}

TEST(DependenceTest, GlobalTimeRelationMatchesDag) {
  // On small circuits the affine global time relation must cover exactly
  // the DAG's transitive dependences (it includes non-nearest pairs, which
  // the DAG realizes transitively).
  Circuit C(5);
  C.addCx(0, 1);
  C.addCx(1, 2);
  C.addCx(2, 3);
  C.addCx(3, 4);
  AffineCircuit AC = liftCircuit(C);
  AffineDependences Deps(AC);
  IntegerMap TimeRel = Deps.globalTimeRelation(AC);
  // Direct shared-qubit pairs must be present.
  EXPECT_TRUE(TimeRel.contains({0}, {1}));
  EXPECT_TRUE(TimeRel.contains({2}, {3}));
  // Gates 0 and 2 share no qubit: not a *direct* dependence.
  EXPECT_FALSE(TimeRel.contains({0}, {2}));
  EXPECT_FALSE(TimeRel.contains({1}, {0}));
}

//===----------------------------------------------------------------------===//
// Dependence weights (omega)
//===----------------------------------------------------------------------===//

TEST(WeightsTest, ExactEngineOnChain) {
  Circuit C(2);
  for (int I = 0; I < 5; ++I)
    C.addCx(0, 1);
  WeightResult R = computeDependenceWeights(C, WeightEngine::Exact);
  EXPECT_TRUE(R.IsExact);
  EXPECT_EQ(R.Weights, (std::vector<uint64_t>{4, 3, 2, 1, 0}));
}

TEST(WeightsTest, AffineEngineExactOnUniformChain) {
  // A sliding CX chain lifts to one statement with stride-1
  // self-dependence, where the affine closed form is exact.
  Circuit C(12);
  for (int I = 0; I < 11; ++I)
    C.addCx(I, I + 1);
  auto E = computeDependenceWeights(C, WeightEngine::Exact);
  auto A = computeDependenceWeights(C, WeightEngine::Affine);
  EXPECT_EQ(E.Weights, A.Weights);
  EXPECT_GT(A.CompressionRatio, 5.0);
}

TEST(WeightsTest, AffineIsUpperBoundOfExact) {
  // On arbitrary circuits the affine engine must never undercount.
  std::vector<Circuit> Cases;
  Cases.push_back(makeQft(8, true));
  Cases.push_back(makeAdder(8));
  Cases.push_back(makeQugan(6, 3));
  Cases.push_back(makeBv(7));
  QuekoSpec Spec;
  Spec.Depth = 12;
  Spec.Seed = 5;
  Cases.push_back(generateQueko(makeAspen16(), Spec).Circ);
  for (const Circuit &C : Cases) {
    auto E = computeDependenceWeights(C, WeightEngine::Exact);
    auto A = computeDependenceWeights(C, WeightEngine::Affine);
    ASSERT_EQ(E.Weights.size(), A.Weights.size());
    for (size_t I = 0; I < E.Weights.size(); ++I)
      EXPECT_GE(A.Weights[I], E.Weights[I])
          << C.name() << " gate " << I;
  }
}

TEST(WeightsTest, LastGateAlwaysZero) {
  Circuit C = makeGhz(10);
  for (WeightEngine Engine : {WeightEngine::Exact, WeightEngine::Affine}) {
    auto R = computeDependenceWeights(C, Engine);
    EXPECT_EQ(R.Weights.back(), 0u);
  }
}

TEST(WeightsTest, AutoSwitchesEngineBySize) {
  EXPECT_EQ(computeDependenceWeights(makeGhz(5)).UsedEngine,
            WeightEngine::Exact);
  // makeGhz(N) has N gates: one H and a CX chain.
  Circuit Big = makeGhz(static_cast<unsigned>(ExactGateLimit + 1));
  ASSERT_EQ(Big.size(), ExactGateLimit + 1);
  EXPECT_EQ(computeDependenceWeights(Big).UsedEngine,
            WeightEngine::Affine);
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
  auto R = computeDependenceWeights(C, WeightEngine::Exact);
  EXPECT_EQ(R.Weights[0], 3u); // G2, G4, G5.
  EXPECT_EQ(R.Weights[1], 4u); // G2, G3, G4, G5.
  EXPECT_EQ(R.Weights[2], 2u); // G4, G5.
  EXPECT_EQ(R.Weights[3], 1u); // G5.
  EXPECT_EQ(R.Weights[4], 0u);
  EXPECT_EQ(R.Weights[5], 0u);
}
