//===- tests/ErrorAwareTest.cpp - error-aware extension tests ---------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Qlosure.h"
#include "route/Fidelity.h"
#include "route/Verify.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace qlosure;

TEST(ErrorModelTest, EdgeErrorsDefaultToZero) {
  CouplingGraph G = makeLine(4);
  EXPECT_FALSE(G.hasErrorModel());
  EXPECT_DOUBLE_EQ(G.edgeError(0, 1), 0.0);
}

TEST(ErrorModelTest, SetAndReadSymmetric) {
  CouplingGraph G = makeLine(4);
  G.setEdgeError(1, 2, 0.02);
  EXPECT_DOUBLE_EQ(G.edgeError(1, 2), 0.02);
  EXPECT_DOUBLE_EQ(G.edgeError(2, 1), 0.02);
  EXPECT_TRUE(G.hasErrorModel());
}

TEST(ErrorModelTest, SyntheticModelCoversAllEdges) {
  CouplingGraph G = makeSherbrooke();
  applySyntheticErrorModel(G, 5);
  for (auto [A, B] : G.edges()) {
    double Rate = G.edgeError(A, B);
    EXPECT_GE(Rate, 0.002);
    EXPECT_LE(Rate, 0.03);
  }
  EXPECT_TRUE(G.hasErrorModel());
}

TEST(ErrorModelTest, CalibratedGraphStoresRatesPerEdge) {
  CouplingGraph G = makeSherbrooke();
  applySyntheticErrorModel(G, 1);
  // One rate per adjacency slot: two per edge plus one list per qubit,
  // not an N x N table.
  EXPECT_EQ(G.errorModelBytes(),
            2 * G.numEdges() * sizeof(double) +
                G.numQubits() * sizeof(std::vector<double>));
  EXPECT_LT(G.errorModelBytes(),
            size_t(G.numQubits()) * G.numQubits() * sizeof(double) / 10);
  ASSERT_FALSE(G.areAdjacent(0, 2));
  EXPECT_EQ(G.edgeError(0, 2), 0.0);
  // An edge added after calibration has a slot and reads 0 until rated.
  G.addEdge(0, 2);
  EXPECT_EQ(G.edgeError(2, 0), 0.0);
  G.setEdgeError(2, 0, 0.01);
  EXPECT_EQ(G.edgeError(0, 2), 0.01);
  EXPECT_EQ(CouplingGraph(4).errorModelBytes(), 0u);
}

TEST(ErrorModelTest, SyntheticModelDeterministicPerSeed) {
  CouplingGraph A = makeAnkaa3();
  CouplingGraph B = makeAnkaa3();
  applySyntheticErrorModel(A, 9);
  applySyntheticErrorModel(B, 9);
  for (auto [X, Y] : A.edges())
    EXPECT_DOUBLE_EQ(A.edgeError(X, Y), B.edgeError(X, Y));
}

TEST(FidelityTest, PerfectHardwareGivesProbabilityOne) {
  CouplingGraph G = makeLine(3);
  Circuit C(3);
  C.addCx(0, 1);
  C.addCx(1, 2);
  EXPECT_DOUBLE_EQ(estimateSuccessProbability(C, G), 1.0);
}

TEST(FidelityTest, ProductOverGateApplications) {
  CouplingGraph G = makeLine(3);
  G.setEdgeError(0, 1, 0.1);
  Circuit C(3);
  C.addCx(0, 1);
  C.addCx(0, 1);
  EXPECT_NEAR(estimateSuccessProbability(C, G), 0.9 * 0.9, 1e-12);
}

TEST(FidelityTest, SwapChargedAsThreeCx) {
  CouplingGraph G = makeLine(2);
  G.setEdgeError(0, 1, 0.1);
  Circuit C(2);
  C.addSwap(0, 1);
  EXPECT_NEAR(estimateSuccessProbability(C, G), 0.9 * 0.9 * 0.9, 1e-12);
}

TEST(ErrorAwareRoutingTest, StillVerifies) {
  CouplingGraph Hw = makeAnkaa3();
  applySyntheticErrorModel(Hw, 13);
  Circuit C = makeQft(16);
  QlosureOptions Opts;
  Opts.ErrorAware = true;
  QlosureRouter Router(Opts);
  RoutingResult R = Router.routeWithIdentity(C, Hw);
  EXPECT_TRUE(verifyRouting(C, Hw, R).Ok);
}

TEST(ErrorAwareRoutingTest, ImprovesSuccessProbabilityOnAverage) {
  CouplingGraph Hw = makeGrid(5, 5);
  // A harsh, polarized calibration makes the signal unambiguous.
  applySyntheticErrorModel(Hw, 17, 0.001, 0.08);
  double LogGainSum = 0;
  for (unsigned N : {10u, 14u, 18u}) {
    Circuit C = makeQft(N);
    QlosureOptions Plain;
    QlosureRouter PlainRouter(Plain);
    QlosureOptions Aware;
    Aware.ErrorAware = true;
    QlosureRouter AwareRouter(Aware);
    double PPlain = estimateSuccessProbability(
        PlainRouter.routeWithIdentity(C, Hw).Routed, Hw);
    double PAware = estimateSuccessProbability(
        AwareRouter.routeWithIdentity(C, Hw).Routed, Hw);
    LogGainSum += std::log(PAware / PPlain);
  }
  // Averaged across sizes, awareness must not hurt fidelity.
  EXPECT_GT(LogGainSum, -0.05);
}

TEST(ErrorAwareRoutingTest, FallsBackWithoutModel) {
  // ErrorAware with no installed model must behave like the plain router.
  CouplingGraph Hw = makeLine(6);
  Circuit C = makeQft(6);
  QlosureOptions Aware;
  Aware.ErrorAware = true;
  QlosureRouter AwareRouter(Aware);
  QlosureRouter PlainRouter;
  RoutingResult A = AwareRouter.routeWithIdentity(C, Hw);
  RoutingResult B = PlainRouter.routeWithIdentity(C, Hw);
  EXPECT_EQ(A.NumSwaps, B.NumSwaps);
}
