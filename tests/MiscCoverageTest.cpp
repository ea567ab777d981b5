//===- tests/MiscCoverageTest.cpp - focused corner-case coverage ------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "affine/Lifter.h"
#include "circuit/Dag.h"
#include "eval/Harness.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "route/FrontLayer.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"

#include <gtest/gtest.h>

using namespace qlosure;

//===----------------------------------------------------------------------===//
// QASM frontend corners
//===----------------------------------------------------------------------===//

TEST(QasmCornerTest, MultiParamGateRoundTrip) {
  Circuit C(1, "u3rt");
  Gate G(GateKind::U3, 0);
  G.Params[0] = 0.1;
  G.Params[1] = 0.2;
  G.Params[2] = 0.3;
  C.addGate(G);
  auto R = qasm::importQasm(qasm::printQasm(C));
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 1u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::U3);
  EXPECT_NEAR(R.Circ->gate(0).Params[1], 0.2, 1e-15);
  EXPECT_NEAR(R.Circ->gate(0).Params[2], 0.3, 1e-15);
}

TEST(QasmCornerTest, ResetIsIgnoredNotRejected) {
  auto R = qasm::importQasm("qreg q[2]; reset q[0]; h q[1];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 1u); // Only the H survives.
}

TEST(QasmCornerTest, UAliasMapsToU3) {
  auto R = qasm::importQasm("qreg q[1]; u(0.1,0.2,0.3) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::U3);
}

TEST(QasmCornerTest, MathFunctionsInParams) {
  auto R = qasm::importQasm("qreg q[1]; rz(cos(0)) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_DOUBLE_EQ(R.Circ->gate(0).Params[0], 1.0);
}

TEST(QasmCornerTest, BarrierInsideGateBodySkipped) {
  auto R = qasm::importQasm(
      "gate g a,b { cx a,b; barrier a,b; cx b,a; }\n"
      "qreg q[2]; g q[0],q[1];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 2u);
}

//===----------------------------------------------------------------------===//
// Lifter
//===----------------------------------------------------------------------===//

TEST(LifterTest, CompressionRatioDefinition) {
  Circuit C(2);
  for (int I = 0; I < 10; ++I)
    C.addCx(0, 1);
  AffineCircuit AC = liftCircuit(C);
  EXPECT_DOUBLE_EQ(AC.compressionRatio(), 10.0);
}

//===----------------------------------------------------------------------===//
// Front layer windows
//===----------------------------------------------------------------------===//

TEST(FrontLayerWindowTest, TwoQubitCountingSkipsOneQGates) {
  // h h h cx h h h cx ...: a 2Q budget of 2 must reach the second CX.
  Circuit C(4);
  for (int R = 0; R < 3; ++R) {
    C.add1Q(GateKind::H, 0);
    C.add1Q(GateKind::H, 1);
    C.addCx(0, 1);
  }
  CircuitDag Dag(C);
  RoutingScratch Scratch;
  FrontLayerTracker T(Dag, Scratch);
  auto Plain = T.topologicalWindow(2);
  EXPECT_EQ(Plain.size(), 2u); // Two 1Q gates only.
  auto TwoQ = T.topologicalWindow(16, /*MaxTwoQubit=*/2);
  size_t NumTwoQ = 0;
  for (uint32_t G : TwoQ)
    NumTwoQ += Dag.isTwoQubitGate(G);
  EXPECT_EQ(NumTwoQ, 2u);
  EXPECT_GT(TwoQ.size(), 2u); // The traversed 1Q gates come along.
}

//===----------------------------------------------------------------------===//
// Harness / workload corners
//===----------------------------------------------------------------------===//

TEST(HarnessCornerTest, DepthFactorZeroBaseline) {
  RunRecord R;
  R.RoutedDepth = 50;
  R.BaselineDepth = 0;
  EXPECT_DOUBLE_EQ(R.depthFactor(), 0.0);
}

TEST(WorkloadCornerTest, QuekoDepthOne) {
  QuekoSpec Spec;
  Spec.Depth = 1;
  Spec.Seed = 3;
  QuekoInstance I = generateQueko(makeAspen16(), Spec);
  EXPECT_EQ(I.Circ.depth(), 1u);
  EXPECT_GT(I.Circ.size(), 0u);
}

TEST(WorkloadCornerTest, SuiteCircuitsAreRoutableSmoke) {
  // Every suite circuit fits on Sherbrooke and has sane depth bounds.
  CouplingGraph Hw = makeSherbrooke();
  for (const NamedCircuit &NC : standardQasmBenchSuite()) {
    EXPECT_LE(NC.Circ.numQubits(), Hw.numQubits()) << NC.Name;
    EXPECT_GE(NC.Circ.depth(), 1u) << NC.Name;
    EXPECT_LE(NC.Circ.depth(), NC.Circ.size()) << NC.Name;
  }
}
