//===- tests/CircuitTest.cpp - circuit IR tests ----------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "circuit/Circuit.h"
#include "circuit/Dag.h"
#include "deps/TransitiveWeights.h"

#include <gtest/gtest.h>

using namespace qlosure;

//===----------------------------------------------------------------------===//
// Gate
//===----------------------------------------------------------------------===//

TEST(GateTest, ArityTable) {
  EXPECT_EQ(gateArity(GateKind::H), 1u);
  EXPECT_EQ(gateArity(GateKind::CX), 2u);
  EXPECT_EQ(gateArity(GateKind::Swap), 2u);
  EXPECT_EQ(gateArity(GateKind::CCX), 3u);
}

TEST(GateTest, ParamTable) {
  EXPECT_EQ(gateNumParams(GateKind::H), 0u);
  EXPECT_EQ(gateNumParams(GateKind::RZ), 1u);
  EXPECT_EQ(gateNumParams(GateKind::U2), 2u);
  EXPECT_EQ(gateNumParams(GateKind::U3), 3u);
}

TEST(GateTest, Names) {
  EXPECT_STREQ(gateName(GateKind::CX), "cx");
  EXPECT_STREQ(gateName(GateKind::Sdg), "sdg");
  EXPECT_STREQ(gateName(GateKind::Swap), "swap");
}

TEST(GateTest, UsesQubitAndMapping) {
  Gate G(GateKind::CX, 2, 5);
  EXPECT_TRUE(G.usesQubit(2));
  EXPECT_TRUE(G.usesQubit(5));
  EXPECT_FALSE(G.usesQubit(3));
  Gate Mapped = G.withMappedQubits([](int32_t Q) { return Q + 10; });
  EXPECT_EQ(Mapped.Qubits[0], 12);
  EXPECT_EQ(Mapped.Qubits[1], 15);
}

TEST(GateTest, ToString) {
  Gate G(GateKind::CX, 0, 3);
  EXPECT_EQ(G.toString(), "cx q[0], q[3]");
  Gate R(GateKind::RZ, 1);
  R.Params[0] = 0.5;
  EXPECT_EQ(R.toString(), "rz(0.5) q[1]");
}

//===----------------------------------------------------------------------===//
// Circuit
//===----------------------------------------------------------------------===//

TEST(CircuitTest, CountsGates) {
  Circuit C(4);
  C.add1Q(GateKind::H, 0);
  C.addCx(0, 1);
  C.addSwap(2, 3);
  C.addGate(Gate(GateKind::Measure, 1));
  EXPECT_EQ(C.size(), 4u);
  EXPECT_EQ(C.numTwoQubitGates(), 2u);
  EXPECT_EQ(C.numSwapGates(), 1u);
  EXPECT_EQ(C.numQuantumOps(), 3u); // Measure excluded.
}

TEST(CircuitTest, DepthSerialChain) {
  Circuit C(2);
  for (int I = 0; I < 5; ++I)
    C.addCx(0, 1);
  EXPECT_EQ(C.depth(), 5u);
}

TEST(CircuitTest, DepthParallelGates) {
  Circuit C(4);
  C.addCx(0, 1);
  C.addCx(2, 3); // Independent: same level.
  EXPECT_EQ(C.depth(), 1u);
  C.addCx(1, 2); // Depends on both.
  EXPECT_EQ(C.depth(), 2u);
}

TEST(CircuitTest, DepthSwapCostModels) {
  Circuit C(2);
  C.addSwap(0, 1);
  C.addCx(0, 1);
  EXPECT_EQ(C.depth(SwapCostModel::SwapAsOneGate), 2u);
  EXPECT_EQ(C.depth(SwapCostModel::SwapAsThreeCx), 4u);
}

TEST(CircuitTest, BarrierAddsNoDepth) {
  // Barriers are stored per-qubit and cost nothing: the two H gates stay
  // on independent wires.
  Circuit C(2);
  C.add1Q(GateKind::H, 0);
  C.addGate(Gate(GateKind::Barrier, 0));
  C.addGate(Gate(GateKind::Barrier, 1));
  C.add1Q(GateKind::H, 1);
  EXPECT_EQ(C.depth(), 1u);
  // On the same wire, the barrier still adds nothing.
  Circuit D(1);
  D.add1Q(GateKind::H, 0);
  D.addGate(Gate(GateKind::Barrier, 0));
  D.add1Q(GateKind::H, 0);
  EXPECT_EQ(D.depth(), 2u);
}

TEST(CircuitTest, WithoutNonUnitaries) {
  Circuit C(2);
  C.add1Q(GateKind::H, 0);
  C.addGate(Gate(GateKind::Measure, 0));
  C.addGate(Gate(GateKind::Barrier, 1));
  Circuit U = C.withoutNonUnitaries();
  EXPECT_EQ(U.size(), 1u);
  EXPECT_EQ(U.gate(0).Kind, GateKind::H);
}

TEST(CircuitTest, MappedQubitsPreservesStructure) {
  Circuit C(3);
  C.addCx(0, 2);
  Circuit M = C.withMappedQubits([](int32_t Q) { return 2 - Q; });
  EXPECT_EQ(M.gate(0).Qubits[0], 2);
  EXPECT_EQ(M.gate(0).Qubits[1], 0);
}

TEST(CircuitTest, DecomposeCcxGateBudget) {
  Circuit C(3);
  C.addGate(Gate(GateKind::CCX, 0, 1, 2));
  Circuit D = C.decomposeThreeQubitGates();
  size_t TwoQ = 0, OneQ = 0;
  for (const Gate &G : D.gates()) {
    EXPECT_LE(G.numQubits(), 2u);
    (G.isTwoQubit() ? TwoQ : OneQ) += 1;
  }
  EXPECT_EQ(TwoQ, 6u); // Standard Toffoli: 6 CX.
  EXPECT_EQ(OneQ, 9u); // 2 H + 4 T + 3 Tdg.
}

TEST(CircuitTest, DecomposeCswap) {
  Circuit C(3);
  C.addGate(Gate(GateKind::CSwap, 0, 1, 2));
  Circuit D = C.decomposeThreeQubitGates();
  for (const Gate &G : D.gates())
    EXPECT_LE(G.numQubits(), 2u);
  // Fredkin = CX + Toffoli + CX.
  EXPECT_EQ(D.numTwoQubitGates(), 8u);
}

TEST(CircuitTest, VerifyInvariantsAcceptsValid) {
  Circuit C(2);
  C.addCx(0, 1);
  C.verifyInvariants(); // Must not abort.
}

//===----------------------------------------------------------------------===//
// CircuitDag
//===----------------------------------------------------------------------===//

static std::vector<uint32_t> toVector(GateRange R) {
  return {R.begin(), R.end()};
}

TEST(DagTest, ChainDependences) {
  Circuit C(2);
  C.addCx(0, 1);
  C.addCx(0, 1);
  C.addCx(0, 1);
  CircuitDag Dag(C);
  EXPECT_EQ(Dag.numGates(), 3u);
  EXPECT_EQ(Dag.roots(), (std::vector<uint32_t>{0}));
  EXPECT_EQ(toVector(Dag.successors(0)), (std::vector<uint32_t>{1}));
  EXPECT_EQ(toVector(Dag.predecessors(2)), (std::vector<uint32_t>{1}));
}

TEST(DagTest, PaperFigure1Example) {
  // Fig. 1b of the paper: CNOTs (0,1) (2,3) (1,2) (3,5) (0,2) (1,5).
  Circuit C(6);
  C.addCx(0, 1); // G0
  C.addCx(2, 3); // G1
  C.addCx(1, 2); // G2
  C.addCx(3, 5); // G3
  C.addCx(0, 2); // G4
  C.addCx(1, 5); // G5
  CircuitDag Dag(C);
  // G0 and G1 are the roots.
  EXPECT_EQ(Dag.roots(), (std::vector<uint32_t>{0, 1}));
  // G2 depends on G0 (q1) and G1 (q2).
  EXPECT_EQ(Dag.predecessors(2).size(), 2u);
  // G4 depends on G0 (q0) and G2 (q2).
  std::vector<uint32_t> P4 = toVector(Dag.predecessors(4));
  std::sort(P4.begin(), P4.end());
  EXPECT_EQ(P4, (std::vector<uint32_t>{0, 2}));
  // G5 depends on G2 (q1) and G3 (q5).
  std::vector<uint32_t> P5 = toVector(Dag.predecessors(5));
  std::sort(P5.begin(), P5.end());
  EXPECT_EQ(P5, (std::vector<uint32_t>{2, 3}));
}

TEST(DagTest, NoDuplicateEdgeForSharedPair) {
  // Two consecutive gates on the same qubit pair create one edge, not two.
  Circuit C(2);
  C.addCx(0, 1);
  C.addCx(1, 0);
  CircuitDag Dag(C);
  EXPECT_EQ(Dag.successors(0).size(), 1u);
  EXPECT_EQ(Dag.inDegree(1), 1u);
}

TEST(DagTest, ExactTransitiveCountsChain) {
  Circuit C(2);
  for (int I = 0; I < 4; ++I)
    C.addCx(0, 1);
  auto Counts = computeDependenceWeights(C).Weights;
  EXPECT_EQ(Counts, (std::vector<uint64_t>{3, 2, 1, 0}));
}

TEST(DagTest, ExactTransitiveCountsDiamond) {
  // G0 -> G1, G0 -> G2, G1 -> G3, G2 -> G3: G0 has 3 dependents, not 4.
  Circuit C(4);
  C.addCx(0, 1); // G0.
  C.addCx(0, 2); // G1 (dep on G0 via q0).
  C.addCx(1, 3); // G2 (dep on G0 via q1).
  C.addCx(2, 3); // G3 (dep on G1 via q2, G2 via q3).
  auto Counts = computeDependenceWeights(C).Weights;
  EXPECT_EQ(Counts[0], 3u);
  EXPECT_EQ(Counts[1], 1u);
  EXPECT_EQ(Counts[2], 1u);
  EXPECT_EQ(Counts[3], 0u);
}

TEST(DagTest, ExactCountsOnPaperExample) {
  Circuit C(6);
  C.addCx(0, 1);
  C.addCx(2, 3);
  C.addCx(1, 2);
  C.addCx(3, 5);
  C.addCx(0, 2);
  C.addCx(1, 5);
  auto Counts = computeDependenceWeights(C).Weights;
  // G2 unlocks G4 and G5; G0 unlocks G2, G4, G5.
  EXPECT_EQ(Counts[2], 2u);
  EXPECT_EQ(Counts[0], 3u);
  EXPECT_EQ(Counts[5], 0u);
}
