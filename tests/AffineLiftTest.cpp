//===- tests/AffineLiftTest.cpp - QRANE-lite lifter tests --------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "affine/Lifter.h"
#include "qasm/Importer.h"
#include "route/RoutingContext.h"
#include "topology/Backends.h"

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace qlosure;

namespace {

/// The paper's Sec. III-C example trace:
///   CX q[0],q[1]; CX q[1],q[3]; CX q[2],q[5]; CX q[3],q[7];
/// lifts to one statement with q1 = [i] -> [i] and q2 = [i] -> [2i + 1].
Circuit paperTrace() {
  Circuit C(8);
  C.addCx(0, 1);
  C.addCx(1, 3);
  C.addCx(2, 5);
  C.addCx(3, 7);
  return C;
}

} // namespace

TEST(LifterTest, PaperExampleLiftsToOneStatement) {
  AffineCircuit AC = liftCircuit(paperTrace());
  ASSERT_EQ(AC.numStatements(), 1u);
  const MacroGate &S = AC.statement(0);
  EXPECT_EQ(S.Kind, GateKind::CX);
  EXPECT_EQ(S.TripCount, 4);
  EXPECT_EQ(S.Scale[0], 1);
  EXPECT_EQ(S.Offset[0], 0);
  EXPECT_EQ(S.Scale[1], 2);
  EXPECT_EQ(S.Offset[1], 1);
}

TEST(LifterTest, IterationDomainCardinality) {
  // Statement 0's iteration domain is 0 <= i <= TripCount - 1: four
  // points, one per trace gate, each scheduled at Start + i.
  Circuit C = paperTrace();
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 1u);
  const MacroGate &S = AC.statement(0);
  EXPECT_EQ(S.TripCount, 4);
  EXPECT_EQ(S.TripCount, AC.numGates());
  for (int64_t I = 0; I < S.TripCount; ++I) {
    const Gate &G = C.gate(static_cast<size_t>(S.Start + I));
    EXPECT_EQ(S.qubit(0, I), G.Qubits[0]) << "i=" << I;
    EXPECT_EQ(S.qubit(1, I), G.Qubits[1]) << "i=" << I;
  }
}

TEST(LifterTest, BreaksRunOnKindChange) {
  Circuit C(8);
  C.addCx(0, 1);
  C.addCx(1, 2);
  C.addCx(2, 3);
  C.add2Q(GateKind::CZ, 3, 4); // Kind change ends the run.
  C.add2Q(GateKind::CZ, 4, 5);
  C.add2Q(GateKind::CZ, 5, 6);
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 2u);
  EXPECT_EQ(AC.statement(0).Kind, GateKind::CX);
  EXPECT_EQ(AC.statement(1).Kind, GateKind::CZ);
}

TEST(LifterTest, BreaksRunOnAffineMismatch) {
  Circuit C(10);
  C.addCx(0, 1);
  C.addCx(2, 3);
  C.addCx(4, 5); // Stride (2, 2) run of 3.
  C.addCx(9, 2); // Does not extend it.
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 2u);
  EXPECT_EQ(AC.statement(0).TripCount, 3);
  EXPECT_EQ(AC.statement(1).TripCount, 1);
}

TEST(LifterTest, ShortRunsSplitToSingletons) {
  // Two gates with an accidental stride stay singletons under the default
  // MinRunLength of 3.
  Circuit C(6);
  C.addCx(0, 1);
  C.addCx(2, 3);
  C.add1Q(GateKind::H, 5);
  AffineCircuit AC = liftCircuit(C);
  EXPECT_EQ(AC.numStatements(), 3u);
  for (size_t S = 0; S < 3; ++S)
    EXPECT_EQ(AC.statement(S).TripCount, 1);
}

TEST(LifterTest, StatementsTileTheTrace) {
  Circuit C(12);
  for (int R = 0; R < 3; ++R) {
    for (int I = 0; I + 1 < 12; I += 2)
      C.addCx(I, I + 1);
    for (int I = 0; I < 12; ++I)
      C.add1Q(GateKind::H, I);
  }
  AffineCircuit AC = liftCircuit(C);
  EXPECT_EQ(static_cast<size_t>(AC.numGates()), C.size());
  int64_t Expected = 0;
  for (size_t S = 0; S < AC.numStatements(); ++S) {
    const MacroGate &M = AC.statement(S);
    EXPECT_EQ(M.Start, Expected);
    // Each instance's access functions give its trace gate's operands.
    for (int64_t I = 0; I < M.TripCount; ++I) {
      const Gate &G = C.gate(static_cast<size_t>(M.Start + I));
      EXPECT_EQ(M.Kind, G.Kind);
      for (unsigned K = 0; K < M.NumOperands; ++K)
        EXPECT_EQ(M.qubit(K, I), G.Qubits[K]) << "statement " << S;
    }
    Expected += M.TripCount;
  }
  EXPECT_EQ(Expected, AC.numGates());
}

TEST(LifterTest, CompressionOnRegularCircuit) {
  // A long GHZ chain compresses into very few statements.
  Circuit C(64);
  C.add1Q(GateKind::H, 0);
  for (int I = 0; I + 1 < 64; ++I)
    C.addCx(I, I + 1);
  AffineCircuit AC = liftCircuit(C);
  EXPECT_LE(AC.numStatements(), 3u);
  EXPECT_GT(AC.compressionRatio(), 20.0);
}

TEST(LifterTest, ZeroStrideRunOnFixedQubits) {
  Circuit C(2);
  for (int I = 0; I < 6; ++I)
    C.addCx(0, 1);
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 1u);
  EXPECT_EQ(AC.statement(0).Scale[0], 0);
  EXPECT_EQ(AC.statement(0).Scale[1], 0);
  EXPECT_EQ(AC.statement(0).TripCount, 6);
}

TEST(LifterTest, MinRunLengthBoundary) {
  // A run of exactly MinRunLength compresses; one gate shorter splits
  // into singletons. Default MinRunLength is 3.
  Circuit AtBoundary(8);
  AtBoundary.addCx(0, 1);
  AtBoundary.addCx(2, 3);
  AtBoundary.addCx(4, 5);
  AffineCircuit AC = liftCircuit(AtBoundary);
  ASSERT_EQ(AC.numStatements(), 1u);
  EXPECT_EQ(AC.statement(0).TripCount, 3);

  Circuit Below(8);
  Below.addCx(0, 1);
  Below.addCx(2, 3);
  AffineCircuit Split = liftCircuit(Below);
  EXPECT_EQ(Split.numStatements(), 2u);
}

TEST(LifterTest, MinRunLengthIsConfigurable) {
  // The threshold is the constant MinRunLength, whatever its value: a
  // stride run one gate shorter stays singletons, and a run of exactly
  // that length lifts to one statement.
  auto strideRun = [](int64_t Length) {
    Circuit C(static_cast<unsigned>(2 * Length));
    for (int32_t I = 0; I < Length; ++I)
      C.addCx(2 * I, 2 * I + 1);
    return C;
  };
  AffineCircuit Short = liftCircuit(strideRun(MinRunLength - 1));
  EXPECT_EQ(Short.numStatements(), static_cast<size_t>(MinRunLength - 1));
  AffineCircuit Run = liftCircuit(strideRun(MinRunLength));
  ASSERT_EQ(Run.numStatements(), 1u);
  EXPECT_EQ(Run.statement(0).TripCount, MinRunLength);
}

TEST(LifterTest, NegativeStridesLift) {
  // Descending CX ladder: both operands stride by -1.
  Circuit C(8);
  C.addCx(7, 6);
  C.addCx(6, 5);
  C.addCx(5, 4);
  C.addCx(4, 3);
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 1u);
  const MacroGate &S = AC.statement(0);
  EXPECT_EQ(S.TripCount, 4);
  EXPECT_EQ(S.Scale[0], -1);
  EXPECT_EQ(S.Offset[0], 7);
  EXPECT_EQ(S.Scale[1], -1);
  EXPECT_EQ(S.Offset[1], 6);
  EXPECT_EQ(S.qubit(0, 3), 4);
}

TEST(LifterTest, InterleavedMultiStatementPeriods) {
  // Three iterations of (CX ladder, H sweep): the lifter recovers one
  // statement per half-iteration, in schedule order, tiling the trace.
  Circuit C(6);
  for (int R = 0; R < 3; ++R) {
    for (int I = 0; I + 1 < 6; I += 2)
      C.addCx(I, I + 1);
    for (int I = 0; I < 6; ++I)
      C.add1Q(GateKind::H, I);
  }
  AffineCircuit AC = liftCircuit(C);
  ASSERT_EQ(AC.numStatements(), 6u);
  for (size_t S = 0; S < 6; ++S) {
    const MacroGate &M = AC.statement(S);
    if (S % 2 == 0) {
      EXPECT_EQ(M.Kind, GateKind::CX);
      EXPECT_EQ(M.TripCount, 3);
      EXPECT_EQ(M.Scale[0], 2);
    } else {
      EXPECT_EQ(M.Kind, GateKind::H);
      EXPECT_EQ(M.TripCount, 6);
      EXPECT_EQ(M.Scale[0], 1);
    }
  }
  EXPECT_EQ(static_cast<size_t>(AC.numGates()), C.size());
}

TEST(LifterTest, BarrieredQasmIsRejectedRecoverably) {
  // Regression: a barrier/measure in the input used to trip an assert in
  // the lifter; liftCircuit now tolerates the gates, and the routing front
  // door rejects them recoverably.
  std::ifstream In(QLOSURE_TEST_DATA_DIR "/barriered_ghz.qasm");
  ASSERT_TRUE(In.good());
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  qasm::ImportResult Imported =
      qasm::importQasm(Buffer.str(), "barriered-ghz");
  ASSERT_TRUE(Imported.succeeded()) << Imported.Error;
  const Circuit &Circ = *Imported.Circ;

  // liftCircuit no longer asserts: the trace still tiles completely.
  AffineCircuit AC = liftCircuit(Circ);
  EXPECT_EQ(static_cast<size_t>(AC.numGates()), Circ.size());

  // The routing front door rejects the same circuit recoverably.
  CouplingGraph Hw = makeLine(4);
  RoutingContext Ctx = RoutingContext::build(Circ, Hw);
  EXPECT_FALSE(Ctx.valid());

  // Stripping non-unitaries makes the routing path accept.
  Circuit Stripped = Circ.withoutNonUnitaries();
  EXPECT_TRUE(RoutingContext::build(Stripped, Hw).valid());
}

//===----------------------------------------------------------------------===//
// Access functions: the affine expressions q_k(i) = Scale[k] * i + Offset[k]
//===----------------------------------------------------------------------===//

TEST(AffineExprTest, EvaluateLinear) {
  MacroGate M;
  M.Kind = GateKind::CX;
  M.NumOperands = 2;
  M.TripCount = 5;
  M.Scale[0] = 3;
  M.Offset[0] = 1;
  M.Scale[1] = -2;
  M.Offset[1] = 9;
  EXPECT_EQ(M.qubit(0, 0), 1);
  EXPECT_EQ(M.qubit(1, 0), 9);
  EXPECT_EQ(M.qubit(0, 4), 13);
  EXPECT_EQ(M.qubit(1, 4), 1);
  // One step of i moves each operand by its scale.
  for (int64_t I = 0; I + 1 < M.TripCount; ++I) {
    EXPECT_EQ(M.qubit(0, I + 1) - M.qubit(0, I), 3);
    EXPECT_EQ(M.qubit(1, I + 1) - M.qubit(1, I), -2);
  }
}

TEST(AffineExprTest, ToStringReadable) {
  // The paper's example: q1 = [i] -> [i], q2 = [i] -> [2i + 1].
  AffineCircuit AC = liftCircuit(paperTrace());
  ASSERT_EQ(AC.numStatements(), 1u);
  EXPECT_EQ(AC.statement(0).toString(), "cx S[i: 0..3] q[i], q[2*i+1] @t=0+i");

  // Constant, pure-scale and negative-offset access functions.
  MacroGate M;
  M.Kind = GateKind::CZ;
  M.NumOperands = 2;
  M.TripCount = 3;
  M.Start = 7;
  M.Scale[0] = 0;
  M.Offset[0] = 5;
  M.Scale[1] = -1;
  M.Offset[1] = -2;
  EXPECT_EQ(M.toString(), "cz S[i: 0..2] q[5], q[-1*i-2] @t=7+i");
  M.Offset[1] = 0;
  M.Scale[1] = 3;
  EXPECT_EQ(M.toString(), "cz S[i: 0..2] q[5], q[3*i] @t=7+i");
}
