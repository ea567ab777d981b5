//===- circuit/Circuit.cpp - Quantum circuit IR ------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "circuit/Circuit.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace qlosure;

void Circuit::addGate(const Gate &G) {
  unsigned N = G.numQubits();
  for (unsigned I = 0; I < N; ++I) {
    assert(G.Qubits[I] >= 0 &&
           G.Qubits[I] < static_cast<int32_t>(NumQubits) &&
           "gate operand out of range");
    for (unsigned J = I + 1; J < N; ++J)
      assert(G.Qubits[I] != G.Qubits[J] && "repeated gate operand");
  }
  Gates.push_back(G);
}

size_t Circuit::numTwoQubitGates() const {
  size_t Count = 0;
  for (const Gate &G : Gates)
    if (G.isTwoQubit())
      ++Count;
  return Count;
}

size_t Circuit::numSwapGates() const {
  size_t Count = 0;
  for (const Gate &G : Gates)
    if (G.isSwap())
      ++Count;
  return Count;
}

size_t Circuit::numQuantumOps() const {
  size_t Count = 0;
  for (const Gate &G : Gates)
    if (G.Kind != GateKind::Barrier && G.Kind != GateKind::Measure)
      ++Count;
  return Count;
}

size_t Circuit::depth(SwapCostModel Model) const {
  // ASAP levels per qubit wire; barriers synchronize the qubits they touch
  // but cost nothing.
  std::vector<size_t> WireLevel(NumQubits, 0);
  size_t Depth = 0;
  for (const Gate &G : Gates) {
    unsigned N = G.numQubits();
    size_t Level = 0;
    for (unsigned I = 0; I < N; ++I)
      Level = std::max(Level, WireLevel[static_cast<size_t>(G.Qubits[I])]);
    size_t Cost = 1;
    if (G.Kind == GateKind::Barrier)
      Cost = 0;
    else if (G.isSwap() && Model == SwapCostModel::SwapAsThreeCx)
      Cost = 3;
    Level += Cost;
    for (unsigned I = 0; I < N; ++I)
      WireLevel[static_cast<size_t>(G.Qubits[I])] = Level;
    Depth = std::max(Depth, Level);
  }
  return Depth;
}

Circuit Circuit::withoutNonUnitaries() const {
  Circuit Result(NumQubits, Name);
  Result.Gates.reserve(Gates.size());
  for (const Gate &G : Gates)
    if (G.Kind != GateKind::Barrier && G.Kind != GateKind::Measure)
      Result.Gates.push_back(G);
  return Result;
}

Circuit Circuit::decomposeThreeQubitGates() const {
  Circuit Result(NumQubits, Name);
  Result.Gates.reserve(Gates.size()); // Exact without three-qubit gates.
  for (const Gate &G : Gates) {
    if (G.Kind == GateKind::CCX) {
      int32_t A = G.Qubits[0], B = G.Qubits[1], C = G.Qubits[2];
      // Standard Toffoli decomposition: 6 CX + 7 single-qubit gates.
      Result.add1Q(GateKind::H, C);
      Result.addCx(B, C);
      Result.add1Q(GateKind::Tdg, C);
      Result.addCx(A, C);
      Result.add1Q(GateKind::T, C);
      Result.addCx(B, C);
      Result.add1Q(GateKind::Tdg, C);
      Result.addCx(A, C);
      Result.add1Q(GateKind::T, B);
      Result.add1Q(GateKind::T, C);
      Result.add1Q(GateKind::H, C);
      Result.addCx(A, B);
      Result.add1Q(GateKind::T, A);
      Result.add1Q(GateKind::Tdg, B);
      Result.addCx(A, B);
      continue;
    }
    if (G.Kind == GateKind::CSwap) {
      int32_t A = G.Qubits[0], B = G.Qubits[1], C = G.Qubits[2];
      // Fredkin via CX + Toffoli, then recurse on the Toffoli.
      Result.addCx(C, B);
      Circuit Toffoli(NumQubits);
      Toffoli.addGate(Gate(GateKind::CCX, A, B, C));
      Circuit Decomposed = Toffoli.decomposeThreeQubitGates();
      for (const Gate &Sub : Decomposed.gates())
        Result.Gates.push_back(Sub);
      Result.addCx(C, B);
      continue;
    }
    Result.Gates.push_back(G);
  }
  return Result;
}

void Circuit::verifyInvariants() const {
  for (const Gate &G : Gates) {
    unsigned N = G.numQubits();
    for (unsigned I = 0; I < N; ++I) {
      if (G.Qubits[I] < 0 || G.Qubits[I] >= static_cast<int32_t>(NumQubits))
        reportFatalError("circuit invariant violated: operand out of range in " +
                         G.toString());
      for (unsigned J = I + 1; J < N; ++J)
        if (G.Qubits[I] == G.Qubits[J])
          reportFatalError("circuit invariant violated: repeated operand in " +
                           G.toString());
    }
  }
}
