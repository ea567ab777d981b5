//===- circuit/Dag.cpp - Circuit dependence DAG -------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "circuit/Dag.h"

#include <algorithm>
#include <cassert>

using namespace qlosure;

CircuitDag::CircuitDag(const Circuit &C) {
  size_t N = C.size();
  TwoQubit.resize(N);
  PredOff.resize(N + 1);
  SuccOff.assign(N + 1, 0);
  size_t MaxEdges = 0;
  for (const Gate &G : C.gates())
    MaxEdges += G.numQubits();
  PredIdx.reserve(MaxEdges);

  // Predecessors in program order: the last gate seen on each operand's
  // wire, once. Successor counts accumulate one slot ahead (SuccOff[P + 1])
  // for the prefix sum below.
  constexpr uint32_t None = UINT32_MAX;
  std::vector<uint32_t> LastOnWire(C.numQubits(), None);
  for (size_t GI = 0; GI < N; ++GI) {
    const Gate &G = C.gate(GI);
    TwoQubit[GI] = G.isTwoQubit();
    PredOff[GI] = static_cast<uint32_t>(PredIdx.size());
    unsigned NQ = G.numQubits();
    for (unsigned Q = 0; Q < NQ; ++Q) {
      uint32_t &Last = LastOnWire[static_cast<size_t>(G.Qubits[Q])];
      // Avoid duplicate edges when two operands last met the same gate.
      if (Last != None &&
          std::find(PredIdx.begin() + PredOff[GI], PredIdx.end(), Last) ==
              PredIdx.end()) {
        PredIdx.push_back(Last);
        ++SuccOff[Last + 1];
      }
      Last = static_cast<uint32_t>(GI);
    }
    if (PredIdx.size() == PredOff[GI])
      Roots.push_back(static_cast<uint32_t>(GI));
  }
  PredOff[N] = static_cast<uint32_t>(PredIdx.size());

  // Successors: prefix-sum the counts, scatter each edge at its source's
  // cursor (ascending targets, since targets are visited in order), then
  // shift the advanced cursors back into start offsets.
  for (size_t GI = 0; GI < N; ++GI)
    SuccOff[GI + 1] += SuccOff[GI];
  SuccIdx.resize(PredIdx.size());
  for (size_t GI = 0; GI < N; ++GI)
    for (uint32_t P : predecessors(GI))
      SuccIdx[SuccOff[P]++] = static_cast<uint32_t>(GI);
  for (size_t GI = N; GI > 0; --GI)
    SuccOff[GI] = SuccOff[GI - 1];
  SuccOff[0] = 0;
  assert(SuccOff[N] == SuccIdx.size() && "successor offsets out of step");
}

size_t CircuitDag::memoryBytes() const {
  auto bytesOf = [](const auto &V) {
    return V.capacity() * sizeof(V[0]);
  };
  return sizeof(*this) + bytesOf(SuccOff) + bytesOf(SuccIdx) +
         bytesOf(PredOff) + bytesOf(PredIdx) + bytesOf(Roots) +
         bytesOf(TwoQubit);
}
