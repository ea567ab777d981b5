//===- deps/TransitiveWeights.cpp - Dependence weight omega --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "deps/TransitiveWeights.h"

#include <algorithm>
#include <cassert>

using namespace qlosure;

/// Exact omega by one reverse sweep over the gates. If g reaches h, it
/// reaches every later gate on h's wires, so on each wire the gates g
/// reaches form a suffix. Counting each gate on its first operand's wire
/// only, omega(g) is the sum over wires of that suffix's count. A gate's
/// vector holds, per wire, the count of the suffix it and its dependents
/// cover; counts fall as the suffix starts later, so the union over g's
/// direct successors (the next gate on each of g's wires) is their
/// elementwise maximum. A vector lives while its gate is the next gate on
/// some wire, so at most numQubits + 1 vectors are live at once.
WeightResult qlosure::computeDependenceWeights(const Circuit &Circ) {
  assert(std::none_of(Circ.gates().begin(), Circ.gates().end(),
                      [](const Gate &G) {
                        return G.Kind == GateKind::Barrier ||
                               G.Kind == GateKind::Measure;
                      }) &&
         "omega is defined over unitary gates only");
  WeightResult Result;
  size_t N = Circ.size();
  size_t Q = Circ.numQubits();
  Result.Weights.resize(N);

  constexpr uint32_t None = UINT32_MAX;
  // Vector slots: Pool[Slot * Q, (Slot + 1) * Q), each referenced by the
  // wires whose next gate owns it.
  std::vector<uint32_t> Pool((Q + 1) * Q);
  std::vector<uint32_t> Refs(Q + 1, 0);
  std::vector<uint32_t> FreeSlots(Q + 1);
  for (uint32_t S = 0; S <= Q; ++S)
    FreeSlots[S] = static_cast<uint32_t>(Q - S);
  std::vector<uint32_t> NextSlot(Q, None); // Slot of the next gate per wire.
  // Per wire: the gates swept so far whose first operand it is.
  std::vector<uint32_t> FirstCount(Q, 0);

  for (size_t GI = N; GI-- > 0;) {
    const Gate &G = Circ.gate(GI);
    unsigned NQ = G.numQubits();
    uint32_t Slot = FreeSlots.back();
    FreeSlots.pop_back();
    uint32_t *Reach = Pool.data() + static_cast<size_t>(Slot) * Q;
    std::fill_n(Reach, Q, 0);
    for (unsigned K = 0; K < NQ; ++K) {
      uint32_t Next = NextSlot[static_cast<size_t>(G.Qubits[K])];
      if (Next == None)
        continue;
      const uint32_t *Succ = Pool.data() + static_cast<size_t>(Next) * Q;
      for (size_t W = 0; W < Q; ++W)
        Reach[W] = std::max(Reach[W], Succ[W]);
    }
    uint64_t Omega = 0;
    for (size_t W = 0; W < Q; ++W)
      Omega += Reach[W];
    Result.Weights[GI] = Omega;

    // g itself now heads the suffix on each of its wires.
    ++FirstCount[static_cast<size_t>(G.Qubits[0])];
    for (unsigned K = 0; K < NQ; ++K) {
      size_t W = static_cast<size_t>(G.Qubits[K]);
      Reach[W] = FirstCount[W];
      uint32_t &Next = NextSlot[W];
      if (Next != None && --Refs[Next] == 0)
        FreeSlots.push_back(Next);
      Next = Slot;
      ++Refs[Slot];
    }
  }
  return Result;
}
