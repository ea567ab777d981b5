//===- route/RouteWriter.h - The routed-output writer ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place a mapper appends to its RoutingResult. The writer owns
/// the placement phi and the result: a program gate is rewritten through
/// phi, an inserted SWAP updates it, and a walk moves a gate's first
/// operand along a shortest path until it is adjacent to the second.
/// Qlosure and the greedy baselines write through it from the shared
/// swap loop (route/SwapLoop.h); QMAP's A* search writes its swap
/// sequences and budget fallbacks through it directly.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_ROUTE_ROUTEWRITER_H
#define QLOSURE_ROUTE_ROUTEWRITER_H

#include "route/Router.h"

#include <string>
#include <utility>
#include <vector>

namespace qlosure {

/// Appends program gates and inserted SWAPs to one RoutingResult.
class RouteWriter {
public:
  RouteWriter(const Circuit &Logical, const CouplingGraph &Hw,
              const QubitMapping &Initial, std::string RouterName)
      : Hw(Hw), Phi(Initial) {
    Result.Routed = Circuit(Hw.numQubits(), Logical.name() + ".routed");
    Result.InitialMapping = Initial;
    Result.RouterName = std::move(RouterName);
  }

  /// The current placement.
  const QubitMapping &placement() const { return Phi; }
  unsigned physOf(int32_t Q) const {
    return static_cast<unsigned>(Phi.physOf(Q));
  }

  /// The result written so far (for its TimedOut and Cancelled flags).
  RoutingResult &result() { return Result; }

  /// Appends \p G with its operands mapped through the placement.
  void emitGate(const Gate &G) {
    Result.Routed.addGate(
        G.withMappedQubits([this](int32_t Q) { return Phi.physOf(Q); }));
    Result.InsertedSwapFlags.push_back(0);
  }

  /// Appends an inserted SWAP of physical qubits \p P1 and \p P2 and
  /// applies it to the placement.
  void emitSwap(unsigned P1, unsigned P2) {
    Result.Routed.addSwap(static_cast<int32_t>(P1), static_cast<int32_t>(P2));
    Result.InsertedSwapFlags.push_back(1);
    ++Result.NumSwaps;
    Phi.swapPhysical(static_cast<int32_t>(P1), static_cast<int32_t>(P2));
  }

  /// Makes the two-qubit gate \p G executable: moves its first operand
  /// down a shortest path until it is adjacent to the second, calling
  /// \p AfterSwap(P1, P2) after each SWAP it emits.
  template <typename Fn> void walkTogether(const Gate &G, Fn &&AfterSwap) {
    unsigned P1 = physOf(G.Qubits[0]);
    unsigned P2 = physOf(G.Qubits[1]);
    if (Hw.areAdjacent(P1, P2))
      return;
    std::vector<unsigned> Path = Hw.shortestPath(P1, P2);
    for (size_t I = 0; I + 2 < Path.size(); ++I) {
      emitSwap(Path[I], Path[I + 1]);
      AfterSwap(Path[I], Path[I + 1]);
    }
  }
  void walkTogether(const Gate &G) {
    walkTogether(G, [](unsigned, unsigned) {});
  }

  /// Records the final placement and the routing time, and hands the
  /// result over; the writer is spent afterwards.
  RoutingResult finish(double MappingSeconds) {
    Result.FinalMapping = Phi;
    Result.MappingSeconds = MappingSeconds;
    return std::move(Result);
  }

private:
  const CouplingGraph &Hw;
  QubitMapping Phi;
  RoutingResult Result;
};

} // namespace qlosure

#endif // QLOSURE_ROUTE_ROUTEWRITER_H
