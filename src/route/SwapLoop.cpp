//===- route/SwapLoop.cpp - The one-swap-at-a-time routing loop -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The swap loop's cold paths: construction and the forced escape's gate
// pick. The per-step primitives are inline in the header.
//
//===----------------------------------------------------------------------===//

#include "route/SwapLoop.h"

#include <algorithm>

using namespace qlosure;
using qlosure::detail::SwapLoopState;

SwapLoopState::SwapLoopState(const RoutingContext &Ctx,
                             const QubitMapping &Initial,
                             RoutingScratch &Scratch,
                             const CancellationToken *Cancel,
                             const LoopParams &Params, std::string RouterName)
    : Logical(Ctx.circuit()), Hw(Ctx.hardware()), S(Scratch), Params(Params),
      Tracker(Ctx.dag(), Scratch),
      Out(Logical, Hw, Initial, std::move(RouterName)),
      TieBreaker(Params.Seed), Cancel(Cancel) {
  S.ensurePhys(Hw.numQubits());
  S.Decay.assign(Logical.numQubits(), 1.0);
}

uint32_t SwapLoopState::oldestBlockedGate() const {
  uint32_t Oldest = UINT32_MAX;
  for (uint32_t G : Tracker.front())
    if (Logical.gate(G).isTwoQubit())
      Oldest = std::min(Oldest, G);
  assert(Oldest != UINT32_MAX && "stuck without a blocked 2Q gate");
  return Oldest;
}
