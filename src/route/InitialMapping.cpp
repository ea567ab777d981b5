//===- route/InitialMapping.cpp - Initial placement strategies -------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "route/InitialMapping.h"

using namespace qlosure;

Circuit qlosure::reverseCircuit(const Circuit &Circ) {
  Circuit Result(Circ.numQubits(), Circ.name() + ".rev");
  for (size_t GI = Circ.size(); GI-- > 0;)
    Result.addGate(Circ.gate(GI));
  return Result;
}

QubitMapping qlosure::deriveBidirectionalMapping(Router &R,
                                                 const Circuit &Circ,
                                                 const CouplingGraph &Hw,
                                                 unsigned NumPasses) {
  RoutingContext Ctx = RoutingContext::build(Circ, Hw);
  return deriveBidirectionalMapping(R, Ctx, NumPasses);
}

QubitMapping qlosure::deriveBidirectionalMapping(Router &R,
                                                 const RoutingContext &Ctx,
                                                 unsigned NumPasses,
                                                 RoutingScratch *Scratch,
                                                 const CancellationToken
                                                     *Cancel) {
  QubitMapping Mapping = Ctx.identityMapping();
  Circuit Reversed = reverseCircuit(Ctx.circuit());
  RoutingContext ReversedCtx = RoutingContext::build(Reversed, Ctx.hardware());
  RoutingScratch Local;
  RoutingScratch &S = Scratch ? *Scratch : Local;
  for (unsigned Pass = 0; Pass < NumPasses; ++Pass) {
    RoutingResult Forward = R.route(Ctx, Mapping, S, Cancel);
    if (Forward.Cancelled)
      break;
    RoutingResult Backward =
        R.route(ReversedCtx, Forward.FinalMapping, S, Cancel);
    if (Backward.Cancelled)
      break;
    Mapping = Backward.FinalMapping;
  }
  return Mapping;
}
