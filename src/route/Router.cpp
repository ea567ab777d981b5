//===- route/Router.cpp - Router interface --------------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "route/Router.h"

#include "support/Error.h"
#include "support/StringUtils.h"

using namespace qlosure;

Router::~Router() = default;

RoutingResult Router::route(const RoutingContext &Ctx,
                            const QubitMapping &Initial) {
  RoutingScratch Scratch;
  return route(Ctx, Initial, Scratch);
}

RoutingResult Router::route(const Circuit &Logical, const CouplingGraph &Hw,
                            const QubitMapping &Initial) {
  RoutingContext Ctx = RoutingContext::build(Logical, Hw);
  return route(Ctx, Initial);
}

RoutingResult Router::routeWithIdentity(const Circuit &Logical,
                                        const CouplingGraph &Hw) {
  RoutingContext Ctx = RoutingContext::build(Logical, Hw);
  return routeWithIdentity(Ctx);
}

RoutingResult Router::routeWithIdentity(const RoutingContext &Ctx) {
  return route(Ctx, Ctx.identityMapping());
}

RoutingResult Router::routeWithIdentity(const RoutingContext &Ctx,
                                        RoutingScratch &Scratch) {
  return route(Ctx, Ctx.identityMapping(), Scratch);
}

Status Router::validate(const RoutingContext &Ctx,
                        const QubitMapping &Initial) {
  if (!Ctx.valid())
    return Ctx.status();
  if (Initial.numLogical() != Ctx.circuit().numQubits() ||
      Initial.numPhysical() != Ctx.hardware().numQubits())
    return Status::error(formatString(
        "initial mapping arity mismatch: mapping is %u -> %u but circuit "
        "%s has %u qubits on device %s with %u",
        Initial.numLogical(), Initial.numPhysical(),
        Ctx.circuit().name().c_str(), Ctx.circuit().numQubits(),
        Ctx.hardware().name().c_str(), Ctx.hardware().numQubits()));
  if (!Initial.isConsistent())
    return Status::error("initial mapping is not a consistent injective "
                         "placement");
  return Status::success();
}

void Router::checkPreconditions(const RoutingContext &Ctx,
                                const QubitMapping &Initial) {
  Status S = validate(Ctx, Initial);
  if (!S.ok())
    reportFatalError(S);
}
