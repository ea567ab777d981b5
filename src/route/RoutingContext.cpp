//===- route/RoutingContext.cpp - Shared per-run precomputation ----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "route/RoutingContext.h"

#include "affine/PeriodDetector.h"
#include "route/ReplayPlan.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

using namespace qlosure;

RoutingContext RoutingContext::build(const Circuit &Logical,
                                     const CouplingGraph &Hw,
                                     RoutingContextOptions, Trace *T) {
  RoutingContext Ctx;
  Ctx.Logical = &Logical;
  Ctx.Hw = &Hw;
  Ctx.Lazy = std::make_unique<LazyState>();

  // Recoverable input validation: a bad (circuit, backend) pair yields an
  // error-status context a batch sweep can record and skip.
  if (Logical.numQubits() > Hw.numQubits()) {
    Ctx.BuildStatus = Status::error(formatString(
        "circuit %s has %u qubits but device %s only has %u",
        Logical.name().c_str(), Logical.numQubits(), Hw.name().c_str(),
        Hw.numQubits()));
    return Ctx;
  }
  if (!Hw.isConnected()) {
    Ctx.BuildStatus = Status::error(
        formatString("device %s is disconnected; routing requires every "
                     "qubit pair to be reachable",
                     Hw.name().c_str()));
    return Ctx;
  }
  for (const Gate &G : Logical.gates()) {
    if (G.Kind == GateKind::Barrier || G.Kind == GateKind::Measure) {
      Ctx.BuildStatus = Status::error(formatString(
          "circuit %s contains barriers/measures; strip them before "
          "routing (Circuit::withoutNonUnitaries)",
          Logical.name().c_str()));
      return Ctx;
    }
    if (G.numQubits() > 2) {
      Ctx.BuildStatus = Status::error(formatString(
          "circuit %s contains a %u-qubit gate; decompose to arity <= 2 "
          "before routing (Circuit::decomposeThreeQubitGates)",
          Logical.name().c_str(), G.numQubits()));
      return Ctx;
    }
  }

  // Distance matrix: reference the caller's graph when it already has
  // one; otherwise derive it once on a private copy. Either way no later
  // route() call recomputes it.
  if (!Hw.hasDistances()) {
    ScopedSpan Span(T, "ctx_distances");
    Ctx.OwnedHw = std::make_unique<CouplingGraph>(Hw);
    Ctx.OwnedHw->computeDistances();
    Ctx.Hw = Ctx.OwnedHw.get();
  }

  Ctx.MaxDegree = Ctx.Hw->maxDegree();
  {
    ScopedSpan Span(T, "ctx_dag");
    Ctx.Dag = std::make_unique<CircuitDag>(Logical);
  }
  return Ctx;
}

const std::vector<uint64_t> &RoutingContext::dependenceWeights() const {
  std::call_once(Lazy->WeightsOnce, [this] {
    Lazy->Weights = computeDependenceWeights(*Logical);
  });
  return Lazy->Weights.Weights;
}

const WeightResult &RoutingContext::dependenceWeightResult() const {
  dependenceWeights(); // Ensure the memoized computation ran.
  return Lazy->Weights;
}

const PeriodStructure *RoutingContext::periodStructure() const {
  std::call_once(Lazy->AffineOnce, [this] {
    if (std::optional<PeriodStructure> Found = detectPeriod(*Logical))
      Lazy->Affine = std::make_shared<PeriodStructure>(std::move(*Found));
  });
  return Lazy->Affine.get();
}

ReplayPlanCache &RoutingContext::replayPlanCache() const {
  std::call_once(Lazy->PlansOnce,
                 [this] { Lazy->Plans = std::make_shared<ReplayPlanCache>(); });
  return *Lazy->Plans;
}
