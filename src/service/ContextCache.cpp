//===- service/ContextCache.cpp - Sharded routing-state caches -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ContextCache.h"

#include "circuit/Dag.h"

using namespace qlosure;
using namespace qlosure::service;

namespace {

/// Rough memory footprint of one cached bundle: the gate list, the
/// adjacency lists, the distance matrix, the edge-error table of a
/// calibrated graph, the dependence DAG's own bytes (a context that failed
/// validation has none) and the per-gate weights. The weights count even
/// before a route computes them, so a bundle never outgrows the estimate
/// it was inserted with. Close enough for byte-budget eviction; exactness
/// is not the point.
size_t estimateBytes(const Circuit &Circ, const CouplingGraph &Hw,
                     const RoutingContext &Ctx) {
  size_t N = Hw.numQubits();
  size_t Bytes = sizeof(CachedContext);
  Bytes += Circ.size() * sizeof(Gate);
  Bytes += Hw.numEdges() * 2 * sizeof(unsigned) + N * 32;
  Bytes += N * N * sizeof(uint32_t); // Hop distances.
  Bytes += Hw.errorModelBytes(); // Edge-error rates, one per adjacency slot.
  if (Ctx.valid())
    Bytes += Ctx.dag().memoryBytes();
  Bytes += Circ.size() * sizeof(uint64_t); // Omega, once a route reads it.
  return Bytes;
}

} // namespace

std::shared_ptr<const CachedContext>
CachedContext::build(const Circuit &Circ, const CouplingGraph &Hw, Trace *T) {
  // The bundle owns copies; the context is built against those copies'
  // stable heap addresses (shared_ptr control block pins them).
  auto Bundle = std::shared_ptr<CachedContext>(new CachedContext());
  Bundle->Circ = Circ;
  Bundle->Hw = Hw;
  Bundle->Ctx.emplace(RoutingContext::build(Bundle->Circ, Bundle->Hw, {}, T));
  Bundle->Bytes = estimateBytes(Bundle->Circ, Bundle->Hw, *Bundle->Ctx);
  return Bundle;
}
