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

/// Rough memory footprint of one cached bundle: the gate list's allocated
/// bytes (the bundle shares the request's circuit, slack included), the
/// dependence DAG's own bytes (a context that failed validation has none)
/// and the per-gate weights. The weights count even before a route
/// computes them, so a bundle never outgrows the estimate it was inserted
/// with. A plain backend's adjacency and distances are not charged: the
/// server's backend pool keeps every plain variant, and every bundle on it
/// shares them. A calibrated graph is charged in full, error table
/// included: the pool drops error-aware variants once it is full, and a
/// client picks the calibration seed, so a bundle may be the last owner of
/// its graph. Close enough for byte-budget eviction; exactness is not the
/// point.
size_t estimateBytes(const Circuit &Circ, const CouplingGraph &Hw,
                     const RoutingContext &Ctx) {
  size_t Bytes = sizeof(CachedContext);
  Bytes += Circ.gates().capacity() * sizeof(Gate);
  if (Hw.hasErrorModel()) {
    size_t N = Hw.numQubits();
    Bytes += Hw.numEdges() * 2 * sizeof(unsigned) + N * 32; // Adjacency.
    Bytes += N * N * sizeof(uint32_t); // Hop distances.
    Bytes += Hw.errorModelBytes(); // Edge-error rates.
  }
  if (Ctx.valid())
    Bytes += Ctx.dag().memoryBytes();
  Bytes += Circ.size() * sizeof(uint64_t); // Omega, once a route reads it.
  return Bytes;
}

} // namespace

std::shared_ptr<const CachedContext>
CachedContext::build(std::shared_ptr<const Circuit> Circ,
                     std::shared_ptr<const CouplingGraph> Hw, Trace *T) {
  // The bundle shares ownership of both inputs, so the context's
  // references stay valid for as long as the bundle lives.
  auto Bundle = std::shared_ptr<CachedContext>(new CachedContext());
  Bundle->Circ = std::move(Circ);
  Bundle->Hw = std::move(Hw);
  Bundle->Ctx.emplace(RoutingContext::build(*Bundle->Circ, *Bundle->Hw, {}, T));
  Bundle->Bytes = estimateBytes(*Bundle->Circ, *Bundle->Hw, *Bundle->Ctx);
  return Bundle;
}
