//===- route/RoutingContext.h - Shared per-run precomputation ----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The immutable, shareable precomputation bundle behind every routing run:
/// one RoutingContext owns (or references) everything derivable from a
/// (circuit, backend) pair alone — the coupling graph with its all-pairs
/// distance matrix, the gate dependence DAG, the transitive-dependence
/// weights omega, and the device constants (max degree, default look-ahead).
/// Build it once, then route with any number of mappers, from any number of
/// threads, without re-deriving any of it: this is the memoization layer
/// that keeps batch sweeps and repeated routings of the same circuit from
/// paying the O(V^2) precomputation cost per call.
///
/// Threading/ownership contract: after build() returns, every accessor
/// is safe to call concurrently from any number of threads; nothing here
/// is ever mutated again (share by const reference). The one lazily
/// computed member (dependenceWeights) is guarded by std::call_once, so
/// mappers that never read omega never pay for it and concurrent first
/// readers race safely. The context *references* the circuit and graph
/// it was built from — the caller keeps both alive for the context's
/// lifetime (service/ContextCache bundles copies for exactly this
/// reason).
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_ROUTE_ROUTINGCONTEXT_H
#define QLOSURE_ROUTE_ROUTINGCONTEXT_H

#include "circuit/Circuit.h"
#include "circuit/Dag.h"
#include "deps/TransitiveWeights.h"
#include "route/QubitMapping.h"
#include "support/Error.h"
#include "topology/CouplingGraph.h"

#include <memory>
#include <mutex>
#include <vector>

namespace qlosure {

struct PeriodStructure;
class ReplayPlanCache;
class Trace;

/// Inert: perfbench/Layers.cpp (ctx.omega_affine_frac, ctx.omega_compression).
struct RoutingContextOptions {};

/// Immutable per-(circuit, backend) routing state. Movable, not copyable;
/// share by const reference.
class RoutingContext {
public:
  /// Builds a context for routing \p Logical onto \p Hw. Both referents
  /// must outlive the context. When \p Hw is missing a distance matrix the
  /// context computes one on a private copy of the graph (the caller's
  /// graph is never mutated); graphs from topology/Backends arrive with
  /// distances precomputed and are referenced directly.
  ///
  /// Malformed inputs (more circuit qubits than device qubits,
  /// disconnected device, gates of arity > 2, barriers/measures) do not
  /// abort: the returned context carries an error status() and must not be
  /// routed with.
  ///
  /// When a request trace \p T is supplied, the expensive construction
  /// phases record spans (ctx_distances — the O(V^2) APSP derivation when
  /// the graph arrives without a distance matrix — and ctx_dag). The
  /// options are inert: perfbench/Layers.cpp passes them on the pass that
  /// reports ctx.omega_affine_frac and ctx.omega_compression.
  static RoutingContext build(const Circuit &Logical, const CouplingGraph &Hw,
                              RoutingContextOptions = {}, Trace *T = nullptr);

  RoutingContext(RoutingContext &&) = default;
  RoutingContext &operator=(RoutingContext &&) = default;
  RoutingContext(const RoutingContext &) = delete;
  RoutingContext &operator=(const RoutingContext &) = delete;

  /// Success, or why this (circuit, backend) pair cannot be routed.
  const Status &status() const { return BuildStatus; }
  bool valid() const { return BuildStatus.ok(); }

  const Circuit &circuit() const { return *Logical; }
  const CouplingGraph &hardware() const { return *Hw; }
  const CircuitDag &dag() const { return *Dag; }

  /// Cached CouplingGraph::maxDegree().
  unsigned maxDegree() const { return MaxDegree; }

  /// Qlosure's look-ahead constant c = 2 * maxDegree + 2
  /// (strictly exceeds the maximum degree, as Sec. IV requires).
  unsigned defaultLookahead() const { return 2 * MaxDegree + 2; }

  /// Transitive-dependence weights omega, one per gate, computed on first
  /// use and memoized for every later reader (any mapper, any thread).
  const std::vector<uint64_t> &dependenceWeights() const;

  /// The memoized omega computation with its inert engine fields, which
  /// perfbench/Layers.cpp reads for ctx.omega_affine_frac and
  /// ctx.omega_compression.
  const WeightResult &dependenceWeightResult() const;

  /// Detected loop structure of the circuit (affine/PeriodDetector.h), or
  /// null when the trace has none. Lifted and detected on first use,
  /// memoized for every later reader — service-cached contexts pay for
  /// detection once per circuit fingerprint.
  const PeriodStructure *periodStructure() const;

  /// The context's shared replay-plan store (route/ReplayPlan.h): swap
  /// schedules recorded by one route() call replay in any later call over
  /// this context with a matching configuration, from any thread.
  ReplayPlanCache &replayPlanCache() const;

  /// Identity placement over this context's circuit and device.
  QubitMapping identityMapping() const {
    return QubitMapping::identity(Logical->numQubits(), Hw->numQubits());
  }

private:
  RoutingContext() = default;

  /// Lazily computed members live behind a stable heap address so the
  /// context stays movable despite std::once_flag being pinned.
  struct LazyState {
    std::once_flag WeightsOnce;
    WeightResult Weights;
    std::once_flag AffineOnce;
    /// Null after detection when the circuit has no loop structure.
    /// shared_ptr so the header needs only a forward declaration.
    std::shared_ptr<PeriodStructure> Affine;
    std::once_flag PlansOnce;
    std::shared_ptr<ReplayPlanCache> Plans;
  };

  const Circuit *Logical = nullptr;
  const CouplingGraph *Hw = nullptr;
  /// Set when build() had to derive the distance matrix itself; Hw then
  /// points here instead of at the caller's graph.
  std::unique_ptr<CouplingGraph> OwnedHw;
  std::unique_ptr<CircuitDag> Dag;
  std::unique_ptr<LazyState> Lazy;
  unsigned MaxDegree = 0;
  Status BuildStatus;
};

} // namespace qlosure

#endif // QLOSURE_ROUTE_ROUTINGCONTEXT_H
