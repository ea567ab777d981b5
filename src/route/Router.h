//===- route/Router.h - Router interface --------------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface implemented by Qlosure and the four baseline
/// mappers, plus the RoutingResult bundle the evaluation harness consumes.
///
/// Threading/ownership contract: Router instances are stateless with
/// respect to routing — one instance may serve concurrent route() calls
/// from many threads. Each concurrent call needs its own RoutingScratch
/// (single-threaded, see RoutingScratch.h) and may share one immutable
/// RoutingContext (thread-safe after build, see RoutingContext.h). The
/// optional CancellationToken is the only channel through which another
/// thread may influence a route in flight: its owner keeps it alive for
/// the duration of the call and may cancel() from any thread; routers
/// only poll it and never retain it.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_ROUTE_ROUTER_H
#define QLOSURE_ROUTE_ROUTER_H

#include "circuit/Circuit.h"
#include "route/Cancellation.h"
#include "route/QubitMapping.h"
#include "route/RoutingContext.h"
#include "route/RoutingScratch.h"
#include "support/Error.h"
#include "topology/CouplingGraph.h"

#include <cstdint>
#include <string>
#include <vector>

namespace qlosure {

/// Everything a routing run produces.
struct RoutingResult {
  /// The physical circuit: original gates rewritten to physical operands,
  /// interleaved with inserted SWAPs, in execution order.
  Circuit Routed;

  /// Flags aligned with Routed.gates(): true for router-inserted SWAPs
  /// (original program SWAPs stay false).
  std::vector<uint8_t> InsertedSwapFlags;

  QubitMapping InitialMapping;
  QubitMapping FinalMapping;

  size_t NumSwaps = 0;        ///< Inserted SWAPs only.
  double MappingSeconds = 0;  ///< Wall-clock routing time.
  /// Set by QMAP when its search spent QmapAstarRouter::ExpansionBudget
  /// and completed the remaining layers greedily.
  bool TimedOut = false;
  /// Set when the route aborted because its CancellationToken fired
  /// (explicit cancel or deadline). Routed then holds only the prefix
  /// emitted before the abort: a syntactically valid circuit, but NOT a
  /// complete routing of the input — never verify, cache, or execute it.
  /// Consult the token's reason() to distinguish the two causes.
  bool Cancelled = false;
  std::string RouterName;

  /// Affine fast-path accounting (Qlosure with AffineReplay only; zero
  /// everywhere else). Periods of the detected loop region routed by
  /// replaying a recorded swap schedule vs. by the scalar kernel; the two
  /// sum to at most the region's period count (prologue and tail gates
  /// are outside either bucket).
  size_t AffineReplayedPeriods = 0;
  size_t AffineFallbackPeriods = 0;

  /// Depth of the routed circuit under \p Model.
  size_t routedDepth(SwapCostModel Model = SwapCostModel::SwapAsOneGate) const {
    return Routed.depth(Model);
  }
};

/// The version of the routing semantics. A change that moves a routed byte
/// of any mapper bumps it: GoldenRouteTest fails on such a change and says
/// so. The service's result, alias and store keys carry it
/// (service/RequestKey.h), so a daemon restarted on a store written by
/// older code routes again instead of serving the old code's routes.
constexpr uint32_t RoutingSemanticsVersion = 3;

/// Abstract qubit mapper. Implementations must accept any connected
/// coupling graph and any circuit whose gates are unitary with arity <= 2
/// and numQubits() <= Hw.numQubits().
///
/// Implementations are *stateless* with respect to routing: route() never
/// mutates the router (options are fixed at construction, per-run RNG
/// state is local to the call), so one instance may route many contexts
/// from many threads concurrently.
class Router {
public:
  virtual ~Router();

  /// Human-readable mapper name (used in result tables).
  virtual std::string name() const = 0;

  /// The primary entry point: routes \p Ctx's circuit onto \p Ctx's
  /// device starting from \p Initial, reusing every precomputed structure
  /// the context carries and every buffer \p Scratch carries. \p Ctx must
  /// be valid(); \p Scratch must not be in use by a concurrent route()
  /// call (one scratch per thread — see RoutingScratch.h). Routing many
  /// circuits through one scratch keeps the inner loop allocation-free.
  ///
  /// \p Cancel (nullable) is the cooperative cancellation token:
  /// implementations poll it once per front-layer step (and every few A*
  /// expansions) and, when it fires, return immediately with
  /// RoutingResult::Cancelled set and only the already-emitted prefix in
  /// Routed. A null token costs nothing and never alters the decision
  /// sequence — cancelled-free runs are byte-identical with and without
  /// one. Implementations also forward execution progress to the token
  /// (reportProgress), which is a no-op unless the caller installed a
  /// sink.
  virtual RoutingResult route(const RoutingContext &Ctx,
                              const QubitMapping &Initial,
                              RoutingScratch &Scratch,
                              const CancellationToken *Cancel) = 0;

  /// Non-cancellable adapter: the pre-cancellation scratch entry point.
  RoutingResult route(const RoutingContext &Ctx, const QubitMapping &Initial,
                      RoutingScratch &Scratch) {
    return route(Ctx, Initial, Scratch, nullptr);
  }

  /// Convenience adapter for one-shot callers: routes through a local
  /// scratch (buffer reuse within the run, none across runs). Prefer the
  /// scratch overload in sweeps and batch drivers.
  RoutingResult route(const RoutingContext &Ctx, const QubitMapping &Initial);

  /// Thin adapter for one-shot callers: builds a default context
  /// internally and routes through it. Prefer building one
  /// RoutingContext and reusing it when routing the same (circuit,
  /// backend) pair more than once.
  RoutingResult route(const Circuit &Logical, const CouplingGraph &Hw,
                      const QubitMapping &Initial);

  /// Convenience overloads starting from the identity placement (the
  /// paper's default for all mapper comparisons).
  RoutingResult routeWithIdentity(const Circuit &Logical,
                                  const CouplingGraph &Hw);
  RoutingResult routeWithIdentity(const RoutingContext &Ctx);
  RoutingResult routeWithIdentity(const RoutingContext &Ctx,
                                  RoutingScratch &Scratch);

  /// Recoverable precondition check: combines the context's build status
  /// with the initial-mapping arity/consistency checks. Batch drivers call
  /// this before route() to report bad inputs instead of aborting.
  static Status validate(const RoutingContext &Ctx,
                         const QubitMapping &Initial);

  /// Inert: perfbench/Layers.cpp builds its contexts through this call on
  /// the pass that reports ctx.omega_affine_frac and ctx.omega_compression.
  RoutingContextOptions contextOptions() const { return {}; }

protected:
  /// Fatal wrapper over validate() for direct route() calls, where a
  /// violated precondition is a caller bug.
  static void checkPreconditions(const RoutingContext &Ctx,
                                 const QubitMapping &Initial);
};

} // namespace qlosure

#endif // QLOSURE_ROUTE_ROUTER_H
