//===- core/RoutingLoop.h - The Qlosure routing kernel ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scratch-backed main loop behind QlosureRouter::route, exposed as a
/// class so the affine replay driver (route/ReplayPlan.h) can observe its
/// emissions and drive it period-by-period. Without a driver attached
/// every hook is a null check, and the decision sequence is the one the
/// golden digests (tests/GoldenRouteTest.cpp) pin.
///
/// The step state (the look-ahead window, its levels, per-layer gate
/// counts and base sums, and the scored-gate records) is built on a step
/// that follows executed gates and lives across the swap-only steps after
/// it: a SWAP leaves the front, the window and omega as they were, so
/// emitSwap patches only the records on its two qubits. Only the gates
/// hosted on a candidate's two qubits contribute per-candidate term
/// deltas; the deltas land in layer-major SoA lanes and Eq. 2 is then
/// evaluated element-wise across all candidates at once.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_CORE_ROUTINGLOOP_H
#define QLOSURE_CORE_ROUTINGLOOP_H

#include "core/Qlosure.h"
#include "route/FrontLayer.h"
#include "support/Random.h"

namespace qlosure {

class ReplayDriver;

namespace detail {

/// Routing state shared by the helper methods of the main loop. All
/// mutable buffers live in the caller's RoutingScratch.
class RoutingLoop {
public:
  RoutingLoop(const QlosureOptions &Options, const RoutingContext &Ctx,
              const QubitMapping &Initial, RoutingScratch &Scratch,
              const CancellationToken *Cancel);

  /// Attaches the affine replay driver for this run. Null (the default)
  /// is the plain scalar kernel; the observer hooks then cost one branch
  /// each and never perturb the decisions.
  void setReplayDriver(ReplayDriver *Driver) { Replay = Driver; }

  /// Routes to completion (or cancellation) and returns the result.
  RoutingResult run();

private:
  // The replay driver is the kernel's alter ego: it replays recorded
  // emission schedules through the private emit/execute primitives and
  // re-synchronizes the decision state (decay, progress counter, RNG)
  // exactly as the scalar loop would have evolved it.
  friend class qlosure::ReplayDriver;

  bool executeReadyGates();
  bool isExecutable(uint32_t GateId) const;
  void emitProgramGate(uint32_t GateId);
  void emitSwap(unsigned P1, unsigned P2);
  void routeOneSwap();
  void forceResolveOldestGate();
  void buildWindowLayers();
  void scoreCandidates();

  // --- Replay primitives (driver-only) ---------------------------------

  /// Emits trace gate \p GateId through the current mapping and executes
  /// it, or returns false when it is not currently executable (not in the
  /// front layer, or two-qubit operands not adjacent) — the replay must
  /// then stop and let the scalar loop resume from this exact state.
  bool replayEmitGate(uint32_t GateId);

  /// Re-applies a recorded SWAP (P1, P2 are physical indices).
  void replayEmitSwap(unsigned P1, unsigned P2);

  /// Restores the post-progress decision state (decay vector all ones,
  /// progress counter zero) — what executeReadyGates leaves behind after
  /// any pass that executed a gate.
  void replayResetProgress();

  const QlosureOptions &Options;
  const Circuit &Logical;
  const CouplingGraph &Hw;
  RoutingScratch &S;
  FrontLayerTracker Tracker;
  QubitMapping Phi;
  Rng TieBreaker;
  const CancellationToken *Cancel = nullptr;
  const std::vector<uint64_t> *Weights = nullptr;
  ReplayDriver *Replay = nullptr;
  unsigned LookaheadC = 0;
  unsigned SwapsSinceProgress = 0;
  /// Tracker.numExecuted() when buildWindowLayers last ran. The step state
  /// is valid while no gate has executed since; it starts invalid.
  size_t StepBuiltAt = SIZE_MAX;
  /// Error-aware mode on a calibrated graph: among exactly tied best
  /// candidates, keep only those on the least noisy coupler.
  bool BreakTiesByEdgeError = false;

  RoutingResult Result;
};

} // namespace detail
} // namespace qlosure

#endif // QLOSURE_CORE_ROUTINGLOOP_H
