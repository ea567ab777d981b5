//===- route/SwapLoop.h - The one-swap-at-a-time routing loop ----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1's greedy loop, written once for Qlosure and the SABRE-,
/// Cirq- and tket-style baselines: execute the ready front; otherwise
/// score the candidate SWAPs on the front's qubits and apply the best one;
/// after too many SWAPs without progress, walk the oldest blocked gate
/// along a shortest path. The loop owns the front tracker, the placement
/// and routed output (RouteWriter), the decay vector, the tie-break RNG,
/// the escape counter and the step-validity stamp. A kernel supplies only
/// what differs between the mappers (their look-ahead window and cost,
/// Table I of the paper):
///
///   void buildStep();          // the step state for the current front
///   void rederive(uint32_t J); // record J's terms after a SWAP moved it
///   size_t chooseSwap();       // scores S.Candidates, returns the pick
///   auto snapshot() const;     // assertion builds: the step state
///
/// The loop is a template over the kernel, so rederive inlines into the
/// per-record SWAP patch and no kernel call goes through a virtual.
///
/// Step reuse: the step state (the look-ahead window and the scored-gate
/// records, route/RoutingScratch.h) is built on a step that follows
/// executed gates and lives across the swap-only steps after it. A SWAP
/// leaves the front, the window and omega as they were, so emitSwap moves
/// only the records on its two qubits and re-derives their terms through
/// the kernel. In assertion builds every reused step is checked against a
/// rebuild. The golden digests (tests/GoldenRouteTest.cpp) pin the
/// decision sequence of every kernel.
///
/// Replay hooks: Qlosure's affine fast path (route/ReplayPlan.h) attaches
/// a ReplayDriver, which observes every emission and drives the loop's
/// primitives directly. Without one every hook is a single null check.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_ROUTE_SWAPLOOP_H
#define QLOSURE_ROUTE_SWAPLOOP_H

#include "route/FrontLayer.h"
#include "route/ReplayPlan.h"
#include "route/RouteWriter.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>

namespace qlosure {
namespace detail {

/// The per-mapper constants of the loop.
struct LoopParams {
  uint64_t Seed = 0;           ///< Tie-break RNG seed.
  double DecayIncrement = 0.0; ///< Per-SWAP decay of the moved qubits.
  /// SWAPs without an executed gate before the forced escape.
  unsigned MaxSwapsWithoutProgress = 64;
};

/// The loop's state and its kernel-independent primitives. Kernels read
/// the front, the placement and the scratch from it; the replay driver
/// drives the primitives directly. Both hold its address, so it never
/// copies or moves. The per-step primitives are inline, so each kernel's
/// loop compiles as one unit. A zero decay increment (Cirq, tket) skips
/// the decay work: every decay then stays 1.0.
class SwapLoopState {
public:
  SwapLoopState(const RoutingContext &Ctx, const QubitMapping &Initial,
                RoutingScratch &Scratch, const CancellationToken *Cancel,
                const LoopParams &Params, std::string RouterName);
  SwapLoopState(const SwapLoopState &) = delete;
  SwapLoopState &operator=(const SwapLoopState &) = delete;

  /// One cancellation poll and progress report. True, with the result
  /// marked cancelled, once the token fired; a null token costs one
  /// branch and never perturbs the decisions.
  bool cancelled() {
    if (!Cancel)
      return false;
    if (Cancel->cancelled()) {
      Out.result().Cancelled = true;
      return true;
    }
    Cancel->reportProgress(Tracker.numExecuted(), Logical.size());
    return false;
  }

  /// Executes the ready front in sorted order until nothing more is
  /// executable, then resets decay and the escape counter (Algorithm 1
  /// line 9). Returns true when it executed a gate.
  bool drain() {
    bool Progress = false;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      // Snapshot: execute() mutates the front.
      S.Ready.clear();
      for (uint32_t G : Tracker.front())
        if (isExecutable(G))
          S.Ready.push_back(G);
      std::sort(S.Ready.begin(), S.Ready.end()); // Deterministic order.
      for (uint32_t G : S.Ready) {
        executeGate(G);
        Changed = true;
        Progress = true;
      }
    }
    if (Progress)
      resetProgress();
    return Progress;
  }

  /// The decision state after progress: decay all ones, no SWAPs counted.
  void resetProgress() {
    if (Params.DecayIncrement != 0)
      std::fill(S.Decay.begin(), S.Decay.end(), 1.0);
    SwapsSinceProgress = 0;
  }

  bool isExecutable(uint32_t GateId) const {
    const Gate &G = Logical.gate(GateId);
    if (!G.isTwoQubit())
      return true;
    return Hw.areAdjacent(Out.physOf(G.Qubits[0]), Out.physOf(G.Qubits[1]));
  }

  /// Emits front gate \p GateId through the placement and executes it.
  void executeGate(uint32_t GateId) {
    Out.emitGate(Logical.gate(GateId));
    if (Replay)
      Replay->noteGateExecuted(GateId);
    Tracker.execute(GateId);
  }

  /// max(delta_q1, delta_q2): the larger decay of the logical qubits on
  /// \p P1 and \p P2 (an empty physical qubit reads 1.0).
  double maxDecay(unsigned P1, unsigned P2) const {
    int32_t L1 = Out.placement().logOf(static_cast<int32_t>(P1));
    int32_t L2 = Out.placement().logOf(static_cast<int32_t>(P2));
    double D1 = L1 >= 0 ? S.Decay[static_cast<size_t>(L1)] : 1.0;
    double D2 = L2 >= 0 ? S.Decay[static_cast<size_t>(L2)] : 1.0;
    return std::max(D1, D2);
  }

  /// Draws a tie-break index below \p Bound from the loop's RNG.
  uint64_t drawTie(size_t Bound) {
    uint64_t Draw = TieBreaker.nextBounded(Bound);
    if (Replay)
      Replay->noteDecision(Bound, Draw);
    return Draw;
  }

  const Circuit &Logical;
  const CouplingGraph &Hw;
  RoutingScratch &S;
  const LoopParams Params;
  FrontLayerTracker Tracker;
  RouteWriter Out;
  Rng TieBreaker;
  const CancellationToken *Cancel = nullptr;
  ReplayDriver *Replay = nullptr;
  unsigned SwapsSinceProgress = 0;
  /// Tracker.numExecuted() when the kernel last built its step state. The
  /// state is valid while no gate has executed since; it starts invalid.
  size_t StepBuiltAt = SIZE_MAX;

protected:
  /// Bumps the decay of the logical qubits on \p P1 and \p P2. Decay
  /// penalizes the *logical* qubits that moved; the SWAP already placed
  /// them on each other's physical qubit.
  void bumpDecay(unsigned P1, unsigned P2) {
    if (Params.DecayIncrement == 0)
      return;
    for (unsigned P : {P1, P2}) {
      int32_t L = Out.placement().logOf(static_cast<int32_t>(P));
      if (L >= 0)
        S.Decay[static_cast<size_t>(L)] += Params.DecayIncrement;
    }
  }

  /// The oldest two-qubit gate of the front.
  uint32_t oldestBlockedGate() const;
};

/// The loop over one kernel.
template <typename KernelT> class SwapLoop : public SwapLoopState {
public:
  /// \p Args follow the loop state to the kernel's constructor.
  template <typename... KernelArgs>
  SwapLoop(const RoutingContext &Ctx, const QubitMapping &Initial,
           RoutingScratch &Scratch, const CancellationToken *Cancel,
           const LoopParams &Params, std::string RouterName,
           KernelArgs &&...Args)
      : SwapLoopState(Ctx, Initial, Scratch, Cancel, Params,
                      std::move(RouterName)),
        Kernel(*this, std::forward<KernelArgs>(Args)...) {}

  /// Routes to completion (or cancellation) and returns the result; one
  /// trace span named \p SpanName covers the whole loop.
  RoutingResult run(const char *SpanName) {
    Timer Clock;
    ScopedSpan LoopSpan(S.TraceSink, SpanName);
    while (!Tracker.allExecuted()) {
      if (cancelled())
        break;
      // Period boundary: the driver replays a recorded schedule (or starts
      // recording one) and returns true when it executed gates itself.
      if (Replay && Replay->maybeHandleBoundary())
        continue;
      if (drain())
        continue;
      if (SwapsSinceProgress >= Params.MaxSwapsWithoutProgress)
        forceEscape();
      else
        scoredSwap();
    }
    if (Replay)
      Replay->finalize();
    return Out.finish(Clock.elapsedSeconds());
  }

  /// Emits the SWAP (P1, P2) with its decay bump, record patch and
  /// replay note.
  void emitSwap(unsigned P1, unsigned P2) {
    Out.emitSwap(P1, P2);
    afterSwap(P1, P2);
  }

  KernelT Kernel;

private:
  void afterSwap(unsigned P1, unsigned P2) {
    bumpDecay(P1, P2);
    if (StepBuiltAt == Tracker.numExecuted())
      S.swapScored(P1, P2, [this](uint32_t J) { Kernel.rederive(J); });
    if (Replay)
      Replay->noteSwapEmitted(P1, P2);
  }

  /// Applies the kernel's pick among the candidate SWAPs, building the
  /// step state first when a gate has executed since it was last built.
  void scoredSwap() {
    if (StepBuiltAt != Tracker.numExecuted()) {
      Kernel.buildStep();
      StepBuiltAt = Tracker.numExecuted();
    }
#ifndef NDEBUG
    else {
      // Assertion builds only: the patched state must equal a rebuild.
      auto Patched = Kernel.snapshot();
      Kernel.buildStep();
      assert(Patched == Kernel.snapshot() &&
             "a patched step differs from a rebuild");
    }
#endif
    if (Replay)
      Replay->noteWindow(S.Window);
    // Every front gate is a blocked two-qubit gate here, and every
    // kernel's records open with the sorted front.
    S.generateCandidates(Hw, Tracker.front().size());
    assert(!S.Candidates.empty() && "no candidate SWAPs on a connected graph");
    size_t Pick = Kernel.chooseSwap();
    emitSwap(S.Candidates[Pick].first, S.Candidates[Pick].second);
    ++SwapsSinceProgress;
  }

  /// Termination escape hatch: walk the oldest blocked gate's operands
  /// together along a shortest path.
  void forceEscape() {
    Out.walkTogether(Logical.gate(oldestBlockedGate()),
                     [this](unsigned P1, unsigned P2) { afterSwap(P1, P2); });
    SwapsSinceProgress = 0;
  }
};

} // namespace detail
} // namespace qlosure

#endif // QLOSURE_ROUTE_SWAPLOOP_H
