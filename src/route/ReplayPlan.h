//===- route/ReplayPlan.h - Symbolic swap-schedule replay ---------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The affine fast path: when the period detector finds loop structure
/// (affine/PeriodDetector.h), Qlosure's swap loop (route/SwapLoop.h)
/// routes the loop body *once* while a ReplayDriver records every
/// emission — program gates, SWAPs, and the tie-break draw behind each
/// scored SWAP — as a ReplayPlan keyed by an anchor that captures the
/// complete decision-relevant state at the period boundary. Later periods
/// (and later route() calls over the same cached context) whose boundary
/// state matches an anchor replay the recorded schedule through the
/// loop's own primitives (executeGate, emitSwap, resetProgress and the
/// cancellation poll) instead of re-scoring thousands of candidate SWAPs.
///
/// Exactness contract. A replayed prefix is byte-identical to what the
/// scalar kernel would have emitted, because every free input of the
/// decision procedure is pinned:
///
///  - The anchor records the physical position of every logical qubit
///    (relabeled through pi^j, so corresponding gates of matching periods
///    sit on identical *physical* qubits), the set of gates already
///    executed ahead of the boundary, and a salt over every routing option.
///  - Periodicity of the trace (verified gate-by-gate by the detector)
///    plus the recorded maximum look-ahead reach guarantee the window,
///    candidate set and scores evolve identically — provided the replayed
///    span stays inside the periodic region and the dependence-weight
///    slices match (checked; omega is generally aperiodic, so the weighted
///    profile usually falls back while the unweighted profile replays).
///  - The decay vector and progress counter are deterministic at every
///    boundary (gate execution resets them) and are re-evolved through the
///    loop's own emitSwap during replay.
///  - The one nondeterministic input — the tie-break RNG — is handled
///    speculatively: each scored SWAP op stores the draw it consumed; the
///    replay draws from the live RNG and commits only on an equal value,
///    otherwise it restores the RNG and stops. A stopped replay leaves
///    *exactly* the state the scalar loop would have had at that point,
///    so the loop resumes mid-period and the final result is still
///    byte-identical to a never-replayed run.
///
/// Degradation is therefore graceful by construction: any deviation —
/// tie draw, front-layer shape, weight slice, region overrun — downgrades
/// that period to the scalar kernel, never to a wrong result.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_ROUTE_REPLAYPLAN_H
#define QLOSURE_ROUTE_REPLAYPLAN_H

#include "affine/PeriodDetector.h"
#include "support/Trace.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace qlosure {

namespace detail {
class QlosureKernel;
template <typename KernelT> class SwapLoop;
using QlosureLoop = SwapLoop<QlosureKernel>;
} // namespace detail

/// The boundary state a plan was recorded under. Plans apply only where
/// the full Data vector matches: the config salt, the physical position of
/// every (pi^j-relabeled) logical qubit, and the trace offsets of gates
/// already executed ahead of the boundary.
struct AnchorKey {
  std::vector<int64_t> Data;
  uint64_t Hash = 0;

  bool operator==(const AnchorKey &O) const { return Data == O.Data; }
};

/// One recorded kernel emission.
struct ReplayOp {
  enum class Kind : uint8_t {
    Gate,       ///< Program gate; A = trace offset from the period base.
    ScoredSwap, ///< Tie-broken SWAP; A/B = physical pair, Bound/Pick = draw.
    ForcedSwap, ///< Shortest-path escape SWAP; A/B = physical pair.
  };
  Kind K = Kind::Gate;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t Bound = 0; ///< ScoredSwap: tie-set size at the decision.
  uint32_t Pick = 0;  ///< ScoredSwap: the draw the kernel consumed.
};

/// An immutable recorded schedule for one period. Published to the
/// context's ReplayPlanCache once the period completes, then shared
/// freely across threads and route() calls.
struct ReplayPlan {
  AnchorKey Key;
  int64_t RecordBase = 0; ///< Trace base the recording ran at.
  int64_t MaxReach = 0;   ///< Max trace offset the look-ahead touched.
  std::vector<ReplayOp> Ops;
};

/// Anchor-keyed plan store, shared via RoutingContext by every route()
/// call over the same (circuit, backend) pair. Thread-safe; first
/// publisher of an anchor wins (plans for equal anchors are equivalent).
class ReplayPlanCache {
public:
  std::shared_ptr<const ReplayPlan> lookup(const AnchorKey &Key) const;
  void publish(std::shared_ptr<const ReplayPlan> Plan);

  /// Number of distinct plans currently published (diagnostic).
  size_t size() const;

private:
  mutable std::mutex Mu;
  std::unordered_map<uint64_t,
                     std::vector<std::shared_ptr<const ReplayPlan>>>
      ByHash;
};

/// Per-route() driver bound to one Qlosure swap loop. Observes emissions
/// through the loop's hooks, maintains the period bookkeeping
/// (boundaries, pre-executed gates, the accumulated permutation power
/// pi^j), records plans, and replays them at matching boundaries.
class ReplayDriver {
public:
  /// \p Loop and \p Structure must outlive the driver (the structure
  /// lives on the context); \p Cache is the context's shared plan store.
  ReplayDriver(detail::QlosureLoop &Loop, const PeriodStructure &Structure,
               uint64_t ConfigSalt, ReplayPlanCache &Cache);

  // --- Loop hooks (cheap; called on every emission) ---------------------
  void noteGateExecuted(uint32_t GateId);
  void noteSwapEmitted(unsigned P1, unsigned P2);
  void noteDecision(size_t Bound, uint64_t Draw);
  void noteWindow(const std::vector<uint32_t> &Window);

  /// Called at the top of the loop. When the trace position sits on a
  /// period boundary, closes any open recording, then either replays a
  /// cached plan (possibly chaining across several periods) or starts
  /// recording the period about to be routed. Returns true when gates
  /// were executed by replay (the loop then restarts its iteration).
  bool maybeHandleBoundary();

  /// Called once after the loop exits; publishes the final period's
  /// recording when it completed.
  void finalize();

  size_t replayedPeriods() const { return Replayed; }
  size_t fallbackPeriods() const { return Fallback; }

  /// Optional request trace: replayed periods record "replay_period"
  /// spans, recorded-then-published periods record "scalar_period" spans
  /// covering the scalar routing of the recording window. Null = off.
  void setTraceSink(Trace *T) { TraceSink = T; }

private:
  enum class ReplayStatus { Completed, Stopped };

  AnchorKey computeAnchor(int64_t Base) const;
  bool replayAllowed(const ReplayPlan &Plan, int64_t Base) const;
  ReplayStatus executeReplay(const ReplayPlan &Plan, int64_t Base);
  void startRecording(int64_t Base, AnchorKey Key);
  void closeRecording();
  void advancePeriod();

  detail::QlosureLoop &Loop;
  const PeriodStructure &P;
  uint64_t ConfigSalt = 0;
  ReplayPlanCache &Cache;

  // Trace-position bookkeeping.
  int64_t NextBoundary = 0;   ///< Base of the period about to start.
  int64_t ExecutedBelow = 0;  ///< Executed gates with id < NextBoundary.
  int64_t PeriodIdx = 0;      ///< Index of the period about to start.
  std::vector<int64_t> PreExec; ///< Executed gate ids >= NextBoundary.
  std::vector<int32_t> PermPow; ///< pi^PeriodIdx.
  bool Done = false;

  Trace *TraceSink = nullptr;
  Trace::Clock::time_point RecordStart{}; ///< Only set when tracing.

  // Recording state.
  bool Recording = false;
  int64_t RecordBase = 0;
  int64_t MaxReach = 0;
  AnchorKey RecordKey;
  std::vector<ReplayOp> Ops;
  bool HavePendingDecision = false;
  uint32_t PendingBound = 0;
  uint32_t PendingPick = 0;

  size_t Replayed = 0;
  size_t Fallback = 0;
};

} // namespace qlosure

#endif // QLOSURE_ROUTE_REPLAYPLAN_H
