//===- route/ReplayPlan.cpp - Symbolic swap-schedule replay --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "route/ReplayPlan.h"

#include "core/QlosureKernel.h"
#include "support/Fingerprint.h"

#include <algorithm>
#include <cassert>

using namespace qlosure;

//===----------------------------------------------------------------------===//
// ReplayPlanCache
//===----------------------------------------------------------------------===//

std::shared_ptr<const ReplayPlan>
ReplayPlanCache::lookup(const AnchorKey &Key) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = ByHash.find(Key.Hash);
  if (It == ByHash.end())
    return nullptr;
  for (const auto &Plan : It->second)
    if (Plan->Key == Key)
      return Plan;
  return nullptr;
}

void ReplayPlanCache::publish(std::shared_ptr<const ReplayPlan> Plan) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Bucket = ByHash[Plan->Key.Hash];
  for (const auto &Existing : Bucket)
    if (Existing->Key == Plan->Key)
      return; // First publisher wins; equal anchors record equal schedules.
  Bucket.push_back(std::move(Plan));
}

size_t ReplayPlanCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const auto &Entry : ByHash)
    N += Entry.second.size();
  return N;
}

//===----------------------------------------------------------------------===//
// ReplayDriver
//===----------------------------------------------------------------------===//

ReplayDriver::ReplayDriver(detail::QlosureLoop &Loop,
                           const PeriodStructure &Structure,
                           uint64_t ConfigSalt, ReplayPlanCache &Cache)
    : Loop(Loop), P(Structure), ConfigSalt(ConfigSalt), Cache(Cache),
      NextBoundary(Structure.RegionStart) {
  PermPow.resize(Structure.Perm.size());
  for (size_t Q = 0; Q < PermPow.size(); ++Q)
    PermPow[Q] = static_cast<int32_t>(Q);
}

void ReplayDriver::noteGateExecuted(uint32_t GateId) {
  int64_t T = static_cast<int64_t>(GateId);
  if (T < NextBoundary)
    ++ExecutedBelow;
  else
    PreExec.push_back(T);
  if (Recording) {
    if (T < RecordBase) {
      // Cannot happen while the boundary invariant holds (everything below
      // the base was executed before recording began); abandon defensively.
      Recording = false;
      Ops.clear();
      return;
    }
    Ops.push_back(
        {ReplayOp::Kind::Gate, static_cast<uint32_t>(T - RecordBase), 0, 0, 0});
    MaxReach = std::max(MaxReach, T - RecordBase);
  }
}

void ReplayDriver::noteSwapEmitted(unsigned P1, unsigned P2) {
  if (!Recording) {
    HavePendingDecision = false;
    return;
  }
  if (HavePendingDecision) {
    Ops.push_back({ReplayOp::Kind::ScoredSwap, P1, P2, PendingBound,
                   PendingPick});
    HavePendingDecision = false;
  } else {
    // No decision preceded this swap: a forced shortest-path escape.
    Ops.push_back({ReplayOp::Kind::ForcedSwap, P1, P2, 0, 0});
  }
}

void ReplayDriver::noteDecision(size_t Bound, uint64_t Draw) {
  if (!Recording)
    return;
  HavePendingDecision = true;
  PendingBound = static_cast<uint32_t>(Bound);
  PendingPick = static_cast<uint32_t>(Draw);
}

void ReplayDriver::noteWindow(const std::vector<uint32_t> &Window) {
  if (!Recording)
    return;
  for (uint32_t G : Window)
    MaxReach = std::max(MaxReach, static_cast<int64_t>(G) - RecordBase);
}

AnchorKey ReplayDriver::computeAnchor(int64_t Base) const {
  AnchorKey Key;
  Key.Data.reserve(PermPow.size() + PreExec.size() + 2);
  Key.Data.push_back(static_cast<int64_t>(ConfigSalt));
  // Physical position of every logical qubit, relabeled through pi^j so
  // that matching anchors place *corresponding* period gates on identical
  // physical qubits.
  for (int32_t Q : PermPow)
    Key.Data.push_back(Loop.Out.physOf(Q));
  Key.Data.push_back(-2); // Separator (never a valid physical index).
  // Gates already executed ahead of the boundary, as period-relative
  // offsets: they are missing from any recorded schedule, so the missing
  // sets must match exactly.
  size_t Mark = Key.Data.size();
  for (int64_t T : PreExec)
    Key.Data.push_back(T - Base);
  std::sort(Key.Data.begin() + static_cast<ptrdiff_t>(Mark), Key.Data.end());
  Key.Hash = hashBytes(Key.Data.data(), Key.Data.size() * sizeof(int64_t));
  return Key;
}

bool ReplayDriver::replayAllowed(const ReplayPlan &Plan,
                                 int64_t Base) const {
  // Every trace index the replay touches — executed gates and look-ahead
  // reads alike — must stay inside the verified periodic region.
  if (Base + std::max(Plan.MaxReach + 1, P.BodyGates) > P.regionEnd())
    return false;
  // Dependence weights enter the scores and are generally aperiodic
  // (omega counts *remaining* dependents); replay only where the slices
  // the window can read are exactly equal.
  if (const std::vector<uint64_t> *Weights = Loop.Kernel.weights()) {
    const std::vector<uint64_t> &W = *Weights;
    for (int64_t D = 0; D <= Plan.MaxReach; ++D)
      if (W[static_cast<size_t>(Plan.RecordBase + D)] !=
          W[static_cast<size_t>(Base + D)])
        return false;
  }
  return true;
}

ReplayDriver::ReplayStatus
ReplayDriver::executeReplay(const ReplayPlan &Plan, int64_t Base) {
  bool PrevWasGate = false;
  size_t OpsSincePoll = 0;
  for (const ReplayOp &Op : Plan.Ops) {
    if (++OpsSincePoll >= 256) {
      OpsSincePoll = 0;
      if (Loop.cancelled())
        return ReplayStatus::Stopped;
    }
    if (Op.K != ReplayOp::Kind::Gate && PrevWasGate) {
      // The scalar loop resets decay and the escape counter after every
      // pass that executed gates, before it emits the next swap.
      Loop.resetProgress();
      PrevWasGate = false;
    }
    switch (Op.K) {
    case ReplayOp::Kind::Gate: {
      uint32_t G = static_cast<uint32_t>(Base + Op.A);
      if (G >= Loop.Logical.size() || !Loop.Tracker.isInFront(G) ||
          !Loop.isExecutable(G))
        return ReplayStatus::Stopped; // Front deviated from the prediction.
      Loop.executeGate(G);
      PrevWasGate = true;
      break;
    }
    case ReplayOp::Kind::ScoredSwap: {
      // Speculative tie peek: draw from the live RNG; commit only when the
      // value matches the recorded draw, otherwise restore the generator
      // and stop — the emitted prefix is then exactly the scalar prefix.
      Rng Saved = Loop.TieBreaker;
      uint64_t Draw = Loop.TieBreaker.nextBounded(Op.Bound);
      if (Draw != Op.Pick) {
        Loop.TieBreaker = Saved;
        return ReplayStatus::Stopped;
      }
      Loop.emitSwap(Op.A, Op.B);
      ++Loop.SwapsSinceProgress;
      break;
    }
    case ReplayOp::Kind::ForcedSwap:
      Loop.emitSwap(Op.A, Op.B);
      Loop.SwapsSinceProgress = 0;
      break;
    }
  }
  if (PrevWasGate)
    Loop.resetProgress();
  return ReplayStatus::Completed;
}

void ReplayDriver::startRecording(int64_t Base, AnchorKey Key) {
  if (TraceSink)
    RecordStart = Trace::Clock::now();
  Recording = true;
  RecordBase = Base;
  MaxReach = 0;
  RecordKey = std::move(Key);
  Ops.clear();
  HavePendingDecision = false;
}

void ReplayDriver::closeRecording() {
  if (!Recording)
    return;
  if (TraceSink)
    TraceSink->add("scalar_period", RecordStart, Trace::Clock::now());
  Recording = false;
  HavePendingDecision = false;
  ++Fallback; // The recorded period itself was routed by the scalar kernel.
  // Publish only when the look-ahead never read past the periodic region:
  // a window that peeked into the aperiodic tail may have influenced the
  // recorded decisions, and such a schedule must not be transplanted.
  if (RecordBase + std::max(MaxReach + 1, P.BodyGates) <= P.regionEnd()) {
    auto Plan = std::make_shared<ReplayPlan>();
    Plan->Key = std::move(RecordKey);
    Plan->RecordBase = RecordBase;
    Plan->MaxReach = MaxReach;
    Plan->Ops = std::move(Ops);
    Cache.publish(std::move(Plan));
  }
  Ops.clear();
}

void ReplayDriver::advancePeriod() {
  ++PeriodIdx;
  NextBoundary += P.BodyGates;
  size_t Kept = 0;
  for (int64_t T : PreExec) {
    if (T < NextBoundary)
      ++ExecutedBelow;
    else
      PreExec[Kept++] = T;
  }
  PreExec.resize(Kept);
  // pi^(j+1)(q) = pi(pi^j(q)): element-wise, so composing in place is safe.
  for (size_t Q = 0; Q < PermPow.size(); ++Q)
    PermPow[Q] = P.Perm[static_cast<size_t>(PermPow[Q])];
}

bool ReplayDriver::maybeHandleBoundary() {
  if (Done)
    return false;
  bool DidWork = false;
  while (!Done && ExecutedBelow == NextBoundary) {
    closeRecording();
    if (PeriodIdx >= P.NumPeriods) {
      Done = true;
      break;
    }
    int64_t Base = NextBoundary;
    AnchorKey Key = computeAnchor(Base);
    std::shared_ptr<const ReplayPlan> Plan = Cache.lookup(Key);
    if (Plan && replayAllowed(*Plan, Base)) {
      // Count the period's gates directly against the advanced boundary
      // while the replay executes them.
      advancePeriod();
      ReplayStatus St;
      {
        ScopedSpan Span(TraceSink, "replay_period");
        St = executeReplay(*Plan, Base);
      }
      DidWork = true;
      if (St == ReplayStatus::Completed) {
        ++Replayed;
        continue; // A chained boundary may be reachable immediately.
      }
      ++Fallback; // The scalar loop resumes mid-period from exact state.
      break;
    }
    startRecording(Base, std::move(Key));
    advancePeriod();
    break;
  }
  return DidWork;
}

void ReplayDriver::finalize() {
  // The loop exits without a final boundary check when the trace
  // ends exactly at a period boundary; publish that last recording if it
  // completed (a cancelled run leaves it incomplete — drop it silently).
  if (Recording && ExecutedBelow == NextBoundary)
    closeRecording();
}
