//===- route/FrontLayer.cpp - Ready-gate tracking --------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "route/FrontLayer.h"

#include <algorithm>
#include <cassert>

using namespace qlosure;

FrontLayerTracker::FrontLayerTracker(const CircuitDag &DagIn,
                                     RoutingScratch &Scratch)
    : Dag(DagIn), S(Scratch) {
  size_t N = Dag.numGates();
  S.ensureGates(N);
  // One O(N) refill per route() call (unavoidable: predecessor counts are
  // per-run state); the capacity itself is reused across calls.
  for (size_t G = 0; G < N; ++G)
    S.PendingPreds[G] = Dag.inDegree(G);
  std::fill_n(S.FrontPos.begin(), N, RoutingScratch::NotInFront);
  S.Front.clear();
  for (uint32_t Root : Dag.roots()) {
    S.FrontPos[Root] = static_cast<uint32_t>(S.Front.size());
    S.Front.push_back(Root);
  }
}

void FrontLayerTracker::execute(uint32_t GateId) {
  assert(S.FrontPos[GateId] != RoutingScratch::NotInFront &&
         "executing a gate that is not ready");
  ++NumExecuted;
  // Swap-with-back removal at the recorded position (replaces the old
  // O(|front|) std::find).
  uint32_t Pos = S.FrontPos[GateId];
  uint32_t Back = S.Front.back();
  S.Front[Pos] = Back;
  S.FrontPos[Back] = Pos;
  S.Front.pop_back();
  S.FrontPos[GateId] = RoutingScratch::NotInFront;
  for (uint32_t Succ : Dag.successors(GateId)) {
    assert(S.PendingPreds[Succ] > 0 && "predecessor count underflow");
    if (--S.PendingPreds[Succ] == 0) {
      S.FrontPos[Succ] = static_cast<uint32_t>(S.Front.size());
      S.Front.push_back(Succ);
    }
  }
}

const std::vector<uint32_t> &
FrontLayerTracker::topologicalWindow(size_t MaxGates,
                                     size_t MaxTwoQubit) const {
  std::vector<uint32_t> &Window = S.Window;
  std::vector<uint32_t> &Levels = S.WindowLevel;
  Window.clear();
  Levels.clear();
  if (MaxGates == 0 || MaxTwoQubit == 0)
    return Window;
  // BFS from the front through unexecuted gates, releasing a gate once all
  // its unexecuted predecessors have been visited. This yields gates in
  // topological order of the residual DAG. A gate's entry is stamped on
  // its first touch with the tracker's own unexecuted-predecessor count
  // (no O(numGates) refill per call, no predecessor rescan), and the FIFO
  // is a head cursor over a reused flat vector — each gate is enqueued at
  // most once, so no wraparound is needed.
  S.WindowNeeded.beginEpoch();
  std::vector<uint32_t> &Queue = S.BfsQueue;
  Queue.assign(S.Front.begin(), S.Front.end());
  // Sort the seeds for determinism (Front order depends on history).
  std::sort(Queue.begin(), Queue.end());
  size_t Head = 0;
  size_t TwoQubit = 0;
  while (Head < Queue.size() && Window.size() < MaxGates &&
         TwoQubit < MaxTwoQubit) {
    uint32_t G = Queue[Head++];
    bool IsTwoQubit = Dag.isTwoQubitGate(G);
    TwoQubit += IsTwoQubit;
    // A front gate has no entry (its predecessors have all executed), so
    // it reads level 0 from its predecessors.
    uint32_t Level =
        std::max<uint32_t>(S.WindowNeeded.get(G).PredLevel + IsTwoQubit, 1);
    Window.push_back(G);
    Levels.push_back(Level);
    for (uint32_t Succ : Dag.successors(G)) {
      if (!S.WindowNeeded.fresh(Succ))
        S.WindowNeeded.set(Succ, {S.PendingPreds[Succ], 0});
      RoutingScratch::WindowEntry &Entry = S.WindowNeeded.ref(Succ);
      assert(Entry.Pending > 0 && "successor released twice");
      Entry.PredLevel = std::max(Entry.PredLevel, Level);
      if (--Entry.Pending == 0)
        Queue.push_back(Succ);
    }
  }
  return Window;
}
