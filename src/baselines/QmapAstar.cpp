//===- baselines/QmapAstar.cpp - QMAP-style layered A* mapper --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The A* search runs out of the caller's RoutingScratch: nodes are flat
// (parent link + one swap) with their tracked-qubit positions in a shared
// arena, the open list is a binary heap of node ids over a reused vector
// (std::push_heap/std::pop_heap — exactly what std::priority_queue does
// underneath, so the expansion order is the one a priority queue of
// nodes would give), and the closed set and per-chunk vectors
// are reused across chunks and route() calls. Expanding a node copies K
// unsigneds instead of allocating two vectors per neighbor.
//
//===----------------------------------------------------------------------===//

#include "baselines/QmapAstar.h"

#include "route/RouteWriter.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace qlosure;

namespace {

/// Heap order over packed (f, g) keys: lower f on top; among equal f,
/// deeper nodes (higher g) first — the (f, g) comparator's order,
/// induced by key = (f << 32) | (2^32 - 1 - g) so one integer compare
/// replaces two node loads per sift step. Equal (f, g) pairs compare
/// equivalent under both, so push_heap/pop_heap permute identically.
inline uint64_t heapKey(uint32_t F, uint32_t G) {
  return (static_cast<uint64_t>(F) << 32) | (0xFFFFFFFFu - G);
}

struct HeapEntryCompare {
  bool operator()(const RoutingScratch::AstarHeapEntry &A,
                  const RoutingScratch::AstarHeapEntry &B) const {
    return A.Key > B.Key;
  }
};

uint64_t hashPositions(const unsigned *Positions, size_t K) {
  uint64_t H = 0xCBF29CE484222325ULL;
  for (size_t I = 0; I < K; ++I) {
    H ^= Positions[I];
    H *= 0x100000001B3ULL;
  }
  return H;
}

} // namespace

RoutingResult QmapAstarRouter::route(const RoutingContext &Ctx,
                                     const QubitMapping &Initial,
                                     RoutingScratch &S,
                                     const CancellationToken *Cancel) {
  checkPreconditions(Ctx, Initial);
  auto isCancelled = [Cancel] { return Cancel && Cancel->cancelled(); };
  const Circuit &Logical = Ctx.circuit();
  const CouplingGraph &Hw = Ctx.hardware();
  Timer Clock;

  RouteWriter Out(Logical, Hw, Initial, name());
  RoutingResult &Result = Out.result();

  // Time-sliced layer partition: a gate joins the current layer unless one
  // of its qubits is already busy there. Gates enter layers in index
  // order, so layer k is the contiguous range [Bounds[k], Bounds[k+1]).
  std::vector<uint32_t> &Bounds = S.QmapLayerBounds;
  Bounds.clear();
  S.QmapBusy.assign(Logical.numQubits(), 0);
  for (uint32_t GI = 0; GI < Logical.size(); ++GI) {
    const Gate &G = Logical.gate(GI);
    unsigned N = G.numQubits();
    bool Conflict = false;
    for (unsigned Q = 0; Q < N; ++Q)
      Conflict |= S.QmapBusy[static_cast<size_t>(G.Qubits[Q])] != 0;
    if (GI == 0 || Conflict) {
      Bounds.push_back(GI);
      if (Conflict)
        std::fill(S.QmapBusy.begin(), S.QmapBusy.end(),
                  static_cast<uint8_t>(0));
    }
    for (unsigned Q = 0; Q < N; ++Q)
      S.QmapBusy[static_cast<size_t>(G.Qubits[Q])] = 1;
  }
  Bounds.push_back(static_cast<uint32_t>(Logical.size()));

  /// Routes one chunk of mutually disjoint 2Q gates with a bounded A*
  /// search over the joint placement of the chunk's qubits, then emits the
  /// chunk's gates. Falls back to greedy shortest-path insertion per gate
  /// when the node budget is exhausted. Returns false when the
  /// cancellation token fired mid-chunk (the route must abort).
  auto routeChunk = [&](const uint32_t *Chunk, size_t ChunkSize) -> bool {
    // Tracked qubits: the chunk's logical operands.
    std::vector<int32_t> &Tracked = S.AstarTracked;
    Tracked.clear();
    for (size_t C = 0; C < ChunkSize; ++C) {
      Tracked.push_back(Logical.gate(Chunk[C]).Qubits[0]);
      Tracked.push_back(Logical.gate(Chunk[C]).Qubits[1]);
    }
    std::sort(Tracked.begin(), Tracked.end());
    Tracked.erase(std::unique(Tracked.begin(), Tracked.end()),
                  Tracked.end());
    const size_t K = Tracked.size();
    std::vector<std::pair<unsigned, unsigned>> &GatePairs = S.AstarGatePairs;
    GatePairs.clear();
    for (size_t C = 0; C < ChunkSize; ++C) {
      const Gate &G = Logical.gate(Chunk[C]);
      auto OrdinalOf = [&Tracked](int32_t Q) {
        return static_cast<unsigned>(
            std::lower_bound(Tracked.begin(), Tracked.end(), Q) -
            Tracked.begin());
      };
      GatePairs.push_back({OrdinalOf(G.Qubits[0]), OrdinalOf(G.Qubits[1])});
    }
    // A chunk comes from one time-slice layer, so its gates are pairwise
    // qubit-disjoint: every tracked ordinal belongs to exactly one pair.
    std::vector<unsigned> &PairOf = S.AstarPairOf;
    PairOf.assign(K, 0);
    for (unsigned P = 0; P < GatePairs.size(); ++P) {
      PairOf[GatePairs[P].first] = P;
      PairOf[GatePairs[P].second] = P;
    }

    auto heuristic = [&](const unsigned *Pos) {
      unsigned H = 0;
      for (auto [A, B] : GatePairs)
        H += Hw.distance(Pos[A], Pos[B]) - 1;
      return H;
    };
    auto isGoal = [&](const unsigned *Pos) {
      for (auto [A, B] : GatePairs)
        if (!Hw.areAdjacent(Pos[A], Pos[B]))
          return false;
      return true;
    };

    // Flat node pools, reset per chunk (capacity retained).
    std::vector<RoutingScratch::AstarNode> &Nodes = S.AstarNodes;
    std::vector<unsigned> &Arena = S.AstarPositions;
    std::vector<RoutingScratch::AstarHeapEntry> &Heap = S.AstarHeap;
    Nodes.clear();
    Arena.clear();
    Heap.clear();
    S.AstarClosed.clear(); // O(1) epoch bump, capacity retained.
    S.AstarInvPos.assign(Hw.numQubits(), UINT32_MAX);
    HeapEntryCompare Compare;
    assert(Hw.numQubits() <= 0xFFFF &&
           "AstarNode packs physical indices into 16 bits");

    // Lazy-slot arena discipline: only nodes that actually get expanded
    // receive an arena slot (positions rebuilt from the parent's slot plus
    // the node's one swap), so the large majority of generated nodes — the
    // ones the search never pops — cost 12 bytes and no position traffic.
    uint32_t NextSlot = 1;
    auto ensureSlot = [&](uint32_t Slot) -> unsigned * {
      size_t SlotBase = static_cast<size_t>(Slot) * K;
      if (Arena.size() < SlotBase + K) {
        if (Arena.capacity() < SlotBase + K)
          Arena.reserve(std::max(Arena.capacity() * 2, SlotBase + K));
        Arena.resize(SlotBase + K);
      }
      return Arena.data() + SlotBase;
    };

    // Root node: the only one whose positions exist before its pop.
    {
      Arena.resize(K);
      for (size_t I = 0; I < K; ++I)
        Arena[I] = Out.physOf(Tracked[I]);
      RoutingScratch::AstarNode Root;
      Root.Slot = 0;
      Nodes.push_back(Root);
      Heap.push_back({heapKey(heuristic(Arena.data()), 0), 0});
    }

    size_t Expansions = 0;
    uint32_t GoalId = UINT32_MAX;

    while (!Heap.empty() && Expansions < NodeBudgetPerLayer) {
      // The unbounded-latency loop of this mapper: poll the token every
      // 64 expansions so a cancel/deadline lands within microseconds.
      if ((Expansions & 63u) == 0 && isCancelled())
        return false;
      const uint64_t Key = Heap.front().Key;
      const uint32_t NodeId = Heap.front().Id;
      std::pop_heap(Heap.begin(), Heap.end(), Compare);
      Heap.pop_back();
      // Costs travel packed in the open-list key, not in the node.
      const uint32_t CostG = 0xFFFFFFFFu - static_cast<uint32_t>(Key);
      const uint32_t CostH = static_cast<uint32_t>(Key >> 32) - CostG;
      RoutingScratch::AstarNode &Node = Nodes[NodeId];
      unsigned *Pos;
      if (Node.Slot != UINT32_MAX) {
        Pos = Arena.data() + static_cast<size_t>(Node.Slot) * K; // Root.
      } else {
        // Materialize into a tentative slot; a duplicate pop (position
        // set already expanded) abandons it for reuse by the next pop.
        Pos = ensureSlot(NextSlot);
        const unsigned *PPos =
            Arena.data() + static_cast<size_t>(Nodes[Node.Parent].Slot) * K;
        for (size_t J = 0; J < K; ++J) {
          unsigned V = PPos[J];
          Pos[J] = V == Node.SwapFrom ? Node.SwapTo
                   : V == Node.SwapTo ? static_cast<unsigned>(Node.SwapFrom)
                                      : V;
        }
      }
      if (!S.AstarClosed.insert(hashPositions(Pos, K)))
        continue;
      if (Node.Slot == UINT32_MAX)
        Node.Slot = NextSlot++;
      ++Expansions;
      if (isGoal(Pos)) {
        GoalId = NodeId;
        break;
      }
      // Per-expansion precomputation: FNV-1a prefix states of this node's
      // positions (a successor's key then re-hashes only the suffix from
      // the first changed ordinal — same composition, identical key) and
      // the inverse occupancy map (O(1) swap-occupant lookup in place of
      // an O(K) scan). No arena growth happens inside the successor loop,
      // so Pos stays valid throughout.
      std::vector<uint64_t> &Pref = S.AstarHashPref;
      Pref.resize(K + 1);
      Pref[0] = 0xCBF29CE484222325ULL;
      for (size_t J = 0; J < K; ++J)
        Pref[J + 1] = (Pref[J] ^ Pos[J]) * 0x100000001B3ULL;
      uint32_t *Inv = S.AstarInvPos.data();
      for (size_t J = 0; J < K; ++J)
        Inv[Pos[J]] = static_cast<uint32_t>(J);
      for (size_t I = 0; I < K; ++I) {
        unsigned From = Pos[I];
        for (unsigned To : Hw.neighbors(From)) {
          // If another tracked qubit occupies To, it moves to From.
          size_t Moved = Inv[To] == UINT32_MAX ? SIZE_MAX : Inv[To];
          size_t FirstChanged = Moved < I ? Moved : I;
          uint64_t PosKey = Pref[FirstChanged];
          for (size_t J = FirstChanged; J < K; ++J) {
            unsigned V = J == I ? To : J == Moved ? From : Pos[J];
            PosKey = (PosKey ^ V) * 0x100000001B3ULL;
          }
          if (S.AstarClosed.contains(PosKey))
            continue;
          // Incremental heuristic: only the (unique, chunk gates being
          // qubit-disjoint) pairs of the moved ordinals change, and every
          // term is an exact integer, so this equals the full
          // recomputation bit for bit. Successor positions are never
          // materialized — the changed ones substitute in directly.
          auto pairDelta = [&](unsigned P) {
            auto [A, B] = GatePairs[P];
            unsigned NA = A == I ? To : A == Moved ? From : Pos[A];
            unsigned NB = B == I ? To : B == Moved ? From : Pos[B];
            return static_cast<int32_t>(Hw.distance(NA, NB)) -
                   static_cast<int32_t>(Hw.distance(Pos[A], Pos[B]));
          };
          int32_t HDelta = pairDelta(PairOf[I]);
          if (Moved != SIZE_MAX && PairOf[Moved] != PairOf[I])
            HDelta += pairDelta(PairOf[Moved]);
          const uint32_t NextG = CostG + 1;
          const uint32_t NextH = static_cast<uint32_t>(
              static_cast<int32_t>(CostH) + HDelta);
          uint32_t NextId = static_cast<uint32_t>(Nodes.size());
          Nodes.push_back({NodeId, UINT32_MAX, static_cast<uint16_t>(From),
                           static_cast<uint16_t>(To)});
          Heap.push_back({heapKey(NextG + NextH, NextG), NextId});
          std::push_heap(Heap.begin(), Heap.end(), Compare);
        }
      }
      // Restore the sentinel for the next expansion's occupancy map.
      for (size_t J = 0; J < K; ++J)
        Inv[Pos[J]] = UINT32_MAX;
    }

    if (GoalId != UINT32_MAX) {
      // Reconstruct the swap sequence root -> goal via parent links.
      S.AstarPath.clear();
      for (uint32_t Id = GoalId; Nodes[Id].Parent != UINT32_MAX;
           Id = Nodes[Id].Parent)
        S.AstarPath.push_back({Nodes[Id].SwapFrom, Nodes[Id].SwapTo});
      std::reverse(S.AstarPath.begin(), S.AstarPath.end());
      for (auto [P1, P2] : S.AstarPath)
        Out.emitSwap(P1, P2);
      for (size_t C = 0; C < ChunkSize; ++C)
        Out.emitGate(Logical.gate(Chunk[C]));
      return true;
    }
    // Budget exhausted: resolve-and-emit each gate immediately (a later
    // gate's path may separate an earlier pair, so emission cannot wait).
    for (size_t C = 0; C < ChunkSize; ++C) {
      if (isCancelled())
        return false;
      const Gate &G = Logical.gate(Chunk[C]);
      Out.walkTogether(G);
      Out.emitGate(G);
    }
    return true;
  };

  // One span over the whole layered A* search (per-chunk spans would
  // flood the pool on deep circuits and touch the hot path).
  ScopedSpan SearchSpan(S.TraceSink, "qmap_astar");
  for (size_t LI = 0; LI + 1 < Bounds.size(); ++LI) {
    uint32_t Begin = Bounds[LI], End = Bounds[LI + 1];
    if (isCancelled()) {
      Result.Cancelled = true;
      break;
    }
    if (Cancel)
      Cancel->reportProgress(Begin, Logical.size());
    S.QmapTwoQ.clear();
    for (uint32_t GI = Begin; GI < End; ++GI)
      if (Logical.gate(GI).isTwoQubit())
        S.QmapTwoQ.push_back(GI);

    bool TimedOut = Clock.elapsedSeconds() > Options.TimeBudgetSeconds;
    if (TimedOut)
      Result.TimedOut = true;

    if (!S.QmapTwoQ.empty()) {
      if (TimedOut) {
        // Greedy completion so callers still receive a valid circuit.
        for (uint32_t GI : S.QmapTwoQ) {
          if (isCancelled()) {
            Result.Cancelled = true;
            break;
          }
          const Gate &G = Logical.gate(GI);
          Out.walkTogether(G);
          Out.emitGate(G);
        }
      } else {
        // Joint A* over chunks of at most MaxJointGates disjoint gates
        // (MQT QMAP splits large layers the same way to keep the search
        // space tractable).
        for (size_t ChunkBegin = 0; ChunkBegin < S.QmapTwoQ.size();
             ChunkBegin += MaxJointGates) {
          size_t ChunkEnd = std::min(S.QmapTwoQ.size(),
                                     ChunkBegin + MaxJointGates);
          if (!routeChunk(S.QmapTwoQ.data() + ChunkBegin,
                          ChunkEnd - ChunkBegin)) {
            Result.Cancelled = true;
            break;
          }
        }
      }
    }
    if (Result.Cancelled)
      break;
    // Single-qubit gates of the layer execute wherever their qubit sits.
    for (uint32_t GI = Begin; GI < End; ++GI)
      if (!Logical.gate(GI).isTwoQubit())
        Out.emitGate(Logical.gate(GI));
  }

  return Out.finish(Clock.elapsedSeconds());
}
