//===- core/RoutingLoop.cpp - The Qlosure routing kernel -----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The main loop runs out of the caller's RoutingScratch: the look-ahead
// window and its dependence levels come from one BFS whose per-gate state
// is epoch-stamped (O(1) reset per build instead of O(numGates) refills),
// the per-qubit touching-gate lists are cleared surgically via the
// touched-set, and every candidate/score array is a reused flat buffer.
// The step state is built only on a step that follows executed gates; the
// swap-only steps after it reuse it, with each SWAP patching the records
// on its two qubits (emitSwap). Only the gates hosted on a candidate's two
// qubits contribute per-candidate term deltas (delta rescoring against the
// cached per-layer base sums); Eq. 2 is then evaluated element-wise over
// SoA candidate lanes. The golden digests (tests/GoldenRouteTest.cpp) pin
// the decision sequence.
//
// Replay hooks: every observable emission (program gate, SWAP, tie-break
// decision, look-ahead window) passes through the attached ReplayDriver
// when one is set. With no driver every hook is a single null check.
//
//===----------------------------------------------------------------------===//

#include "core/RoutingLoop.h"

#include "route/ReplayPlan.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <tuple>

using namespace qlosure;
using qlosure::detail::RoutingLoop;

RoutingLoop::RoutingLoop(const QlosureOptions &Options,
                         const RoutingContext &Ctx,
                         const QubitMapping &Initial, RoutingScratch &Scratch,
                         const CancellationToken *Cancel)
    : Options(Options), Logical(Ctx.circuit()), Hw(Ctx.hardware()),
      S(Scratch), Tracker(Ctx.dag(), Scratch), Phi(Initial),
      TieBreaker(Options.Seed), Cancel(Cancel) {
  S.ensurePhys(Hw.numQubits());
  S.Decay.assign(Logical.numQubits(), 1.0);
  LookaheadC = Options.LookaheadConstant ? Options.LookaheadConstant
                                         : Ctx.defaultLookahead();
  BreakTiesByEdgeError = Options.ErrorAware && Hw.hasErrorModel();
  if (Options.UseDependencyWeights) {
    // Computed by the context's first reader and memoized for the rest:
    // the span times omega on a route that computes it, a lookup after.
    ScopedSpan Span(S.TraceSink, "ctx_weights");
    Weights = &Ctx.dependenceWeights();
  }
  Result.Routed = Circuit(Hw.numQubits(), Logical.name() + ".routed");
  Result.InitialMapping = Initial;
  Result.RouterName = "Qlosure";
}

RoutingResult RoutingLoop::run() {
  Timer Clock;
  // One span around the whole front-layer loop (never per-step: tracing
  // must stay off the hot path), recorded only when the serving layer
  // installed a sink.
  ScopedSpan LoopSpan(S.TraceSink, "front_layer_loop");
  while (!Tracker.allExecuted()) {
    // One cancellation poll + progress report per front-layer step: a
    // null token costs one branch and never perturbs the decisions.
    if (Cancel) {
      if (Cancel->cancelled()) {
        Result.Cancelled = true;
        break;
      }
      Cancel->reportProgress(Tracker.numExecuted(), Logical.size());
    }
    // Period boundary: the driver replays a recorded schedule (or starts
    // recording one) and returns true when it executed gates itself.
    if (Replay && Replay->maybeHandleBoundary(*this))
      continue;
    if (executeReadyGates())
      continue;
    routeOneSwap();
  }
  if (Replay)
    Replay->finalize();
  Result.FinalMapping = Phi;
  Result.MappingSeconds = Clock.elapsedSeconds();
  return std::move(Result);
}

/// Executes every currently feasible front gate. Returns true if at
/// least one gate was executed.
bool RoutingLoop::executeReadyGates() {
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
      emitProgramGate(G);
      Tracker.execute(G);
      Changed = true;
      Progress = true;
    }
  }
  if (Progress) {
    // Algorithm 1 line 9: executing a gate resets the decay vector.
    std::fill(S.Decay.begin(), S.Decay.end(), 1.0);
    SwapsSinceProgress = 0;
  }
  return Progress;
}

bool RoutingLoop::isExecutable(uint32_t GateId) const {
  const Gate &G = Logical.gate(GateId);
  if (!G.isTwoQubit())
    return true;
  return Hw.areAdjacent(static_cast<unsigned>(Phi.physOf(G.Qubits[0])),
                        static_cast<unsigned>(Phi.physOf(G.Qubits[1])));
}

void RoutingLoop::emitProgramGate(uint32_t GateId) {
  const Gate &G = Logical.gate(GateId);
  Result.Routed.addGate(
      G.withMappedQubits([this](int32_t Q) { return Phi.physOf(Q); }));
  Result.InsertedSwapFlags.push_back(0);
  if (Replay)
    Replay->noteGateExecuted(GateId);
}

void RoutingLoop::emitSwap(unsigned P1, unsigned P2) {
  Result.Routed.addSwap(static_cast<int32_t>(P1), static_cast<int32_t>(P2));
  Result.InsertedSwapFlags.push_back(1);
  ++Result.NumSwaps;
  // Decay penalizes the *logical* qubits that moved.
  int32_t L1 = Phi.logOf(static_cast<int32_t>(P1));
  int32_t L2 = Phi.logOf(static_cast<int32_t>(P2));
  Phi.swapPhysical(static_cast<int32_t>(P1), static_cast<int32_t>(P2));
  if (L1 >= 0)
    S.Decay[static_cast<size_t>(L1)] += Options.DecayIncrement;
  if (L2 >= 0)
    S.Decay[static_cast<size_t>(L2)] += Options.DecayIncrement;
  // The window and its layers outlive the swap: move the base terms of the
  // scored gates on P1 and P2. Terms are (omega + 1) * D, integers far
  // below 2^53, so the patched layer sums equal a rebuild's bit for bit.
  if (StepBuiltAt == Tracker.numExecuted())
    S.swapScored(P1, P2, [this](uint32_t J) {
      double Base = S.WinOmega[J] * static_cast<double>(Hw.distance(
                                        S.ScoredPA[J], S.ScoredPB[J]));
      S.LayerBaseSum[S.WinLevel[J]] += Base - S.WinBase[J];
      S.WinBase[J] = Base;
    });
  if (Replay)
    Replay->noteSwapEmitted(P1, P2);
}

/// Applies the best-scoring candidate SWAP, building the look-ahead window
/// and its dependence-distance layers first when a gate has executed since
/// they were last built.
void RoutingLoop::routeOneSwap() {
  if (SwapsSinceProgress >= Options.MaxSwapsWithoutProgress) {
    forceResolveOldestGate();
    return;
  }

  if (StepBuiltAt != Tracker.numExecuted()) {
    buildWindowLayers();
  }
#ifndef NDEBUG
  else {
    // Assertion builds only: the patched state must equal a rebuild.
    auto Patched =
        std::make_tuple(S.Window, S.ScoredPA, S.ScoredPB, S.TouchingGates,
                        S.WinLevel, S.WinOmega, S.WinBase, S.LayerGateCount,
                        S.LayerBaseSum);
    buildWindowLayers();
    assert(Patched == std::tie(S.Window, S.ScoredPA, S.ScoredPB,
                               S.TouchingGates, S.WinLevel, S.WinOmega,
                               S.WinBase, S.LayerGateCount, S.LayerBaseSum) &&
           "a patched step differs from a rebuild");
  }
#endif
  if (Replay)
    Replay->noteWindow(S.Window);
  // Every front gate is a blocked 2Q gate here, and the window opens with
  // the sorted front, so the front's records come first.
  S.generateCandidates(Hw, Tracker.front().size());
  assert(!S.Candidates.empty() && "no candidate SWAPs on a connected graph");

  scoreCandidates();
  double BestScore = std::numeric_limits<double>::infinity();
  for (size_t CI = 0; CI < S.Candidates.size(); ++CI)
    BestScore = std::min(BestScore, S.Scores[CI]);

  // Error-aware extension: among *exact* cost ties, prefer the
  // candidate on the least noisy coupler. Refining ties cannot perturb
  // the greedy descent of Eq. 2 at all (experiments with relaxed
  // margins, and with folding errors into the distance metric, both
  // ballooned swap counts on dense circuits — cost slack compounds over
  // thousands of decisions).
  S.BestIdx.clear();
  for (size_t CI = 0; CI < S.Candidates.size(); ++CI)
    if (S.Scores[CI] <= BestScore + 1e-12)
      S.BestIdx.push_back(CI);
  if (BreakTiesByEdgeError && S.BestIdx.size() > 1) {
    double MinError = std::numeric_limits<double>::infinity();
    for (size_t CI : S.BestIdx)
      MinError = std::min(MinError, Hw.edgeError(S.Candidates[CI].first,
                                                 S.Candidates[CI].second));
    size_t Kept = 0;
    for (size_t CI : S.BestIdx)
      if (Hw.edgeError(S.Candidates[CI].first, S.Candidates[CI].second) <=
          MinError + 1e-12)
        S.BestIdx[Kept++] = CI;
    S.BestIdx.resize(Kept);
  }
  uint64_t Draw = TieBreaker.nextBounded(S.BestIdx.size());
  if (Replay)
    Replay->noteDecision(S.BestIdx.size(), Draw);
  size_t Pick = S.BestIdx[static_cast<size_t>(Draw)];
  emitSwap(S.Candidates[Pick].first, S.Candidates[Pick].second);
  ++SwapsSinceProgress;
}

/// Termination escape hatch: walk the oldest front 2Q gate's operands
/// together along a shortest path.
void RoutingLoop::forceResolveOldestGate() {
  uint32_t Oldest = UINT32_MAX;
  for (uint32_t G : Tracker.front())
    if (Logical.gate(G).isTwoQubit())
      Oldest = std::min(Oldest, G);
  assert(Oldest != UINT32_MAX && "stuck without a blocked 2Q gate");
  const Gate &G = Logical.gate(Oldest);
  unsigned P1 = static_cast<unsigned>(Phi.physOf(G.Qubits[0]));
  unsigned P2 = static_cast<unsigned>(Phi.physOf(G.Qubits[1]));
  std::vector<unsigned> Path = Hw.shortestPath(P1, P2);
  // Move the first operand down the path until adjacent to the second.
  for (size_t I = 0; I + 2 < Path.size(); ++I)
    emitSwap(Path[I], Path[I + 1]);
  SwapsSinceProgress = 0;
}

/// Populates S.Window / S.WindowLevel / the layer accumulators and the
/// scored records for the current front, and marks them valid until the
/// next gate executes.
void RoutingLoop::buildWindowLayers() {
  // n_f = distinct physical qubits hosting front-layer gate operands.
  S.PhysSeen.beginEpoch();
  unsigned NumFrontQubits = 0;
  for (uint32_t GI : Tracker.front()) {
    const Gate &G = Logical.gate(GI);
    unsigned N = G.numQubits();
    for (unsigned Q = 0; Q < N; ++Q) {
      unsigned P = static_cast<unsigned>(Phi.physOf(G.Qubits[Q]));
      if (!S.PhysSeen.fresh(P)) {
        S.PhysSeen.set(P, 1);
        ++NumFrontQubits;
      }
    }
  }

  // Dependence-distance levels within the window come with it (see
  // FrontLayerTracker::topologicalWindow): only two-qubit gates deepen a
  // level, since only routable gates define dependence distance for Eq. 2.
  if (!Options.UseLayerStructure) {
    // Distance-only / front-only variants: the window is just L_f.
    S.Window.assign(Tracker.front().begin(), Tracker.front().end());
    std::sort(S.Window.begin(), S.Window.end());
    S.WindowLevel.assign(S.Window.size(), 1);
  } else {
    size_t WindowSize = static_cast<size_t>(LookaheadC) * NumFrontQubits;
    // The budget counts two-qubit gates: they are the ones the cost
    // function scores, so sparse circuits with many interleaved 1Q
    // gates keep a comparable routing horizon, within 8x that many gates.
    WindowSize = std::max<size_t>(WindowSize, 1);
    Tracker.topologicalWindow(8 * WindowSize, WindowSize); // Fills S.Window.
  }
  unsigned MaxLevel = 0;
  for (uint32_t L : S.WindowLevel)
    MaxLevel = std::max(MaxLevel, L);

  // Per-layer 2Q-gate membership and base distance sums, plus the flat
  // per-scored-gate records (endpoints, layer, omega, cached base term)
  // the candidate delta pass reads — TouchingGates stores the scored
  // ordinal, so rescoring never goes back to the Gate objects. The term
  // is omega_g * D(PA, PB), omega forced to 1 without dependency weights.
  // D stays the hop metric even in error-aware mode — a weighted metric
  // has a per-edge error floor, so swaps toward true adjacency would not
  // reduce it and routing would stop converging; error-aware mode instead
  // breaks exact score ties toward the least noisy coupler (see
  // routeOneSwap).
  S.LayerGateCount.assign(MaxLevel + 1, 0);
  S.LayerBaseSum.assign(MaxLevel + 1, 0.0);
  S.WinLevel.clear();
  S.WinOmega.clear();
  S.WinBase.clear();
  S.clearScored();
  for (size_t I = 0; I < S.Window.size(); ++I) {
    const Gate &Gate2 = Logical.gate(S.Window[I]);
    if (!Gate2.isTwoQubit())
      continue;
    unsigned L = S.WindowLevel[I];
    ++S.LayerGateCount[L];
    unsigned PA = static_cast<unsigned>(Phi.physOf(Gate2.Qubits[0]));
    unsigned PB = static_cast<unsigned>(Phi.physOf(Gate2.Qubits[1]));
    double Omega = Options.UseDependencyWeights
                       ? static_cast<double>((*Weights)[S.Window[I]]) + 1.0
                       : 1.0;
    double Base = Omega * static_cast<double>(Hw.distance(PA, PB));
    S.LayerBaseSum[L] += Base;
    S.addScored(PA, PB);
    S.WinLevel.push_back(L);
    S.WinOmega.push_back(Omega);
    S.WinBase.push_back(Base);
  }
  assert(std::all_of(S.Window.begin(),
                     S.Window.begin() +
                         static_cast<ptrdiff_t>(Tracker.front().size()),
                     [this](uint32_t G) {
                       return Tracker.isInFront(G) &&
                              Logical.gate(G).isTwoQubit();
                     }) &&
         "the window must open with the front's blocked 2Q gates");
  StepBuiltAt = Tracker.numExecuted();
}

/// Evaluates Eq. 2 for every candidate SWAP at once. Per candidate, only
/// the gates hosted on the swapped qubits contribute term deltas (delta
/// rescoring against the cached per-layer base sums); the deltas land in
/// layer-major SoA lanes and the layer combine + decay multiply then run
/// element-wise across candidates (bit-identical to the per-candidate
/// evaluation: each lane performs the same operation sequence, and a gate
/// on both swapped qubits has an exactly zero delta, so skipping it never
/// changes a bit).
void RoutingLoop::scoreCandidates() {
  const size_t NumCand = S.Candidates.size();
  const size_t NumLayers = S.LayerBaseSum.size();
  S.LaneAdjust.assign(NumLayers * NumCand, 0.0);
  S.LaneDecay.resize(NumCand);

  for (size_t CI = 0; CI < NumCand; ++CI) {
    auto [P1, P2] = S.Candidates[CI];
    auto adjustGatesOn = [&](unsigned P, unsigned Other) {
      for (uint32_t J : S.TouchingGates[P]) {
        unsigned PA = S.ScoredPA[J];
        unsigned PB = S.ScoredPB[J];
        if (PA == Other || PB == Other)
          continue; // Gate touches both swapped qubits: delta is zero.
        unsigned NewPA = PA == P1 ? P2 : (PA == P2 ? P1 : PA);
        unsigned NewPB = PB == P1 ? P2 : (PB == P2 ? P1 : PB);
        S.LaneAdjust[static_cast<size_t>(S.WinLevel[J]) * NumCand + CI] +=
            S.WinOmega[J] * static_cast<double>(Hw.distance(NewPA, NewPB)) -
            S.WinBase[J];
      }
    };
    adjustGatesOn(P1, P2);
    adjustGatesOn(P2, P1);

    int32_t L1 = Phi.logOf(static_cast<int32_t>(P1));
    int32_t L2 = Phi.logOf(static_cast<int32_t>(P2));
    double D1 = L1 >= 0 ? S.Decay[static_cast<size_t>(L1)] : 1.0;
    double D2 = L2 >= 0 ? S.Decay[static_cast<size_t>(L2)] : 1.0;
    S.LaneDecay[CI] = std::max(D1, D2);
  }

  S.Scores.assign(NumCand, 0.0);
  for (size_t L = 1; L < NumLayers; ++L) {
    if (S.LayerGateCount[L] == 0)
      continue;
    // Eq. 2: the 1/l dependence-distance discount, then the layer's
    // gate-count normalization, accumulated in ascending layer order.
    const double Base = S.LayerBaseSum[L];
    const double Layer = static_cast<double>(L);
    const double Count = static_cast<double>(S.LayerGateCount[L]);
    const double *Adj = S.LaneAdjust.data() + L * NumCand;
    for (size_t CI = 0; CI < NumCand; ++CI)
      S.Scores[CI] += ((Base + Adj[CI]) / Layer) / Count;
  }
  for (size_t CI = 0; CI < NumCand; ++CI)
    S.Scores[CI] = S.LaneDecay[CI] * S.Scores[CI];
}

bool RoutingLoop::replayEmitGate(uint32_t GateId) {
  if (GateId >= Logical.size() || !Tracker.isInFront(GateId) ||
      !isExecutable(GateId))
    return false;
  emitProgramGate(GateId);
  Tracker.execute(GateId);
  return true;
}

void RoutingLoop::replayEmitSwap(unsigned P1, unsigned P2) {
  emitSwap(P1, P2);
}

void RoutingLoop::replayResetProgress() {
  std::fill(S.Decay.begin(), S.Decay.end(), 1.0);
  SwapsSinceProgress = 0;
}
