//===- core/QlosureKernel.cpp - Qlosure's kernel of the swap loop --------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The kernel runs out of the caller's RoutingScratch: the look-ahead
// window and its dependence levels come from one BFS whose per-gate state
// is epoch-stamped (O(1) reset per build instead of O(numGates) refills),
// the per-qubit touching-gate lists are cleared surgically via the
// touched-set, and every candidate/score array is a reused flat buffer.
// Only the gates hosted on a candidate's two qubits contribute
// per-candidate term deltas (delta rescoring against the cached per-layer
// base sums); Eq. 2 is then evaluated element-wise over SoA candidate
// lanes.
//
//===----------------------------------------------------------------------===//

#include "core/QlosureKernel.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace qlosure;
using qlosure::detail::QlosureKernel;

QlosureKernel::QlosureKernel(SwapLoopState &Loop,
                             const QlosureOptions &Options,
                             const RoutingContext &Ctx)
    : Loop(Loop), Options(Options), Logical(Loop.Logical), Hw(Loop.Hw),
      S(Loop.S), Tracker(Loop.Tracker), Phi(Loop.Out.placement()),
      LookaheadC(Ctx.defaultLookahead()) {
  BreakTiesByEdgeError = Options.ErrorAware && Hw.hasErrorModel();
  if (Options.UseDependencyWeights) {
    // Computed by the context's first reader and memoized for the rest:
    // the span times omega on a route that computes it, a lookup after.
    ScopedSpan Span(S.TraceSink, "ctx_weights");
    Weights = &Ctx.dependenceWeights();
  }
}

void QlosureKernel::buildStep() {
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
  // chooseSwap).
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
}

size_t QlosureKernel::chooseSwap() {
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
  return S.BestIdx[static_cast<size_t>(Loop.drawTie(S.BestIdx.size()))];
}

/// Evaluates Eq. 2 for every candidate SWAP at once. Per candidate, only
/// the gates hosted on the swapped qubits contribute term deltas (delta
/// rescoring against the cached per-layer base sums); the deltas land in
/// layer-major SoA lanes and the layer combine + decay multiply then run
/// element-wise across candidates (bit-identical to the per-candidate
/// evaluation: each lane performs the same operation sequence, and a gate
/// on both swapped qubits has an exactly zero delta, so skipping it never
/// changes a bit).
void QlosureKernel::scoreCandidates() {
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

    S.LaneDecay[CI] = Loop.maxDecay(P1, P2);
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
