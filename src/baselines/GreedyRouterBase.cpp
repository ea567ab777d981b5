//===- baselines/GreedyRouterBase.cpp - Greedy routing skeleton -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The kernel runs entirely out of the caller's RoutingScratch: the
// candidate/distance arrays are reused across steps (and across route()
// calls sharing the scratch), and the look-ahead window is the
// epoch-stamped FrontLayerTracker one — no per-step heap allocation once
// the scratch is warm. The step state is the blocked front, the extended
// window and one scored record per gate of either; a SWAP re-derives the
// distances of the records on its two qubits (rederive).
//
//===----------------------------------------------------------------------===//

#include "baselines/GreedyRouterBase.h"

#include "route/SwapLoop.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>

using namespace qlosure;

class GreedyRouterBase::Kernel {
public:
  Kernel(detail::SwapLoopState &Loop, const GreedyRouterBase &Router)
      : Loop(Loop), Router(Router), Logical(Loop.Logical), Hw(Loop.Hw),
        S(Loop.S), Tracker(Loop.Tracker), Phi(Loop.Out.placement()),
        NeedMax(Router.usesFrontMax()) {}

  /// The step state: the blocked front gates (sorted), the extended
  /// window, and one scored record per gate of either — its current
  /// endpoints and base (no-swap) distance, listed under both hosting
  /// qubits. A candidate swap (P1, P2) can only change the distance of
  /// gates hosted on P1 or P2, so the per-candidate work is a handful of
  /// recomputed entries — instead of |front| + |extended| distance-matrix
  /// lookups per candidate.
  void buildStep() {
    S.FrontTwoQ.clear();
    for (uint32_t G : Tracker.front())
      if (Logical.gate(G).isTwoQubit())
        S.FrontTwoQ.push_back(G);
    std::sort(S.FrontTwoQ.begin(), S.FrontTwoQ.end());

    const size_t NumFront = S.FrontTwoQ.size();
    size_t WantExtended = Router.extendedWindowSize(NumFront);
    S.Extended.clear();
    if (WantExtended) {
      // The extended set is the first WantExtended non-front 2Q gates of
      // the window within NumFront + 4 * WantExtended gates. The window
      // opens with the front, so it stops once those 2Q gates are in.
      for (uint32_t G : Tracker.topologicalWindow(
               NumFront + 4 * WantExtended, NumFront + WantExtended))
        if (!Tracker.isInFront(G) && Logical.gate(G).isTwoQubit())
          S.Extended.push_back(G);
    }

    S.clearScored();
    S.GreedyBaseDists.clear();
    for (size_t I = 0; I < NumFront + S.Extended.size(); ++I) {
      const Gate &G = Logical.gate(I < NumFront ? S.FrontTwoQ[I]
                                                : S.Extended[I - NumFront]);
      unsigned PA = static_cast<unsigned>(Phi.physOf(G.Qubits[0]));
      unsigned PB = static_cast<unsigned>(Phi.physOf(G.Qubits[1]));
      S.addScored(PA, PB);
      S.GreedyBaseDists.push_back(Hw.distance(PA, PB));
    }
  }

  void rederive(uint32_t J) {
    S.GreedyBaseDists[J] = Hw.distance(S.ScoredPA[J], S.ScoredPB[J]);
  }

  size_t chooseSwap() {
    scoreCandidates();
    // Selection, in candidate order: a strictly better score clears
    // earlier ties; later within-tolerance scores join without lowering
    // the bar.
    double BestScore = std::numeric_limits<double>::infinity();
    S.BestIdx.clear();
    for (size_t CI = 0; CI < S.Candidates.size(); ++CI) {
      double Score = S.Scores[CI];
      if (Score < BestScore - 1e-12) {
        BestScore = Score;
        S.BestIdx.clear();
        S.BestIdx.push_back(CI);
      } else if (Score <= BestScore + 1e-12) {
        S.BestIdx.push_back(CI);
      }
    }
    return Router.randomTieBreak()
               ? S.BestIdx[static_cast<size_t>(
                     Loop.drawTie(S.BestIdx.size()))]
               : S.BestIdx.front();
  }

  auto snapshot() const {
    return std::make_tuple(S.FrontTwoQ, S.Extended, S.ScoredPA, S.ScoredPB,
                           S.TouchingGates, S.GreedyBaseDists);
  }

private:
  /// Lane scoring: the base (no-swap) sums are computed once per step;
  /// each candidate contributes integer deltas for its touched gates
  /// only, and the mapper's formula is then evaluated over the
  /// per-candidate SoA lanes (bit-identical to the full per-candidate
  /// recomputation because distance sums of small integers are exact in
  /// double).
  void scoreCandidates() {
    const size_t NumFront = S.FrontTwoQ.size();
    const size_t NumExt = S.Extended.size();
    const auto FrontEnd = S.GreedyBaseDists.begin() + NumFront;
    const uint64_t BaseFrontSum =
        std::accumulate(S.GreedyBaseDists.begin(), FrontEnd, uint64_t{0});
    const uint64_t BaseExtSum =
        std::accumulate(FrontEnd, FrontEnd + NumExt, uint64_t{0});
    unsigned BaseFrontMax = 0;
    if (NeedMax) {
      for (size_t I = 0; I < NumFront; ++I)
        BaseFrontMax = std::max(BaseFrontMax, S.GreedyBaseDists[I]);
      S.DistHist.assign(static_cast<size_t>(BaseFrontMax) + 1, 0);
      for (size_t I = 0; I < NumFront; ++I)
        ++S.DistHist[S.GreedyBaseDists[I]];
    }

    const size_t NumCand = S.Candidates.size();
    S.LaneFrontSum.resize(NumCand);
    S.LaneExtSum.resize(NumCand);
    S.LaneDecay.resize(NumCand);
    if (NeedMax)
      S.LaneFrontMax.resize(NumCand);
    for (size_t CI = 0; CI < NumCand; ++CI) {
      auto [P1, P2] = S.Candidates[CI];
      int64_t DeltaFront = 0, DeltaExt = 0;
      unsigned MaxNew = 0;
      S.TouchedOldD.clear();
      S.TouchedNewD.clear();
      auto patchGatesOn = [&](unsigned P, unsigned Other) {
        for (uint32_t I : S.TouchingGates[P]) {
          unsigned PA = S.ScoredPA[I];
          unsigned PB = S.ScoredPB[I];
          // A gate hosted on both swapped qubits keeps its distance: skip
          // it so it is neither recomputed nor counted from both lists.
          if (PA == Other || PB == Other)
            continue;
          unsigned NewPA = PA == P1 ? P2 : (PA == P2 ? P1 : PA);
          unsigned NewPB = PB == P1 ? P2 : (PB == P2 ? P1 : PB);
          unsigned D = Hw.distance(NewPA, NewPB);
          unsigned Old = S.GreedyBaseDists[I];
          if (I < NumFront) {
            DeltaFront += static_cast<int64_t>(D) - static_cast<int64_t>(Old);
            if (NeedMax) {
              S.TouchedOldD.push_back(Old);
              S.TouchedNewD.push_back(D);
              MaxNew = std::max(MaxNew, D);
            }
          } else {
            DeltaExt += static_cast<int64_t>(D) - static_cast<int64_t>(Old);
          }
        }
      };
      patchGatesOn(P1, P2);
      patchGatesOn(P2, P1);
      S.LaneFrontSum[CI] = static_cast<double>(
          static_cast<int64_t>(BaseFrontSum) + DeltaFront);
      S.LaneExtSum[CI] =
          static_cast<double>(static_cast<int64_t>(BaseExtSum) + DeltaExt);
      if (NeedMax) {
        // Patch the histogram, scan down from the highest possible bin,
        // then revert — O(touched + scan) instead of O(front) per
        // candidate, same integer maximum.
        unsigned Hi = std::max(BaseFrontMax, MaxNew);
        if (S.DistHist.size() < static_cast<size_t>(Hi) + 1)
          S.DistHist.resize(static_cast<size_t>(Hi) + 1, 0);
        for (size_t T = 0; T < S.TouchedOldD.size(); ++T) {
          --S.DistHist[S.TouchedOldD[T]];
          ++S.DistHist[S.TouchedNewD[T]];
        }
        unsigned M = Hi;
        while (M > 0 && S.DistHist[M] == 0)
          --M;
        S.LaneFrontMax[CI] = static_cast<double>(M);
        for (size_t T = 0; T < S.TouchedOldD.size(); ++T) {
          ++S.DistHist[S.TouchedOldD[T]];
          --S.DistHist[S.TouchedNewD[T]];
        }
      }
      // With no increment every decay stays 1.0 (Cirq, tket): skip the
      // two placement lookups.
      S.LaneDecay[CI] =
          Loop.Params.DecayIncrement != 0 ? Loop.maxDecay(P1, P2) : 1.0;
    }

    S.Scores.resize(NumCand);
    for (size_t CI = 0; CI < NumCand; ++CI)
      S.Scores[CI] = Router.scoreFromSums(
          S.LaneFrontSum[CI], S.LaneExtSum[CI],
          NeedMax ? S.LaneFrontMax[CI] : 0.0, S.LaneDecay[CI], NumFront,
          NumExt);
  }

  detail::SwapLoopState &Loop;
  const GreedyRouterBase &Router;
  const Circuit &Logical;
  const CouplingGraph &Hw;
  RoutingScratch &S;
  const FrontLayerTracker &Tracker;
  const QubitMapping &Phi;
  const bool NeedMax;
};

RoutingResult GreedyRouterBase::route(const RoutingContext &Ctx,
                                      const QubitMapping &Initial,
                                      RoutingScratch &Scratch,
                                      const CancellationToken *Cancel) {
  checkPreconditions(Ctx, Initial);
  detail::SwapLoop<Kernel> Loop(
      Ctx, Initial, Scratch, Cancel,
      {seed(), decayIncrement(), MaxSwapsWithoutProgress}, name(), *this);
  // One coarse span for the whole greedy loop (never per-step); a null
  // sink — the default — costs a single pointer test.
  return Loop.run("greedy_loop");
}
