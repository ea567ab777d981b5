//===- core/QlosureKernel.h - Qlosure's kernel of the swap loop ---*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What Qlosure adds to the shared swap loop (route/SwapLoop.h): the
/// look-ahead window of k = c * n_f gates in dependence-distance layers,
/// the omega-weighted Eq. 2 cost of each candidate SWAP, and Qlosure's
/// tie rule (every score within 1e-12 of the minimum, the error-aware
/// filter, then always a draw).
///
/// The step state is the window, its levels, the per-layer gate counts
/// and base sums, and the scored-gate records with their layer, omega and
/// cached base term. A SWAP re-derives the base terms of the records on
/// its two qubits (rederive). Only the gates hosted on a candidate's two
/// qubits contribute per-candidate term deltas; the deltas land in
/// layer-major SoA lanes and Eq. 2 is then evaluated element-wise across
/// all candidates at once.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_CORE_QLOSUREKERNEL_H
#define QLOSURE_CORE_QLOSUREKERNEL_H

#include "core/Qlosure.h"
#include "route/SwapLoop.h"

#include <tuple>

namespace qlosure {
namespace detail {

class QlosureKernel {
public:
  QlosureKernel(SwapLoopState &Loop, const QlosureOptions &Options,
                const RoutingContext &Ctx);

  /// Populates S.Window / S.WindowLevel, the layer accumulators and the
  /// scored records for the current front.
  void buildStep();

  /// Re-derives record \p J's base term after a SWAP moved its endpoints.
  /// Terms are (omega + 1) * D, integers far below 2^53, so the patched
  /// layer sums equal a rebuild's bit for bit.
  void rederive(uint32_t J) {
    double Base = S.WinOmega[J] *
                  static_cast<double>(Hw.distance(S.ScoredPA[J], S.ScoredPB[J]));
    S.LayerBaseSum[S.WinLevel[J]] += Base - S.WinBase[J];
    S.WinBase[J] = Base;
  }

  /// Scores every candidate by Eq. 2 and draws among the best.
  size_t chooseSwap();

  auto snapshot() const {
    return std::make_tuple(S.Window, S.ScoredPA, S.ScoredPB, S.TouchingGates,
                           S.WinLevel, S.WinOmega, S.WinBase,
                           S.LayerGateCount, S.LayerBaseSum);
  }

  /// Omega per gate, or null without dependency weights.
  const std::vector<uint64_t> *weights() const { return Weights; }

private:
  void scoreCandidates();

  SwapLoopState &Loop;
  const QlosureOptions &Options;
  const Circuit &Logical;
  const CouplingGraph &Hw;
  RoutingScratch &S;
  const FrontLayerTracker &Tracker;
  const QubitMapping &Phi;
  const std::vector<uint64_t> *Weights = nullptr;
  /// Look-ahead constant c in k = c * n_f: 2 * maxDegree(R_hw) + 2.
  unsigned LookaheadC = 0;
  /// Error-aware mode on a calibrated graph: among exactly tied best
  /// candidates, keep only those on the least noisy coupler.
  bool BreakTiesByEdgeError = false;
};

} // namespace detail
} // namespace qlosure

#endif // QLOSURE_CORE_QLOSUREKERNEL_H
