//===- baselines/TketBounded.h - tket-style baseline mapper -------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// tket-style router (Cowtan et al., TQC 2019; Table I of the paper:
/// "time-sliced, bounded longest distance"): candidate SWAPs are ranked by
/// the *maximum* remaining qubit distance across the frontier slices, with
/// the distance sum as tie-breaker — bounding the worst pair rather than
/// the average.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_BASELINES_TKETBOUNDED_H
#define QLOSURE_BASELINES_TKETBOUNDED_H

#include "baselines/GreedyRouterBase.h"

namespace qlosure {

/// The tket-style baseline.
class TketBoundedRouter : public GreedyRouterBase {
public:
  std::string name() const override { return "Pytket"; }

  /// Two-qubit gates in the look-ahead window past the front slice.
  static constexpr size_t LookaheadGates = 8;
  /// Weight of the look-ahead distance sum.
  static constexpr double LookaheadWeight = 0.25;

protected:
  size_t extendedWindowSize(size_t) const override { return LookaheadGates; }
  double scoreFromSums(double FrontSum, double ExtSum, double FrontMax,
                       double MaxDecay, size_t NumFront,
                       size_t NumExt) const override;
  bool usesFrontMax() const override { return true; }
};

} // namespace qlosure

#endif // QLOSURE_BASELINES_TKETBOUNDED_H
