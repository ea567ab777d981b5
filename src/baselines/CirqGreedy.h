//===- baselines/CirqGreedy.h - Cirq-style baseline mapper --------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cirq-style router (Table I of the paper: "time-sliced, qubit
/// distance"): greedily minimizes the total qubit distance of the current
/// time slice plus a discounted next slice, without decay — the classic
/// distance-only strategy the paper contrasts against.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_BASELINES_CIRQGREEDY_H
#define QLOSURE_BASELINES_CIRQGREEDY_H

#include "baselines/GreedyRouterBase.h"

namespace qlosure {

/// The Cirq-style baseline.
class CirqGreedyRouter : public GreedyRouterBase {
public:
  std::string name() const override { return "Cirq"; }

  /// The next-slice window scales with the current slice size.
  static constexpr double SliceWindowFactor = 1.0;
  /// Weight of the next slice's distance sum.
  static constexpr double NextSliceWeight = 0.5;

protected:
  size_t extendedWindowSize(size_t NumFrontGates) const override {
    return static_cast<size_t>(
        SliceWindowFactor * static_cast<double>(NumFrontGates)) + 1;
  }
  double scoreFromSums(double FrontSum, double ExtSum, double FrontMax,
                       double MaxDecay, size_t NumFront,
                       size_t NumExt) const override;
};

} // namespace qlosure

#endif // QLOSURE_BASELINES_CIRQGREEDY_H
