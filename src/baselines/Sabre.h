//===- baselines/Sabre.h - SABRE baseline mapper ------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SABRE-style router (Li, Ding, Xie — ASPLOS 2019; LightSABRE variant of
/// Zou et al. 2024): a front layer plus one flat extended window, scored by
///
///   H(s) = max(decay) * [ 1/|F| * sum_F D + W * 1/|E| * sum_E D ]
///
/// with W = 0.5 and decay preventing swap thrashing. Supports the
/// bidirectional initial-mapping passes of the original paper through
/// route/InitialMapping.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_BASELINES_SABRE_H
#define QLOSURE_BASELINES_SABRE_H

#include "baselines/GreedyRouterBase.h"

namespace qlosure {

/// The SABRE baseline.
class SabreRouter : public GreedyRouterBase {
public:
  std::string name() const override { return "SABRE"; }

  /// Two-qubit gates in the extended window past the front layer.
  static constexpr size_t ExtendedSetSize = 20;
  /// Weight W of the extended window's term.
  static constexpr double ExtendedWeight = 0.5;
  /// Decay increment per applied SWAP.
  static constexpr double DecayIncrement = 0.001;
  /// Seed of the random tie-break.
  static constexpr uint64_t Seed = 0x5AB3E5EEDULL;

protected:
  size_t extendedWindowSize(size_t) const override { return ExtendedSetSize; }
  double scoreFromSums(double FrontSum, double ExtSum, double FrontMax,
                       double MaxDecay, size_t NumFront,
                       size_t NumExt) const override;
  double decayIncrement() const override { return DecayIncrement; }
  bool randomTieBreak() const override { return true; }
  uint64_t seed() const override { return Seed; }
};

} // namespace qlosure

#endif // QLOSURE_BASELINES_SABRE_H
