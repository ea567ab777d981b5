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

/// SABRE tuning options.
struct SabreOptions {
  size_t ExtendedSetSize = 20;
  double ExtendedWeight = 0.5;
  double DecayIncrement = 0.001;
  uint64_t Seed = 0x5AB3E5EEDULL;
};

/// The SABRE baseline.
class SabreRouter : public GreedyRouterBase {
public:
  explicit SabreRouter(SabreOptions Options = {}) : Options(Options) {}

  std::string name() const override { return "SABRE"; }

protected:
  size_t extendedWindowSize(size_t) const override {
    return Options.ExtendedSetSize;
  }
  double scoreFromSums(double FrontSum, double ExtSum, double FrontMax,
                       double MaxDecay, size_t NumFront,
                       size_t NumExt) const override;
  bool usesDecay() const override { return true; }
  double decayIncrement() const override { return Options.DecayIncrement; }
  bool randomTieBreak() const override { return true; }
  uint64_t seed() const override { return Options.Seed; }

private:
  SabreOptions Options;
};

} // namespace qlosure

#endif // QLOSURE_BASELINES_SABRE_H
