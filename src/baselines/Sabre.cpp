//===- baselines/Sabre.cpp - SABRE baseline mapper -------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/Sabre.h"

using namespace qlosure;

double SabreRouter::scoreFromSums(double FrontSum, double ExtSum,
                                  double /*FrontMax*/, double MaxDecay,
                                  size_t NumFront, size_t NumExt) const {
  double Score =
      NumFront == 0 ? 0.0 : FrontSum / static_cast<double>(NumFront);
  if (NumExt != 0)
    Score += ExtendedWeight * ExtSum / static_cast<double>(NumExt);
  return MaxDecay * Score;
}
