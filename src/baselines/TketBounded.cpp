//===- baselines/TketBounded.cpp - tket-style baseline mapper --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/TketBounded.h"

using namespace qlosure;

double TketBoundedRouter::scoreFromSums(double FrontSum, double ExtSum,
                                        double FrontMax, double /*MaxDecay*/,
                                        size_t /*NumFront*/,
                                        size_t /*NumExt*/) const {
  // Lexicographic (max distance, total distance) folded into one value:
  // the max dominates, the sum breaks ties among equal maxima.
  return FrontMax * 1e6 + FrontSum + LookaheadWeight * ExtSum;
}
