//===- baselines/CirqGreedy.cpp - Cirq-style baseline mapper --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/CirqGreedy.h"

using namespace qlosure;

double CirqGreedyRouter::scoreFromSums(double FrontSum, double ExtSum,
                                       double /*FrontMax*/,
                                       double /*MaxDecay*/, size_t /*NumFront*/,
                                       size_t /*NumExt*/) const {
  return FrontSum + NextSliceWeight * ExtSum;
}
