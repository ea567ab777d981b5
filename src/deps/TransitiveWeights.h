//===- deps/TransitiveWeights.h - Dependence weight omega ---------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependence-weight function omega of the paper (Eq. 1):
///
///   omega(g) = card({ h : (g, h) in R_dep+ })
///
/// i.e. the number of transitive dependents of each gate, computed exactly
/// by one reverse sweep over the gates. On each wire the gates that g
/// reaches form a suffix, so omega(g) sums one suffix count per wire.
/// O(gates x qubits) time; at most qubits + 1 per-wire count vectors are
/// live. The paper gets the same count from ISL transitive closure and
/// Barvinok counting over its affine abstraction.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_DEPS_TRANSITIVEWEIGHTS_H
#define QLOSURE_DEPS_TRANSITIVEWEIGHTS_H

#include "circuit/Circuit.h"

#include <cstdint>
#include <vector>

namespace qlosure {

/// Inert: only perfbench/Layers.cpp reads it, for ctx.omega_affine_frac.
enum class WeightEngine : uint8_t { Exact, Affine };

/// Result of a weight computation.
struct WeightResult {
  std::vector<uint64_t> Weights; ///< One entry per gate (trace order).
  /// Inert: perfbench/Layers.cpp reads it for ctx.omega_affine_frac.
  WeightEngine UsedEngine = WeightEngine::Exact;
  /// Inert: perfbench/Layers.cpp reads it for ctx.omega_compression.
  double CompressionRatio = 1.0;
};

/// Computes omega for every gate of \p Circ, which must contain unitary
/// gates only.
WeightResult computeDependenceWeights(const Circuit &Circ);

} // namespace qlosure

#endif // QLOSURE_DEPS_TRANSITIVEWEIGHTS_H
