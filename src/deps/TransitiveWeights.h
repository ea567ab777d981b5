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
/// i.e. the number of transitive dependents of each gate. Two engines:
///
///  * Exact: one reverse sweep over the gates. On each wire the gates that
///    g reaches form a suffix, so omega(g) sums one suffix count per wire.
///    O(gates x qubits) time; at most qubits + 1 per-wire count vectors
///    are live. Auto runs it up to ExactGateLimit gates.
///  * Affine: the paper's scalable path. The circuit is lifted to
///    macro-gates, the statement-level dependence graph is closed, and
///    per-gate counts are evaluated in O(1) amortized from piecewise-affine
///    instance counts (exact single-stride self-dependences use the
///    closed-form closure count). Produces a sound upper bound of the
///    exact weights (IsExact is false): for a reachable statement it counts
///    every later instance, reachable or not. On a uniform loop the bound
///    is close but not tight: 29,986 of the 32,000 weights of
///    qftLikeKernel(16, 1000) exceed exact, by 0.4% on average and by up
///    to 8x near the end of the trace.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_DEPS_TRANSITIVEWEIGHTS_H
#define QLOSURE_DEPS_TRANSITIVEWEIGHTS_H

#include "circuit/Circuit.h"

#include <cstdint>
#include <vector>

namespace qlosure {

/// Which omega engine to run.
enum class WeightEngine : uint8_t {
  Exact,  ///< Per-wire reverse sweep over the gates (ground truth).
  Affine, ///< Statement-level closure over the lifted IR (scalable).
  Auto    ///< Affine beyond ExactGateLimit gates, Exact below.
};

/// Auto switches to the affine engine above this many gates. The exact
/// sweep would serve larger circuits too (it needs no V^2 memory); the
/// limit stays so that weighted routes of circuits past it, which read the
/// affine bound, do not change.
constexpr size_t ExactGateLimit = 30000;

/// Result of a weight computation.
struct WeightResult {
  std::vector<uint64_t> Weights; ///< One entry per gate (trace order).
  WeightEngine UsedEngine = WeightEngine::Exact;
  /// True when Weights are exactly omega; false for the affine upper bound.
  bool IsExact = true;
  /// Gates per statement achieved by the lifter (Affine engine only).
  double CompressionRatio = 1.0;
};

/// Computes omega for every gate of \p Circ (which must contain unitary
/// gates only) with \p Engine.
WeightResult computeDependenceWeights(const Circuit &Circ,
                                      WeightEngine Engine = WeightEngine::Auto);

} // namespace qlosure

#endif // QLOSURE_DEPS_TRANSITIVEWEIGHTS_H
