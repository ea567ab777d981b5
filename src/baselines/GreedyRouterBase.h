//===- baselines/GreedyRouterBase.h - Greedy routing skeleton -----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel of the shared swap loop (route/SwapLoop.h) behind the
/// SABRE-, Cirq- and tket-style baseline routers: the step state is the
/// blocked front plus a flat extended window, a candidate SWAP is scored
/// from the post-swap distance sums of the two, and the first minimal
/// candidate wins unless the subclass draws among ties. Subclasses only
/// provide the cost function and window sizing — the differences Table I
/// of the paper identifies; Qlosure is the loop's other kernel.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_BASELINES_GREEDYROUTERBASE_H
#define QLOSURE_BASELINES_GREEDYROUTERBASE_H

#include "route/Router.h"

#include <cstdint>
#include <vector>

namespace qlosure {

/// Base class for one-swap-at-a-time greedy routers.
class GreedyRouterBase : public Router {
public:
  using Router::route;
  RoutingResult route(const RoutingContext &Ctx, const QubitMapping &Initial,
                      RoutingScratch &Scratch,
                      const CancellationToken *Cancel) final;

protected:
  /// Number of look-ahead gates beyond the front layer the subclass wants
  /// (two-qubit gates only). 0 disables the extended window.
  virtual size_t extendedWindowSize(size_t NumFrontGates) const = 0;

  /// Scores one candidate SWAP from its precomputed lane values; lower is
  /// better. \p FrontSum and \p ExtSum are the post-swap distance sums of
  /// the blocked front gates and the extended-window gates (exact
  /// integers in double), \p FrontMax the post-swap maximum front
  /// distance (only meaningful when usesFrontMax()), \p MaxDecay is
  /// max(delta_q1, delta_q2) of the swapped logical qubits (always 1.0
  /// under a zero decayIncrement()). \p NumFront / \p NumExt are the gate
  /// counts behind the sums.
  virtual double scoreFromSums(double FrontSum, double ExtSum,
                               double FrontMax, double MaxDecay,
                               size_t NumFront, size_t NumExt) const = 0;

  /// Whether the score needs the maximum front distance (tket's
  /// lexicographic fold); gates the per-candidate histogram upkeep.
  virtual bool usesFrontMax() const { return false; }

  /// SABRE decay increment per swap; 0 leaves every decay at 1.0, and the
  /// loop then skips the decay work.
  virtual double decayIncrement() const { return 0.0; }

  /// Deterministic tie-breaking: first minimal candidate wins when false,
  /// seeded-random selection among ties when true.
  virtual bool randomTieBreak() const { return false; }

  /// Seed for random tie-breaking.
  virtual uint64_t seed() const { return 0xBA5EBA11ULL; }

  /// Escape-hatch threshold (swaps without progress before forcing
  /// shortest-path resolution).
  static constexpr unsigned MaxSwapsWithoutProgress = 64;

private:
  /// The loop kernel over this router's window and cost (defined in
  /// GreedyRouterBase.cpp).
  class Kernel;
};

} // namespace qlosure

#endif // QLOSURE_BASELINES_GREEDYROUTERBASE_H
