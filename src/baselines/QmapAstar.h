//===- baselines/QmapAstar.h - QMAP-style layered A* mapper -------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// QMAP-style router (Zulehner/Paler/Wille DATE 2018; Wille & Burgholzer
/// ISPD 2023 heuristic mode; Table I of the paper: "multi-layer,
/// A*-search"): the circuit is partitioned into time-sliced layers; for
/// each layer an A* search finds a SWAP sequence making every layer gate
/// hardware-feasible; layers are reconciled by carrying the mapping
/// forward. Node and wall-clock budgets keep the search bounded — on very
/// large devices the budget trips and the router reports a timeout, the
/// behaviour the paper observed for QMAP on Sherbrooke-2X.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_BASELINES_QMAPASTAR_H
#define QLOSURE_BASELINES_QMAPASTAR_H

#include "route/Router.h"

namespace qlosure {

/// QMAP-style tuning options.
struct QmapOptions {
  /// Overall wall-clock budget; exceeded => RoutingResult::TimedOut.
  double TimeBudgetSeconds = 120.0;
};

/// The QMAP-style baseline.
class QmapAstarRouter : public Router {
public:
  explicit QmapAstarRouter(QmapOptions Options = {}) : Options(Options) {}

  std::string name() const override { return "QMAP"; }

  /// Maximum A* node expansions per chunk before falling back to greedy
  /// shortest-path insertion for the remaining blocked gates.
  static constexpr size_t NodeBudgetPerLayer = 20000;

  /// Layers are split into chunks of at most this many two-qubit gates
  /// solved jointly (keeps the A* state space tractable, as MQT QMAP does
  /// when limiting its search space).
  static constexpr size_t MaxJointGates = 4;

  using Router::route;
  RoutingResult route(const RoutingContext &Ctx, const QubitMapping &Initial,
                      RoutingScratch &Scratch,
                      const CancellationToken *Cancel) override;

private:
  QmapOptions Options;
};

} // namespace qlosure

#endif // QLOSURE_BASELINES_QMAPASTAR_H
