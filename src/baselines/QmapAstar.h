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
/// forward. Two counts of A* expansions keep the search bounded, one per
/// chunk and one per route. On very large devices the route's budget
/// trips and the router reports a timeout, the behaviour the paper
/// observed for QMAP on Sherbrooke-2X. Counts, unlike a wall clock, make
/// the output depend on the input alone.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_BASELINES_QMAPASTAR_H
#define QLOSURE_BASELINES_QMAPASTAR_H

#include "route/Router.h"

namespace qlosure {

/// The QMAP-style baseline.
class QmapAstarRouter : public Router {
public:
  std::string name() const override { return "QMAP"; }

  /// Maximum A* node expansions per chunk before falling back to greedy
  /// shortest-path insertion for the remaining blocked gates.
  static constexpr size_t NodeBudgetPerLayer = 20000;

  /// A* expansions one route may spend. Once they are spent, every later
  /// layer is completed greedily and RoutingResult::TimedOut is set. It
  /// binds on the paper's Sherbrooke-2X QUEKO instances (3.2M and 16.8M
  /// expansions unbudgeted, at depths 100 and 600) and on none of the
  /// default Sherbrooke and Ankaa-3 grids (at most 2.4M).
  static constexpr size_t ExpansionBudget = 3'000'000;

  /// Layers are split into chunks of at most this many two-qubit gates
  /// solved jointly (keeps the A* state space tractable, as MQT QMAP does
  /// when limiting its search space).
  static constexpr size_t MaxJointGates = 4;

  using Router::route;
  RoutingResult route(const RoutingContext &Ctx, const QubitMapping &Initial,
                      RoutingScratch &Scratch,
                      const CancellationToken *Cancel) override;
};

} // namespace qlosure

#endif // QLOSURE_BASELINES_QMAPASTAR_H
