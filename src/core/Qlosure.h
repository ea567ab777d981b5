//===- core/Qlosure.h - The Qlosure mapping algorithm -------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: the dependence-driven Qlosure qubit
/// mapper (Algorithm 1). The router maintains a front layer L_f, a dynamic
/// look-ahead window L_w of the k = c * n_f topologically earliest pending
/// gates organized into dependence-distance layers G_1..G_L, and scores
/// candidate SWAPs with the composite cost (Eq. 2)
///
///   M(s) = max(delta_q1, delta_q2) * sum_l Gamma_l / |G_l|,
///   Gamma_l = sum_{g in G_l} omega_g * D_phys(phi_s[g.q1], phi_s[g.q2]) / l
///
/// where omega is the transitive-dependence weight (deps/TransitiveWeights)
/// and delta the SABRE-style decay. The ablation knobs reproduce the four
/// variants of the paper's Fig. 8.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_CORE_QLOSURE_H
#define QLOSURE_CORE_QLOSURE_H

#include "route/Router.h"

#include <cstdint>

namespace qlosure {

/// Tuning and ablation options for the Qlosure router.
struct QlosureOptions {
  /// Weight look-ahead gates by their transitive-dependence count omega
  /// (Fig. 8 variant "Dependency-weighted"; false reduces omega to 1).
  bool UseDependencyWeights = true;

  /// Organize the look-ahead window into dependence-distance layers with
  /// the 1/l discount and 1/|G_l| normalization (Fig. 8 variant
  /// "Layer-adjusted"; false scores the front layer only, i.e. the
  /// "Distance-only" baseline when dependency weights are also off).
  bool UseLayerStructure = true;

  /// SABRE-style decay factor increment applied to swapped logical qubits.
  /// The paper quotes 0.001; 0.005 measured slightly better swap/depth
  /// trade-offs in this implementation and is the default.
  double DecayIncrement = 0.005;

  /// Error-aware extension (the paper's future work): among candidate
  /// SWAPs whose Eq. 2 scores tie exactly, prefer the one on the least
  /// noisy coupler. Scoring itself stays the hop metric of Eq. 2. Takes
  /// effect only on a coupling graph with an error model (see
  /// applySyntheticErrorModel); without one the flag changes nothing.
  bool ErrorAware = false;

  /// Affine fast path: when the context's period detector finds loop
  /// structure, route the loop body once and replay the recorded swap
  /// schedule (permutation-composed) for later iterations whose boundary
  /// state matches the recording anchor (see route/ReplayPlan.h). Any
  /// deviation falls back to the scalar kernel mid-period, so results are
  /// byte-identical to this flag being off. Most effective with
  /// UseDependencyWeights off — omega is generally aperiodic, and the
  /// replay engine refuses to replay across differing weight slices.
  bool AffineReplay = false;

  /// Random tie-breaking seed.
  uint64_t Seed = 0x5EED5EED5EEDULL;

  /// After this many SWAPs without executing any gate, force shortest-path
  /// resolution of the oldest front gate (termination guarantee).
  unsigned MaxSwapsWithoutProgress = 64;
};

/// The Qlosure qubit mapper.
class QlosureRouter : public Router {
public:
  explicit QlosureRouter(QlosureOptions Options = {});

  std::string name() const override;

  using Router::route;
  RoutingResult route(const RoutingContext &Ctx, const QubitMapping &Initial,
                      RoutingScratch &Scratch,
                      const CancellationToken *Cancel) override;

  const QlosureOptions &options() const { return Options; }

private:
  QlosureOptions Options;
};

} // namespace qlosure

#endif // QLOSURE_CORE_QLOSURE_H
