//===- bench/bench_fig8_ablation.cpp - Fig. 8 reproduction ------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 8 of the paper: the ablation study of the Qlosure cost
/// function on queko-bss-81qbt circuits mapped to Sherbrooke. Variants:
///
///   a) Distance-only      — Manhattan distance on the front layer only.
///   b) Layer-adjusted     — adds the dependence-distance layers with the
///                           1/l discount and 1/|G_l| normalization.
///   c) Dependency-weighted— adds the transitive-dependence weights omega
///                           (the full Qlosure cost, Eq. 2).
///   d) Bidirectional      — (c) plus a forward/backward derived initial
///                           placement (Sec. VI-E).
///
/// Routes 20 instances per initial depth (120 and 240; --full widens the
/// depth list), with QuekoSpec::Seed = 1000 * s + depth for s = 1..20, so
/// the instances do not depend on --seed. Prints each variant's median
/// SWAPs and its SWAP and depth reduction against (a) as median [q1, q3]
/// over the instances, beside the paper's 5.6%/46.8%/72.2% ladder, and
/// the (c)/(b) SWAP ratio's median with the number of instances on which
/// (c) needs fewer SWAPs. Exits 1 unless median SWAPs fall strictly from
/// (a) to (b) to (c) to (d).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "core/Qlosure.h"
#include "route/InitialMapping.h"
#include "route/Verify.h"
#include "support/Error.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"

#include <algorithm>
#include <cstdio>

using namespace qlosure;
using namespace qlosure::bench;

namespace {

constexpr int NumVariants = 4;
constexpr unsigned InstancesPerDepth = 20;

QlosureOptions variantOptions(int Variant) {
  QlosureOptions Opts;
  switch (Variant) {
  case 0: // Distance-only: the paper's (a) uses *only* the qubit distance
          // in swap choices — no layers, no omega, no decay damping.
    Opts.UseLayerStructure = false;
    Opts.UseDependencyWeights = false;
    Opts.DecayIncrement = 0.0;
    break;
  case 1: // Layer-adjusted.
    Opts.UseLayerStructure = true;
    Opts.UseDependencyWeights = false;
    break;
  default: // Dependency-weighted (full) and bidirectional.
    break;
  }
  return Opts;
}

/// Quantile \p Q of \p Values, interpolating linearly between ranks.
double quantile(std::vector<double> Values, double Q) {
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] +
         (Pos - static_cast<double>(Lo)) * (Values[Hi] - Values[Lo]);
}

/// Per-instance reduction of \p Values against \p Base, rendered as
/// "median% [q1, q3]".
std::string reductionCell(const std::vector<double> &Base,
                          const std::vector<double> &Values) {
  std::vector<double> Reduction;
  for (size_t K = 0; K < Base.size(); ++K)
    Reduction.push_back(100 * (Base[K] - Values[K]) / Base[K]);
  return formatString("%.1f%% [%.1f, %.1f]", quantile(Reduction, 0.5),
                      quantile(Reduction, 0.25), quantile(Reduction, 0.75));
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner("Fig. 8: cost-function ablation (queko-bss-81qbt on "
              "Sherbrooke)",
              Config);

  CouplingGraph Gen = makeKings9x9();
  CouplingGraph Hw = makeSherbrooke();
  std::vector<unsigned> Depths =
      Config.Full ? std::vector<unsigned>{100, 200, 300, 500, 700, 900}
                  : std::vector<unsigned>{120, 240};

  // Per-instance SWAPs and depth of each variant, in instance order.
  std::vector<double> Swaps[NumVariants], Depth[NumVariants];
  for (unsigned D : Depths) {
    for (unsigned S = 1; S <= InstancesPerDepth; ++S) {
      QuekoSpec Spec;
      Spec.Depth = D;
      Spec.Seed = 1000 * S + D;
      QuekoInstance I = generateQueko(Gen, Spec);

      // One shared context: all four variants reuse the same DAG,
      // distance matrix and (for the weighted variants) memoized omega.
      RoutingContext Ctx = RoutingContext::build(I.Circ, Hw);
      for (int V = 0; V < NumVariants; ++V) {
        QlosureRouter Router(variantOptions(V));
        RoutingResult R;
        if (V == 3) {
          QubitMapping Initial = deriveBidirectionalMapping(Router, Ctx);
          R = Router.route(Ctx, Initial);
        } else {
          R = Router.routeWithIdentity(Ctx);
        }
        if (Config.Verify) {
          VerifyResult Check = verifyRouting(I.Circ, Hw, R);
          if (!Check.Ok)
            reportFatalError("ablation routing failed verification: " +
                             Check.Message);
        }
        Swaps[V].push_back(static_cast<double>(R.NumSwaps));
        Depth[V].push_back(static_cast<double>(R.Routed.depth()));
      }
    }
  }
  size_t NumInstances = Swaps[0].size();

  const char *VariantNames[] = {"(a) Distance-only", "(b) Layer-adjusted",
                                "(c) Dependency-weighted",
                                "(d) Bidirectional"};
  const char *PaperSwaps[] = {"0%", "5.6%", "46.8%", "72.2%"};
  const char *PaperDepth[] = {"0%", "5.9%", "48.7%", "76.8%"};
  Table T({"Variant", "Median SWAPs", "SWAP reduction vs (a)", "Paper",
           "Depth reduction vs (a)", "Paper"});
  for (int V = 0; V < NumVariants; ++V)
    T.addRow({VariantNames[V], formatString("%.1f", median(Swaps[V])),
              V ? reductionCell(Swaps[0], Swaps[V]) : "baseline",
              PaperSwaps[V],
              V ? reductionCell(Depth[0], Depth[V]) : "baseline",
              PaperDepth[V]});
  std::printf("\n%zu instances; reductions are per instance, median "
              "[q1, q3]\n",
              NumInstances);
  std::fputs(T.render().c_str(), stdout);

  // Omega's own share: (c) against (b) on the same instance.
  std::vector<double> Ratio;
  size_t Fewer = 0;
  for (size_t K = 0; K < NumInstances; ++K) {
    Ratio.push_back(Swaps[2][K] / Swaps[1][K]);
    Fewer += Swaps[2][K] < Swaps[1][K];
  }
  std::printf("\n(c)/(b) SWAP ratio: median %.3f; (c) needs fewer SWAPs on "
              "%zu/%zu instances\n",
              median(Ratio), Fewer, NumInstances);

  bool Falls = true;
  for (int V = 1; V < NumVariants; ++V)
    Falls = Falls && median(Swaps[V]) < median(Swaps[V - 1]);
  std::printf("\nShape check: median SWAPs fall strictly (a) > (b) > (c) > "
              "(d) -> %s\n",
              Falls ? "PASS" : "MIXED");
  return Falls ? 0 : 1;
}
