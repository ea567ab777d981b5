//===- bench/bench_error_aware.cpp - Error-aware mapping extension -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates the error-aware mapping extension — the future work the
/// paper's conclusion sketches ("customized qubit-state and error-aware
/// mapping heuristics"). Both modes score with the hop-count metric of
/// Eq. 2; error-aware mode only breaks exact score ties toward the least
/// noisy coupler, so it changes a route only where such ties occur.
///
/// Each workload on Sherbrooke and Ankaa-3 is routed under 5 synthetic
/// calibrations (log-uniform two-qubit error rates, seeds --seed + 0..4)
/// and 8 tie-break seeds (QlosureOptions::Seed + 0..7), once with the
/// mode off and once on. For each workload the bench prints how many of
/// the 40 pairs read a higher, equal and lower expected success
/// probability with the mode on, and the median relative change. It has
/// no exit gate: one changed tie moves every later decision, so a pair
/// can move either way.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "core/Qlosure.h"
#include "route/Fidelity.h"
#include "route/Verify.h"
#include "support/Error.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"

#include <cstdio>

using namespace qlosure;
using namespace qlosure::bench;

namespace {

constexpr unsigned NumCalibrations = 5;
constexpr unsigned NumTieBreakSeeds = 8;

/// Routes \p Ctx with Qlosure and returns the expected success probability.
double successProbability(const RoutingContext &Ctx, bool ErrorAware,
                          uint64_t Seed, const BenchConfig &Config) {
  QlosureOptions Opts;
  Opts.ErrorAware = ErrorAware;
  Opts.Seed = Seed;
  QlosureRouter Router(Opts);
  RoutingResult R = Router.routeWithIdentity(Ctx);
  if (Config.Verify) {
    VerifyResult V = verifyRouting(Ctx.circuit(), Ctx.hardware(), R);
    if (!V.Ok)
      reportFatalError("error-aware routing failed verification: " +
                       V.Message);
  }
  return estimateSuccessProbability(R.Routed, Ctx.hardware());
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner("Extension: error-aware mapping (paper future work)",
              Config);

  std::vector<std::pair<std::string, Circuit>> Workloads;
  Workloads.push_back({"qft_n20", makeQft(20)});
  Workloads.push_back({"qugan_n39", makeQugan(39, 13)});
  {
    QuekoSpec Spec;
    Spec.Depth = Config.Full ? 300 : 100;
    Spec.Seed = Config.Seed;
    Workloads.push_back(
        {"queko54", generateQueko(makeSycamore54(), Spec).Circ});
  }

  const uint64_t BaseSeed = QlosureOptions().Seed;
  std::printf("\n%u calibrations x %u tie-break seeds per row, 2Q error in "
              "[0.2%%, 3%%]\n",
              NumCalibrations, NumTieBreakSeeds);
  Table T({"Backend", "Circuit", "Higher", "Equal", "Lower",
           "Median change"});
  for (const char *BackendName : {"sherbrooke", "ankaa3"}) {
    for (const auto &[Name, Circ] : Workloads) {
      size_t Higher = 0, Equal = 0, Lower = 0;
      std::vector<double> Change;
      for (unsigned C = 0; C < NumCalibrations; ++C) {
        CouplingGraph Hw = makeBackendByName(BackendName);
        applySyntheticErrorModel(Hw, Config.Seed + C);
        // Every pair on this calibration shares one context.
        RoutingContext Ctx = RoutingContext::build(Circ, Hw);
        for (unsigned S = 0; S < NumTieBreakSeeds; ++S) {
          double Off = successProbability(Ctx, false, BaseSeed + S, Config);
          double On = successProbability(Ctx, true, BaseSeed + S, Config);
          Higher += On > Off;
          Equal += On == Off;
          Lower += On < Off;
          Change.push_back((On - Off) / Off);
        }
      }
      T.addRow({BackendName, Name, formatString("%zu", Higher),
                formatString("%zu", Equal), formatString("%zu", Lower),
                formatString("%+.1f%%", 100 * median(Change))});
    }
  }
  std::fputs(T.render().c_str(), stdout);
  return 0;
}
