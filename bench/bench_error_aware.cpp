//===- bench/bench_error_aware.cpp - Error-aware mapping extension -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates the error-aware mapping extension — the future work the
/// paper's conclusion sketches ("customized qubit-state and error-aware
/// mapping heuristics"). A synthetic calibration (log-uniform two-qubit
/// error rates) is installed on Sherbrooke and Ankaa-3; Qlosure routes
/// each workload with plain Eq. 2 scoring and in error-aware mode, and we
/// compare SWAPs, depth and expected success probability. Both modes
/// score with the hop-count metric; error-aware mode only breaks exact
/// score ties toward the least noisy coupler, so it changes a route only
/// where such ties occur.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "core/Qlosure.h"
#include "route/Fidelity.h"
#include "route/Verify.h"
#include "support/Error.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"

#include <cstdio>

using namespace qlosure;
using namespace qlosure::bench;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner("Extension: error-aware mapping (paper future work)",
              Config);

  for (const char *BackendName : {"sherbrooke", "ankaa3"}) {
    CouplingGraph Hw = makeBackendByName(BackendName);
    applySyntheticErrorModel(Hw, Config.Seed);

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

    std::printf("\nBackend %s (synthetic calibration, 2Q error in "
                "[0.2%%, 3%%])\n",
                BackendName);
    Table T({"Circuit", "Mode", "SWAPs", "Depth", "Success prob"});
    for (auto &[Name, Circ] : Workloads) {
      // Both modes share one context (the calibrated graph already
      // carries its hop distance matrix and edge error rates).
      RoutingContext Ctx = RoutingContext::build(Circ, Hw);
      for (bool ErrorAware : {false, true}) {
        QlosureOptions Opts;
        Opts.ErrorAware = ErrorAware;
        QlosureRouter Router(Opts);
        RoutingResult R = Router.routeWithIdentity(Ctx);
        if (Config.Verify) {
          VerifyResult V = verifyRouting(Circ, Hw, R);
          if (!V.Ok)
            reportFatalError("error-aware routing failed verification: " +
                             V.Message);
        }
        double Success = estimateSuccessProbability(R.Routed, Hw);
        T.addRow({Name, ErrorAware ? "error-aware" : "hop-count",
                  formatString("%zu", R.NumSwaps),
                  formatString("%zu", R.Routed.depth()),
                  formatString("%.4g", Success)});
      }
    }
    std::fputs(T.render().c_str(), stdout);
  }
  std::printf("\nError-aware mode only breaks exact Eq. 2 score ties toward "
              "the least noisy\ncoupler. One changed tie moves every later "
              "decision, so SWAPs and success\nprobability can move either "
              "way.\n");
  return 0;
}
