//===- bench/bench_fig2_excerpt.cpp - Fig. 2 reproduction -------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 2 of the paper: the motivating two-circuit excerpt.
/// (i) a 54-qubit QUEKO circuit (paper: initial depth 900, 9720 two-qubit
/// gates; scaled down by default) and (ii) an 18-qubit deep QASMBench-style
/// circuit (paper: depth 1429, 898 two-qubit gates), both mapped onto
/// Sherbrooke and Ankaa-3 by all five mappers. Reported metrics match the
/// figure: delta depth (final - initial) and SWAP count.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "baselines/RouterRegistry.h"
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
  printBanner("Fig. 2: mapper comparison excerpt", Config);

  // Circuit (i): QUEKO 54-qubit; the paper instance has depth 900 with
  // 9720 2Q gates (two-qubit density ~0.40).
  QuekoSpec Spec;
  Spec.Depth = Config.Full ? 900 : 300;
  Spec.TwoQubitDensity = 0.44;
  Spec.Seed = Config.Seed;
  QuekoInstance Queko = generateQueko(makeSycamore54(), Spec);
  Queko.Circ.setName("queko-54qbt");

  // Circuit (ii): 18-qubit deep variational circuit; layer count chosen so
  // the full version approaches the paper's depth 1429 / 898 2Q gates.
  Circuit Deep = makeQugan(18, Config.Full ? 53 : 18);
  Deep.setName("qugan_n18");

  struct Item {
    Circuit Circ;
    size_t InitialDepth;
  };
  std::vector<Item> Items;
  Items.push_back({Queko.Circ, Queko.Circ.depth()});
  Items.push_back({Deep, Deep.depth()});

  for (const char *Backend : {"sherbrooke", "ankaa3"}) {
    CouplingGraph Hw = makeBackendByName(Backend);
    for (const Item &It : Items) {
      std::printf("\nCircuit %s on %s (initial depth %zu, %zu 2Q gates)\n",
                  It.Circ.name().c_str(), Backend, It.InitialDepth,
                  It.Circ.numTwoQubitGates());
      Table T({"Mapper", "SWAPs", "Delta depth"});
      auto Mappers = makePaperRouters();
      for (auto &Mapper : Mappers) {
        EvalConfig Eval;
        Eval.Verify = Config.Verify;
        RunRecord R = runOnce(*Mapper, It.Circ, Hw, It.InitialDepth, Eval);
        T.addRow({R.Mapper, formatString("%zu", R.Swaps),
                  formatString("%zd", static_cast<ssize_t>(R.RoutedDepth) -
                                          static_cast<ssize_t>(
                                              It.InitialDepth))});
      }
      std::fputs(T.render().c_str(), stdout);
    }
  }
  std::printf("\nShape check: Qlosure should post the smallest SWAP count "
              "and delta depth\non both devices, as in Fig. 2.\n");
  return 0;
}
