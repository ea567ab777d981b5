//===- bench/bench_table3_swap_ratio.cpp - Table III reproduction ----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table III of the paper: per-mapper average SWAP-count ratio
/// relative to Qlosure on the QUEKO grids (values above 1.0 mean the
/// baseline inserts more SWAPs than Qlosure). The paper's headline: every
/// baseline is above 1.0 on every backend, and QMAP times out on every
/// Sherbrooke-2X instance. The bench exits 1 when a ratio falls below 0.98
/// or QMAP finishes a Sherbrooke-2X instance.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <cstdio>

using namespace qlosure;
using namespace qlosure::bench;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner("Table III: QUEKO SWAP ratio vs Qlosure (above 1.0 = worse)",
              Config);

  std::map<std::string,
           std::map<std::string, std::pair<double, double>>>
      Reference;
  Reference["sherbrooke"] = {{"SABRE", {1.17, 1.20}},
                             {"QMAP", {1.81, 1.85}},
                             {"Cirq", {1.20, 1.24}},
                             {"Pytket", {1.32, 1.29}}};
  Reference["ankaa3"] = {{"SABRE", {1.27, 1.29}},
                         {"QMAP", {2.14, 2.18}},
                         {"Cirq", {1.24, 1.26}},
                         {"Pytket", {1.23, 1.24}}};
  Reference["sherbrooke2x"] = {{"SABRE", {1.30, 1.31}},
                               {"Cirq", {1.08, 1.12}},
                               {"Pytket", {1.42, 1.37}}};

  bool AllAboveOne = true, QmapTimeouts = true;
  for (const QuekoGridSpec &Grid : paperQuekoGrids(Config)) {
    std::vector<RunRecord> Records = runQuekoGrid(Grid, Config);
    QmapTimeouts &= qmapTimeoutsHold(Grid, Records);
    auto Summary = swapRatioSummary(Records, "Qlosure");
    printMediumLargeTable("Backend: " + Grid.BackendName, Summary,
                          Reference[Grid.BackendName]);
    for (const auto &[Mapper, S] : Summary) {
      if (S.Medium > 0 && S.Medium < 0.98)
        AllAboveOne = false;
      if (S.Large > 0 && S.Large < 0.98)
        AllAboveOne = false;
    }
  }
  bool Pass = AllAboveOne && QmapTimeouts;
  std::printf("\nShape check: all ratios at or above 1.0 (2%% tolerance), "
              "QMAP timing out on every sherbrooke2x instance -> %s\n",
              Pass ? "PASS" : "MIXED");
  return Pass ? 0 : 1;
}
