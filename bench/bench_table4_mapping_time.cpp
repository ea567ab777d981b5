//===- bench/bench_table4_mapping_time.cpp - Table IV reproduction ---------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table IV of the paper: average mapping times on the QUEKO
/// 54-qubit set per backend, medium vs large, plus the medium->large
/// growth ratio the paper highlights (Qlosure grows ~1.5-1.7x; the other
/// mappers 2.2-2.6x). Absolute seconds differ from the paper's Python/
/// Xeon setup; the growth ratios and mapper ordering are the
/// reproduction target.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>

using namespace qlosure;
using namespace qlosure::bench;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner("Table IV: average mapping time, QUEKO 54qbt", Config);

  // Paper reference (seconds) for context.
  std::map<std::string,
           std::map<std::string, std::pair<double, double>>>
      Reference;
  Reference["sherbrooke"] = {{"SABRE", {0.64, 1.57}},
                             {"QMAP", {10.36, 23.49}},
                             {"Cirq", {5.85, 13.14}},
                             {"Pytket", {14.54, 32.99}},
                             {"Qlosure", {6.07, 10.13}}};
  Reference["ankaa3"] = {{"SABRE", {0.66, 1.52}},
                         {"QMAP", {8.45, 19.59}},
                         {"Cirq", {4.56, 9.89}},
                         {"Pytket", {9.49, 20.90}},
                         {"Qlosure", {4.07, 6.09}}};
  Reference["sherbrooke2x"] = {{"SABRE", {0.67, 1.77}},
                               {"QMAP", {11.48, 26.10}},
                               {"Cirq", {6.07, 13.48}},
                               {"Pytket", {15.84, 37.95}},
                               {"Qlosure", {7.36, 12.77}}};

  for (const char *Backend : {"sherbrooke", "ankaa3", "sherbrooke2x"}) {
    QuekoGridSpec Grid;
    Grid.BackendName = Backend;
    Grid.GenNames = {"sycamore54"};
    Grid.Depths = quekoDepths(Config);
    Grid.CircuitsPerDepth = Config.Full ? 3 : 1;
    std::vector<RunRecord> Records = runQuekoGrid(Grid, Config);
    auto Summary = mappingTimeSummary(Records);
    printMediumLargeTable(
        std::string("Backend: ") + Backend + "  (seconds; paper columns "
        "shown for ordering context only)",
        Summary, Reference[Backend], "%.3f");

    Table Growth({"Mapper", "Large/Medium growth", "Paper growth"});
    const char *Order[] = {"SABRE", "QMAP", "Cirq", "Pytket", "Qlosure"};
    for (const char *Mapper : Order) {
      auto It = Summary.find(Mapper);
      if (It == Summary.end() || It->second.Medium <= 0)
        continue;
      double Ratio = It->second.Large / It->second.Medium;
      auto Ref = Reference[Backend][Mapper];
      double PaperRatio = Ref.first > 0 ? Ref.second / Ref.first : 0;
      Growth.addRow({Mapper, formatString("%.2fx", Ratio),
                     formatString("%.2fx", PaperRatio)});
    }
    std::fputs(Growth.render().c_str(), stdout);
  }

  std::printf("\nShape checks: SABRE fastest in absolute terms; Qlosure's "
              "medium->large growth\nis the smallest among the quality "
              "mappers (paper: 1.5-1.7x vs 2.2-2.6x).\n");
  return 0;
}
