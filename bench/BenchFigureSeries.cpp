//===- bench/BenchFigureSeries.cpp - Fig. 6/7 series driver -----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchFigureSeries.h"

#include "bench/BenchCommon.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>
#include <map>

using namespace qlosure;
using namespace qlosure::bench;

int qlosure::bench::runFigureSeries(int Argc, char **Argv,
                                    const std::string &BackendName,
                                    const std::string &Title) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner(Title, Config);

  std::vector<unsigned> Depths =
      Config.Full
          ? std::vector<unsigned>{100, 200, 300, 500, 700, 900}
          : std::vector<unsigned>{60, 150, 300};

  struct SetSpec {
    const char *Label;
    const char *GenName;
  };
  const SetSpec Sets[] = {{"queko-bss-16qbt (narrow)", "aspen16"},
                          {"queko-bss-54qbt (medium)", "sycamore54"},
                          {"queko-bss-81qbt (wide)", "kings9x9"}};

  const char *Order[] = {"SABRE", "QMAP", "Cirq", "Pytket", "Qlosure"};
  for (const SetSpec &Set : Sets) {
    QuekoGridSpec Grid;
    Grid.BackendName = BackendName;
    Grid.GenNames = {Set.GenName};
    Grid.Depths = Depths;
    Grid.CircuitsPerDepth = 1;
    std::vector<RunRecord> Records = runQuekoGrid(Grid, Config);

    // Index: depth -> mapper -> record.
    std::map<unsigned, std::map<std::string, const RunRecord *>> Series;
    for (const RunRecord &R : Records)
      Series[static_cast<unsigned>(R.BaselineDepth)][R.Mapper] = &R;

    std::printf("\n%s on %s\n", Set.Label, BackendName.c_str());
    std::vector<std::string> Header{"Initial depth"};
    for (const char *M : Order)
      Header.push_back(std::string(M) + " swaps");
    for (const char *M : Order)
      Header.push_back(std::string(M) + " depth");
    Table T(Header);
    for (auto &[Depth, PerMapper] : Series) {
      std::vector<std::string> Row{formatString("%u", Depth)};
      for (const char *M : Order) {
        auto It = PerMapper.find(M);
        Row.push_back(It == PerMapper.end() || It->second->TimedOut
                          ? "-"
                          : formatString("%zu", It->second->Swaps));
      }
      for (const char *M : Order) {
        auto It = PerMapper.find(M);
        Row.push_back(It == PerMapper.end() || It->second->TimedOut
                          ? "-"
                          : formatString("%zu", It->second->RoutedDepth));
      }
      T.addRow(std::move(Row));
    }
    std::fputs(T.render().c_str(), stdout);
  }
  std::printf("\nShape check: Qlosure's swap and depth columns should sit "
              "below every baseline,\nwith the margin widening on the "
              "81-qubit (wide) set, as in the paper.\n");
  return 0;
}
