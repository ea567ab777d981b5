//===- bench/BenchQasmBenchTable.cpp - Tables V/VI driver -------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchQasmBenchTable.h"

#include "baselines/RouterRegistry.h"
#include "bench/BenchCommon.h"
#include "eval/BatchRunner.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"

#include <cstdio>
#include <map>

using namespace qlosure;
using namespace qlosure::bench;

int qlosure::bench::runQasmBenchTable(int Argc, char **Argv,
                                      const std::string &BackendName,
                                      const std::string &Title) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner(Title, Config);

  CouplingGraph Hw = makeBackendByName(BackendName);
  // The paper's per-circuit rows come from the 7 spotlight circuits; its
  // average row covers all 41. The scaled-down default runs the spotlight
  // plus a sample of the suite; --full runs all 41.
  std::vector<NamedCircuit> Spotlight = spotlightQasmBenchCircuits();
  std::vector<NamedCircuit> Suite =
      Config.Full ? standardQasmBenchSuite() : Spotlight;

  const char *Order[] = {"SABRE", "QMAP", "Cirq", "Pytket", "Qlosure"};

  // Route every suite circuit with every mapper.
  struct CellValue {
    size_t Swaps = 0;
    size_t Depth = 0;
    bool Valid = false;
  };
  std::map<std::string, std::map<std::string, CellValue>> Results;
  auto Mappers = makePaperRouters();
  // One shared context per circuit, five mapper jobs each, fanned across
  // the batch engine.
  std::vector<RoutingContext> Contexts;
  Contexts.reserve(Suite.size());
  for (const NamedCircuit &NC : Suite)
    Contexts.push_back(RoutingContext::build(NC.Circ, Hw));
  std::vector<BatchJob> Jobs;
  for (size_t CI = 0; CI < Suite.size(); ++CI) {
    for (auto &Mapper : Mappers) {
      BatchJob Job;
      Job.Mapper = Mapper.get();
      Job.Ctx = &Contexts[CI];
      Job.BaselineDepth = Suite[CI].Circ.depth();
      Job.Eval.Verify = Config.Verify;
      Jobs.push_back(Job);
    }
  }
  std::vector<RunRecord> Records = runBatch(Jobs, Config.Threads);
  for (size_t CI = 0; CI < Suite.size(); ++CI) {
    for (size_t MI = 0; MI < Mappers.size(); ++MI) {
      const RunRecord &R = Records[CI * Mappers.size() + MI];
      CellValue V;
      V.Swaps = R.Swaps;
      V.Depth = R.RoutedDepth;
      V.Valid = !R.TimedOut && !R.Failed;
      Results[Suite[CI].Name][R.Mapper] = V;
    }
  }

  // Per-circuit table over the spotlight rows.
  std::vector<std::string> Header{"Circuit", "Qubits", "QOPs"};
  for (const char *M : Order) {
    Header.push_back(std::string(M) + " swaps");
    Header.push_back(std::string(M) + " depth");
  }
  Table T(Header);
  for (const NamedCircuit &NC : Spotlight) {
    std::vector<std::string> Row{
        NC.Name, formatString("%u", NC.Circ.numQubits()),
        formatString("%zu", NC.Circ.numQuantumOps())};
    for (const char *M : Order) {
      const CellValue &V = Results[NC.Name][M];
      Row.push_back(V.Valid ? formatString("%zu", V.Swaps) : "-");
      Row.push_back(V.Valid ? formatString("%zu", V.Depth) : "-");
    }
    T.addRow(std::move(Row));
  }
  std::printf("\nPer-circuit results on %s\n", BackendName.c_str());
  std::fputs(T.render().c_str(), stdout);

  // Average improvement of Qlosure over each baseline across the suite,
  // computed the paper's way: mean of (VAL_base - VAL_qlosure) / VAL_base.
  Table Avg({"Baseline", "Avg swap improvement", "Avg depth improvement"});
  for (const char *M : Order) {
    if (std::string(M) == "Qlosure")
      continue;
    std::vector<double> SwapGains, DepthGains;
    for (const NamedCircuit &NC : Suite) {
      const CellValue &Base = Results[NC.Name][M];
      const CellValue &Ours = Results[NC.Name]["Qlosure"];
      if (!Base.Valid || !Ours.Valid || Base.Swaps == 0 || Base.Depth == 0)
        continue;
      SwapGains.push_back(
          (static_cast<double>(Base.Swaps) - static_cast<double>(Ours.Swaps)) /
          static_cast<double>(Base.Swaps));
      DepthGains.push_back(
          (static_cast<double>(Base.Depth) - static_cast<double>(Ours.Depth)) /
          static_cast<double>(Base.Depth));
    }
    Avg.addRow({M, formatString("%.2f%%", 100 * mean(SwapGains)),
                formatString("%.2f%%", 100 * mean(DepthGains))});
  }
  std::printf("\nQlosure average improvement over baselines (%zu circuits)\n",
              Suite.size());
  std::fputs(Avg.render().c_str(), stdout);
  std::printf("\nPaper reference (41 circuits): Sherbrooke 7.4%%/3.96%% vs "
              "LightSABRE ... 14.28%%/10.25%% vs pytket;\nAnkaa-3 "
              "10.36%%/5.59%% vs LightSABRE ... 6.73%%/5.96%% vs pytket.\n");
  return 0;
}
