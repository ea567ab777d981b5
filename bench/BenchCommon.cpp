//===- bench/BenchCommon.cpp - Shared benchmark plumbing --------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "baselines/RouterRegistry.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"
#include "support/Table.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace qlosure;
using namespace qlosure::bench;

BenchConfig qlosure::bench::parseArgs(int Argc, char **Argv) {
  BenchConfig Config;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--full") == 0) {
      Config.Full = true;
    } else if (std::strcmp(Argv[I], "--no-verify") == 0) {
      Config.Verify = false;
    } else if (std::strcmp(Argv[I], "--seed") == 0 && I + 1 < Argc) {
      Config.Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (std::strcmp(Argv[I], "--threads") == 0 && I + 1 < Argc) {
      Config.Threads =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else if (std::strncmp(Argv[I], "--benchmark", 11) == 0) {
      // Tolerate google-benchmark style flags so "for b in bench/*" loops
      // can pass uniform arguments.
    } else {
      std::fprintf(stderr,
                   "usage: %s [--full] [--seed N] [--no-verify] "
                   "[--threads N]\n",
                   Argv[0]);
      std::exit(2);
    }
  }
  return Config;
}

std::vector<unsigned>
qlosure::bench::quekoDepths(const BenchConfig &Config) {
  if (Config.Full)
    return {100, 200, 300, 400, 500, 600, 700, 800, 900};
  return {100, 200, 600};
}

void qlosure::bench::printMediumLargeTable(
    const std::string &Title,
    const std::map<std::string, MediumLargeSummary> &Summary,
    const std::map<std::string, std::pair<double, double>> &Reference,
    const char *Fmt) {
  std::printf("\n%s\n", Title.c_str());
  std::vector<std::string> Header{"Mapper", "Medium", "Large"};
  if (!Reference.empty()) {
    Header.push_back("Paper Medium");
    Header.push_back("Paper Large");
  }
  Table T(Header);
  // Paper row order.
  const char *Order[] = {"SABRE", "QMAP", "Cirq", "Pytket", "Qlosure"};
  auto cell = [Fmt](double V, bool TimedOut) {
    if (TimedOut && V == 0)
      return std::string("timeout");
    std::string Out = formatString(Fmt, V);
    if (TimedOut)
      Out += "*";
    return Out;
  };
  for (const char *Mapper : Order) {
    auto It = Summary.find(Mapper);
    if (It == Summary.end())
      continue;
    std::vector<std::string> Row{
        Mapper, cell(It->second.Medium, It->second.MediumTimedOut),
        cell(It->second.Large, It->second.LargeTimedOut)};
    if (!Reference.empty()) {
      auto paperCell = [Fmt](double V) {
        return V == 0 ? std::string("timeout") : formatString(Fmt, V);
      };
      auto RefIt = Reference.find(Mapper);
      if (RefIt != Reference.end()) {
        Row.push_back(paperCell(RefIt->second.first));
        Row.push_back(paperCell(RefIt->second.second));
      } else {
        Row.push_back("-");
        Row.push_back("-");
      }
    }
    T.addRow(std::move(Row));
  }
  std::fputs(T.render().c_str(), stdout);
  if (!Reference.empty())
    std::printf("(* = some instances hit QMAP's expansion budget and were "
                "excluded from the average)\n");
}

std::vector<RunRecord>
qlosure::bench::runQuekoGrid(const QuekoGridSpec &Spec,
                             const BenchConfig &Config) {
  CouplingGraph Backend = makeBackendByName(Spec.BackendName);
  auto Mappers = makePaperRouters();
  std::vector<Router *> MapperPtrs;
  for (auto &M : Mappers)
    MapperPtrs.push_back(M.get());

  std::vector<RunRecord> Records;
  for (const std::string &GenName : Spec.GenNames) {
    CouplingGraph Gen = makeBackendByName(GenName);
    QuekoSweepConfig Sweep;
    Sweep.Depths = Spec.Depths;
    Sweep.CircuitsPerDepth = Spec.CircuitsPerDepth;
    Sweep.SeedBase = Config.Seed;
    Sweep.Eval.Verify = Config.Verify;
    Sweep.Threads = Config.Threads;
    auto Batch = runQuekoSweep(Gen, Backend, MapperPtrs, Sweep);
    Records.insert(Records.end(), Batch.begin(), Batch.end());
  }
  return Records;
}

std::vector<QuekoGridSpec>
qlosure::bench::paperQuekoGrids(const BenchConfig &Config) {
  std::vector<unsigned> Depths = quekoDepths(Config);
  std::vector<QuekoGridSpec> Grids;
  Grids.push_back({"sherbrooke",
                   {"aspen16", "sycamore54", "kings9x9"},
                   Depths,
                   Config.Full ? 2u : 1u});
  Grids.push_back({"ankaa3",
                   {"aspen16", "sycamore54", "kings9x9"},
                   Depths,
                   Config.Full ? 2u : 1u});
  // Sherbrooke-2X receives the 16x16 king's-graph circuits, on which
  // QMAP's expansion budget trips, as the paper's QMAP timed out there.
  Grids.push_back({"sherbrooke2x",
                   {"kings16x16"},
                   Config.Full ? Depths : std::vector<unsigned>{100, 600},
                   1u});
  return Grids;
}

bool qlosure::bench::qmapTimeoutsHold(const QuekoGridSpec &Grid,
                                      const std::vector<RunRecord> &Records) {
  if (Grid.BackendName != "sherbrooke2x")
    return true;
  for (const RunRecord &R : Records)
    if (R.Mapper == "QMAP" && !R.TimedOut)
      return false;
  return true;
}

void qlosure::bench::printBanner(const std::string &Name,
                                 const BenchConfig &Config) {
  std::printf("==================================================\n");
  std::printf("%s  [%s sweep, seed=%llu, verify=%s]\n", Name.c_str(),
              Config.Full ? "full" : "scaled-down",
              static_cast<unsigned long long>(Config.Seed),
              Config.Verify ? "on" : "off");
  std::printf("==================================================\n");
}
