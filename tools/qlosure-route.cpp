//===- tools/qlosure-route.cpp - Command-line qubit mapper ---------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line driver: reads an OpenQASM 2.0 circuit, routes it onto
/// a chosen backend with a chosen mapper, verifies the result, reports
/// statistics and writes the routed program.
///
///   qlosure-route [options] [input.qasm]       (stdin when omitted)
///     --backend NAME     sherbrooke | ankaa3 | sherbrooke2x | kings9x9 |
///                        kings16x16 | aspen16 | sycamore54  (default:
///                        sherbrooke)
///     --mapper NAME      qlosure | sabre | qmap | cirq | tket
///     --bidirectional    derive the initial placement with a forward/
///                        backward pass (Qlosure/SABRE-style)
///     --error-aware      error-aware mode with a synthetic calibration
///     --calibration N    calibration seed for --error-aware (default 1)
///     --output FILE      routed QASM destination (default stdout)
///     --stats-only       print statistics, skip the routed program
///     --json             print machine-readable stats to stdout using the
///                        same schema as the qlosured `route` response
///                        "stats" object (docs/PROTOCOL.md); the routed
///                        program is then only written with --output FILE
///
/// Exits 2 on a usage error, an unknown mapper or backend name included,
/// and 1 when the input cannot be routed or the routed circuit fails
/// independent verification (with --json, the stats object is still
/// printed, with "verified": false).
///
//===----------------------------------------------------------------------===//

#include "baselines/RouterRegistry.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "route/Fidelity.h"
#include "route/InitialMapping.h"
#include "route/Verify.h"
#include "service/Protocol.h"
#include "topology/Backends.h"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

using namespace qlosure;

namespace {

struct ToolOptions {
  std::string Backend = "sherbrooke";
  std::string Mapper = "qlosure";
  std::string InputPath;  // Empty = stdin.
  std::string OutputPath; // Empty = stdout.
  bool Bidirectional = false;
  bool ErrorAware = false;
  uint64_t CalibrationSeed = 1;
  bool StatsOnly = false;
  bool Json = false;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--backend NAME] [--mapper NAME] "
               "[--bidirectional] [--error-aware] [--calibration N] "
               "[--output FILE] [--stats-only] [--json] [input.qasm]\n",
               Argv0);
  return 2;
}

/// Reports a --mapper or --backend name outside \p Known as a usage error.
int unknownName(const char *Kind, const std::string &Name,
                const std::vector<std::string> &Known) {
  std::string List;
  for (const std::string &K : Known)
    List += " " + K;
  std::fprintf(stderr, "error: unknown %s \"%s\"; known:%s\n", Kind,
               Name.c_str(), List.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--backend") && I + 1 < Argc) {
      Opts.Backend = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--mapper") && I + 1 < Argc) {
      Opts.Mapper = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--output") && I + 1 < Argc) {
      Opts.OutputPath = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--calibration") && I + 1 < Argc) {
      Opts.CalibrationSeed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (!std::strcmp(Argv[I], "--bidirectional")) {
      Opts.Bidirectional = true;
    } else if (!std::strcmp(Argv[I], "--error-aware")) {
      Opts.ErrorAware = true;
    } else if (!std::strcmp(Argv[I], "--stats-only")) {
      Opts.StatsOnly = true;
    } else if (!std::strcmp(Argv[I], "--json")) {
      Opts.Json = true;
    } else if (Argv[I][0] == '-') {
      return usage(Argv[0]);
    } else {
      Opts.InputPath = Argv[I];
    }
  }
  if (!isRouterName(Opts.Mapper))
    return unknownName("mapper", Opts.Mapper, paperRouterNames());
  if (!isBackendName(Opts.Backend))
    return unknownName("backend", Opts.Backend, backendNames());

  // Read the program.
  std::string Source;
  if (Opts.InputPath.empty()) {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Source = Buffer.str();
  } else {
    std::ifstream In(Opts.InputPath);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   Opts.InputPath.c_str());
      return 1;
    }
    Source.assign(std::istreambuf_iterator<char>(In),
                  std::istreambuf_iterator<char>());
  }

  qasm::ImportResult Imported = qasm::importQasm(Source, "input");
  if (!Imported.succeeded()) {
    std::fprintf(stderr, "error: %s\n", Imported.Error.c_str());
    return 1;
  }
  Circuit Logical =
      Imported.Circ->withoutNonUnitaries().decomposeThreeQubitGates();

  CouplingGraph Device = makeBackendByName(Opts.Backend);
  if (Logical.numQubits() > Device.numQubits()) {
    std::fprintf(stderr,
                 "error: circuit has %u qubits but %s only has %u\n",
                 Logical.numQubits(), Opts.Backend.c_str(),
                 Device.numQubits());
    return 1;
  }
  if (Opts.ErrorAware)
    applySyntheticErrorModel(Device, Opts.CalibrationSeed);

  std::unique_ptr<Router> Mapper =
      makeServiceRouter(Opts.Mapper, Opts.ErrorAware, /*Affine=*/false);

  // One context carries every precomputed structure (distances, DAG,
  // dependence weights) through the bidirectional passes and the final
  // routing; malformed inputs surface here as a diagnostic, not an abort.
  RoutingContext Ctx = RoutingContext::build(Logical, Device);
  if (!Ctx.valid()) {
    std::fprintf(stderr, "error: %s\n", Ctx.status().message().c_str());
    return 1;
  }
  QubitMapping Initial = Opts.Bidirectional
                             ? deriveBidirectionalMapping(*Mapper, Ctx)
                             : Ctx.identityMapping();
  RoutingResult Result = Mapper->route(Ctx, Initial);
  VerifyResult Check = verifyRouting(Logical, Device, Result);

  if (Opts.Json) {
    // The shared stats schema of the service protocol, so scripts consume
    // qlosure-route and qlosured responses uniformly.
    service::RouteStats Stats;
    Stats.LogicalGates = Logical.size();
    Stats.RoutedGates = Result.Routed.size();
    Stats.Swaps = Result.NumSwaps;
    Stats.DepthBefore = Logical.depth();
    Stats.DepthAfter = Result.Routed.depth();
    Stats.MappingSeconds = Result.MappingSeconds;
    Stats.TimedOut = Result.TimedOut;
    Stats.Verified = Check.Ok;
    if (Opts.ErrorAware)
      Stats.SuccessProbability =
          estimateSuccessProbability(Result.Routed, Device);
    json::Value Doc = json::Value::object();
    Doc.set("tool", "qlosure-route");
    Doc.set("mapper", Mapper->name());
    Doc.set("backend", Opts.Backend);
    Doc.set("circuit", Logical.name());
    Doc.set("stats", service::routeStatsToJson(Stats));
    std::printf("%s\n", Doc.dump().c_str());
  }

  if (!Check.Ok) {
    std::fprintf(stderr, "internal error: routing failed verification: %s\n",
                 Check.Message.c_str());
    return 1;
  }

  if (!Opts.Json) {
    std::fprintf(stderr,
                 "qlosure-route: %s on %s: %zu gates -> %zu (%zu SWAPs), "
                 "depth %zu -> %zu, %.3f ms%s\n",
                 Mapper->name().c_str(), Opts.Backend.c_str(),
                 Logical.size(), Result.Routed.size(), Result.NumSwaps,
                 Logical.depth(), Result.Routed.depth(),
                 Result.MappingSeconds * 1000,
                 Result.TimedOut ? " (search budget hit)" : "");
    if (Opts.ErrorAware)
      std::fprintf(stderr,
                   "qlosure-route: estimated success probability %.4g\n",
                   estimateSuccessProbability(Result.Routed, Device));
  }

  if (!Opts.StatsOnly && !(Opts.Json && Opts.OutputPath.empty())) {
    std::string Text = qasm::printQasm(Result.Routed);
    if (Opts.OutputPath.empty()) {
      std::fputs(Text.c_str(), stdout);
    } else {
      std::ofstream Out(Opts.OutputPath);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     Opts.OutputPath.c_str());
        return 1;
      }
      Out << Text;
    }
  }
  return 0;
}
