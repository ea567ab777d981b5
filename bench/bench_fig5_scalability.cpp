//===- bench/bench_fig5_scalability.cpp - Fig. 5 reproduction ---------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 5 of the paper: Qlosure's mapping time as a function
/// of the number of quantum operations (QOPs) on the QUEKO 54-qubit set,
/// for the Sherbrooke, Ankaa-3 and Sherbrooke-2X backends. The paper's
/// claim is near-linear growth; we print the series and a least-squares
/// linearity diagnostic (R^2 of time vs QOPs).
///
/// A second table routes circuits of about 100k and 300k gates on
/// Sherbrooke: a QUEKO-54 instance and a qftLikeKernel loop of each size.
/// Each row splits the time into QASM import, omega (the exact per-wire
/// sweep) and the routing loop, and prints the process's peak RSS so far
/// (rows run in ascending size).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "core/Qlosure.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace qlosure;
using namespace qlosure::bench;

namespace {

/// R^2 of the least-squares line through (X, Y).
double rSquared(const std::vector<double> &X, const std::vector<double> &Y) {
  size_t N = X.size();
  double SumX = 0, SumY = 0, SumXY = 0, SumXX = 0;
  for (size_t I = 0; I < N; ++I) {
    SumX += X[I];
    SumY += Y[I];
    SumXY += X[I] * Y[I];
    SumXX += X[I] * X[I];
  }
  double Den = N * SumXX - SumX * SumX;
  if (Den == 0)
    return 0;
  double Slope = (N * SumXY - SumX * SumY) / Den;
  double Intercept = (SumY - Slope * SumX) / N;
  double SsRes = 0, SsTot = 0;
  double MeanY = SumY / N;
  for (size_t I = 0; I < N; ++I) {
    double Fit = Slope * X[I] + Intercept;
    SsRes += (Y[I] - Fit) * (Y[I] - Fit);
    SsTot += (Y[I] - MeanY) * (Y[I] - MeanY);
  }
  return SsTot == 0 ? 1.0 : 1.0 - SsRes / SsTot;
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

/// Imports \p Circ's QASM text, computes omega and routes it with
/// Qlosure on \p Hw, adding one timed row to \p T.
void addLargeRow(Table &T, const std::string &Name, const Circuit &Circ,
                 const CouplingGraph &Hw) {
  std::string Text = qasm::printQasm(Circ);
  Timer ImportClock;
  qasm::ImportResult Imported = qasm::importQasm(Text, Name);
  double ImportSeconds = ImportClock.elapsedSeconds();
  if (!Imported.succeeded()) {
    std::fprintf(stderr, "error: %s: %s\n", Name.c_str(),
                 Imported.Error.c_str());
    std::exit(1);
  }
  const Circuit &Logical = *Imported.Circ;
  RoutingContext Ctx = RoutingContext::build(Logical, Hw);
  Timer OmegaClock;
  Ctx.dependenceWeights();
  double OmegaSeconds = OmegaClock.elapsedSeconds();
  QlosureRouter Router;
  RoutingResult R = Router.routeWithIdentity(Ctx);
  T.addRow({Name, formatString("%zu", Logical.size()),
            formatString("%.3f", ImportSeconds),
            formatString("%.4f", OmegaSeconds),
            formatString("%.3f", R.MappingSeconds),
            formatString("%zu", R.NumSwaps),
            formatString("%.0f", peakRssMb())});
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner("Fig. 5: Qlosure mapping time vs quantum operations", Config);

  std::vector<unsigned> Depths =
      Config.Full
          ? std::vector<unsigned>{100, 200, 300, 400, 500, 600, 700, 800, 900}
          : std::vector<unsigned>{50, 100, 200, 300, 450, 600};

  for (const char *Backend : {"sherbrooke", "ankaa3", "sherbrooke2x"}) {
    CouplingGraph Hw = makeBackendByName(Backend);
    CouplingGraph Gen = makeSycamore54();
    std::printf("\nBackend: %s\n", Backend);
    Table T({"QOPs", "2Q gates", "Mapping seconds", "us per QOP"});
    std::vector<double> Xs, Ys;
    for (unsigned Depth : Depths) {
      QuekoSpec Spec;
      Spec.Depth = Depth;
      Spec.Seed = Config.Seed + Depth;
      QuekoInstance I = generateQueko(Gen, Spec);
      QlosureRouter Router;
      RoutingResult R = Router.routeWithIdentity(I.Circ, Hw);
      double Qops = static_cast<double>(I.Circ.numQuantumOps());
      Xs.push_back(Qops);
      Ys.push_back(R.MappingSeconds);
      T.addRow({formatString("%.0f", Qops),
                formatString("%zu", I.Circ.numTwoQubitGates()),
                formatString("%.4f", R.MappingSeconds),
                formatString("%.2f", R.MappingSeconds * 1e6 / Qops)});
    }
    std::fputs(T.render().c_str(), stdout);
    std::printf("linearity R^2(time ~ QOPs) = %.4f  (paper: near-linear)\n",
                rSquared(Xs, Ys));
  }

  // QUEKO-54 has about 19.3 gates per cycle; qftLikeKernel(16, R) has 32
  // per repetition.
  const std::pair<unsigned, int64_t> Legs[] = {{5200, 3125}, {15500, 9375}};
  CouplingGraph Hw = makeBackendByName("sherbrooke");
  std::printf("\nPast 30k gates, backend: sherbrooke\n");
  Table T({"Circuit", "Gates", "Import s", "Omega s", "Loop s", "Swaps",
           "Peak RSS MB"});
  for (auto [Depth, Reps] : Legs) {
    QuekoSpec Spec;
    Spec.Depth = Depth;
    Spec.Seed = Config.Seed + Depth;
    addLargeRow(T, formatString("queko54-d%u", Depth),
                generateQueko(makeSycamore54(), Spec).Circ, Hw);
    addLargeRow(T,
                formatString("qft-kernel-16x%lld",
                             static_cast<long long>(Reps)),
                qftLikeKernel(16, Reps), Hw);
  }
  std::fputs(T.render().c_str(), stdout);
  return 0;
}
