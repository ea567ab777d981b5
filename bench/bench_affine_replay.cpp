//===- bench/bench_affine_replay.cpp - Affine replay fast path ------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Speedup and exactness harness for the affine replay fast path (PR 6):
/// structured loop workloads — a QFT-like kernel and a QUEKO-style
/// conveyor, both with loop depth well past 100 — are routed three ways
/// through the qlosure mapper (scalar unweighted profile, affine replay
/// cold, affine replay over the warmed plan cache), and an unstructured
/// QUEKO control measures the cost of asking for --affine on a circuit
/// with no loop structure.
///
/// Hard assertions (nonzero exit on violation):
///   - every affine result is gate-for-gate identical to the scalar one
///     and passes verifyRouting;
///   - on the structured workloads the warm pass replays at least one
///     period (the fast path demonstrably engages);
///   - the unstructured control detects no period and replays nothing.
///
/// Reported: one table row per workload with the scalar, cold and warm
/// route times (best of R), the warm speedup and the replayed periods.
/// The times are single runs on the host at hand, so the bench commits no
/// result file; its exit status carries the assertions above.
///
/// --full enlarges the loop counts; --threads is accepted and ignored
/// (the comparison is inherently serial).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "affine/PeriodDetector.h"
#include "core/Qlosure.h"
#include "route/Verify.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace qlosure;
using namespace qlosure::bench;

namespace {

/// Gate-for-gate equality of two routing results.
bool resultsIdentical(const RoutingResult &A, const RoutingResult &B,
                      std::string &Why) {
  if (A.NumSwaps != B.NumSwaps) {
    Why = formatString("swap counts differ (%zu vs %zu)", A.NumSwaps,
                       B.NumSwaps);
    return false;
  }
  if (A.Routed.size() != B.Routed.size()) {
    Why = formatString("routed sizes differ (%zu vs %zu)", A.Routed.size(),
                       B.Routed.size());
    return false;
  }
  for (size_t I = 0; I < A.Routed.size(); ++I) {
    const Gate &GA = A.Routed.gate(I);
    const Gate &GB = B.Routed.gate(I);
    if (GA.Kind != GB.Kind || GA.Qubits != GB.Qubits ||
        GA.Params != GB.Params) {
      Why = formatString("gate %zu differs (%s vs %s)", I,
                         GA.toString().c_str(), GB.toString().c_str());
      return false;
    }
  }
  if (A.InsertedSwapFlags != B.InsertedSwapFlags) {
    Why = "inserted-swap flags differ";
    return false;
  }
  if (!(A.FinalMapping == B.FinalMapping)) {
    Why = "final mappings differ";
    return false;
  }
  return true;
}

struct WorkloadSpec {
  std::string Name;
  std::string BackendName;
  Circuit Circ;
  CouplingGraph Hw;
  bool Structured = false;
};

struct WorkloadRow {
  std::string Name;
  std::string BackendName;
  bool Structured = false;
  size_t LogicalGates = 0;
  unsigned Depth = 0;
  double ScalarSeconds = 0;
  double ColdSeconds = 0;
  double WarmSeconds = 0;
  size_t ReplayedPeriods = 0;
  size_t FallbackPeriods = 0;
  size_t TotalPeriods = 0;
  bool Identical = true;
};

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig Config = parseArgs(Argc, Argv);
  printBanner("Affine replay fast path (scalar vs replayed periods)",
              Config);

  // Loop counts: the per-iteration body depths put every structured
  // workload's total depth far past 100 even in the default (CI) size.
  const int64_t QftReps = Config.Full ? 240 : 80;
  const int64_t ConveyorReps = Config.Full ? 120 : 48;
  const unsigned ControlDepth = Config.Full ? 300 : 120;

  std::vector<WorkloadSpec> Specs;
  // The line topology makes the kernel's wrap-around link maximally
  // non-local: every iteration pays a full swap chain, so the scalar
  // path spends its time scoring candidates — the work replay skips.
  Specs.push_back({"qft-kernel-24q", "line24", qftLikeKernel(24, QftReps),
                   makeLine(24), /*Structured=*/true});
  {
    CouplingGraph Grid = makeGrid(4, 4);
    Circuit Conveyor = layeredConveyor(Grid, 3, ConveyorReps, Config.Seed);
    Specs.push_back({"conveyor-grid4x4", "grid4x4", std::move(Conveyor),
                     std::move(Grid), /*Structured=*/true});
  }
  {
    // Unstructured control: QUEKO's per-cycle scramble never repeats, so
    // the detector must bail and the affine path must cost ~nothing.
    QuekoSpec Spec;
    Spec.Depth = ControlDepth;
    Spec.Seed = Config.Seed;
    QuekoInstance Control = generateQueko(makeAspen16(), Spec);
    Specs.push_back({formatString("queko-16qbt-d%u", ControlDepth),
                     "aspen16", std::move(Control.Circ), makeAspen16(),
                     /*Structured=*/false});
  }

  QlosureOptions ScalarOpts;
  ScalarOpts.UseDependencyWeights = false;
  ScalarOpts.Seed = Config.Seed;
  QlosureOptions FastOpts = ScalarOpts;
  FastOpts.AffineReplay = true;
  QlosureRouter ScalarRouter(ScalarOpts);
  QlosureRouter FastRouter(FastOpts);
  RoutingScratch Scratch;

  const unsigned Reps = 5;
  std::vector<WorkloadRow> Rows;
  bool AllIdentical = true;
  bool CoverageOk = true;

  for (const WorkloadSpec &Spec : Specs) {
    WorkloadRow Row;
    Row.Name = Spec.Name;
    Row.BackendName = Spec.BackendName;
    Row.Structured = Spec.Structured;
    Row.LogicalGates = Spec.Circ.size();
    Row.Depth = Spec.Circ.depth();

    RoutingContext Ctx = RoutingContext::build(Spec.Circ, Spec.Hw);
    if (!Ctx.valid()) {
      std::fprintf(stderr, "error: %s: %s\n", Spec.Name.c_str(),
                   Ctx.status().message().c_str());
      return 1;
    }
    if (const PeriodStructure *P = Ctx.periodStructure())
      Row.TotalPeriods = P->NumPeriods;

    // Affine cold: the first route over a fresh plan cache records the
    // period's swap schedule while routing. Detection itself was
    // memoized by the periodStructure() probe above, mirroring the
    // daemon, where cached contexts pay for lifting once per circuit.
    Timer ColdClock;
    RoutingResult ColdResult = FastRouter.routeWithIdentity(Ctx, Scratch);
    Row.ColdSeconds = ColdClock.elapsedSeconds();

    // Scalar and warm-affine passes interleaved, best of R each: the
    // sub-millisecond timings drift with clock scaling and scheduler
    // noise, and alternating the two paths exposes both to the same
    // drift instead of letting one phase soak it all up.
    RoutingResult ScalarResult, WarmResult;
    Row.ScalarSeconds = 1e100;
    Row.WarmSeconds = 1e100;
    for (unsigned R = 0; R < Reps; ++R) {
      Timer ScalarClock;
      ScalarResult = ScalarRouter.routeWithIdentity(Ctx, Scratch);
      Row.ScalarSeconds = std::min(Row.ScalarSeconds,
                                   ScalarClock.elapsedSeconds());
      Timer WarmClock;
      WarmResult = FastRouter.routeWithIdentity(Ctx, Scratch);
      Row.WarmSeconds = std::min(Row.WarmSeconds,
                                 WarmClock.elapsedSeconds());
      Row.ReplayedPeriods = WarmResult.AffineReplayedPeriods;
      Row.FallbackPeriods = WarmResult.AffineFallbackPeriods;
    }

    auto Check = [&](const RoutingResult &R, const char *Label) {
      std::string Why;
      if (!resultsIdentical(ScalarResult, R, Why)) {
        Row.Identical = false;
        AllIdentical = false;
        std::fprintf(stderr, "error: %s (%s) diverges from scalar: %s\n",
                     Spec.Name.c_str(), Label, Why.c_str());
      }
      if (Config.Verify) {
        VerifyResult V = verifyRouting(Ctx.circuit(), Ctx.hardware(), R);
        if (!V.Ok) {
          Row.Identical = false;
          AllIdentical = false;
          std::fprintf(stderr, "error: %s (%s) fails verification: %s\n",
                       Spec.Name.c_str(), Label, V.Message.c_str());
        }
      }
    };
    Check(ColdResult, "cold");
    Check(WarmResult, "warm");

    if (Spec.Structured && Row.ReplayedPeriods == 0) {
      CoverageOk = false;
      std::fprintf(stderr,
                   "error: %s is structured but the warm pass replayed "
                   "no periods\n",
                   Spec.Name.c_str());
    }
    if (!Spec.Structured &&
        (Row.TotalPeriods != 0 || Row.ReplayedPeriods != 0)) {
      CoverageOk = false;
      std::fprintf(stderr,
                   "error: %s is unstructured but the detector/replay "
                   "engaged (periods=%zu replayed=%zu)\n",
                   Spec.Name.c_str(), Row.TotalPeriods,
                   Row.ReplayedPeriods);
    }
    Rows.push_back(std::move(Row));
  }

  Table T({"Workload", "Backend", "Gates", "Depth", "Scalar s", "Cold s",
           "Warm s", "Speedup", "Replayed", "Fallback", "Identical"});
  for (const WorkloadRow &Row : Rows) {
    double Speedup =
        Row.WarmSeconds > 0 ? Row.ScalarSeconds / Row.WarmSeconds : 0;
    T.addRow({Row.Name, Row.BackendName,
              formatString("%zu", Row.LogicalGates),
              formatString("%u", Row.Depth),
              formatString("%.4f", Row.ScalarSeconds),
              formatString("%.4f", Row.ColdSeconds),
              formatString("%.4f", Row.WarmSeconds),
              formatString("%.2fx", Speedup),
              formatString("%zu/%zu", Row.ReplayedPeriods,
                           Row.TotalPeriods),
              formatString("%zu", Row.FallbackPeriods),
              Row.Identical ? "yes" : "NO (BUG)"});
  }
  std::fputs(T.render().c_str(), stdout);
  std::printf("\nShape check: every row must say 'yes' and structured "
              "rows must replay periods.\n");

  return AllIdentical && CoverageOk ? 0 : 1;
}
