//===- examples/affine_analysis.cpp - The affine layer up close ---------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Walks through the paper's affine abstraction on its own examples:
/// lifts the Sec. III-C QASM trace to macro-gates, prints its iteration
/// domain and Use Map, detects the loop structure of a repeated kernel
/// (what the replay fast path reads), and evaluates the dependence weights
/// omega of the Fig. 1 circuit that drive the Qlosure cost function.
///
/// Build & run:  ./build/examples/affine_analysis
///
//===----------------------------------------------------------------------===//

#include "affine/Lifter.h"
#include "affine/PeriodDetector.h"
#include "deps/TransitiveWeights.h"
#include "workloads/Structured.h"

#include <cinttypes>
#include <cstdio>

using namespace qlosure;

int main() {
  // --- Part 1: the Sec. III-C lifting example. -------------------------
  //   CX q[0],q[1]; CX q[1],q[3]; CX q[2],q[5]; CX q[3],q[7];
  Circuit Trace(8, "sec3c");
  Trace.addCx(0, 1);
  Trace.addCx(1, 3);
  Trace.addCx(2, 5);
  Trace.addCx(3, 7);

  AffineCircuit Lifted = liftCircuit(Trace);
  std::printf("Sec. III-C trace lifts to %zu statement(s):\n",
              Lifted.numStatements());
  for (size_t S = 0; S < Lifted.numStatements(); ++S)
    std::printf("  %s\n", Lifted.statement(S).toString().c_str());
  std::printf("  (paper: q1 = [i] -> [i], q2 = [i] -> [2i + 1], "
              "domain 0 <= i <= 3)\n\n");

  // The polyhedral views.
  presburger::IntegerSet Domain = Lifted.iterationDomain(0);
  std::printf("iteration domain: %s, |D| = %" PRId64 "\n",
              Domain.toString().c_str(), *Domain.cardinality());
  presburger::IntegerMap Use = Lifted.useMap(0);
  auto Image = Use.imageOfPoint({2});
  std::printf("use map at t=2 -> q[%" PRId64 "], q[%" PRId64 "]\n\n",
              (*Image)[0][0], (*Image)[0][1]);

  // --- Part 2: loop structure of a repeated kernel. --------------------
  Circuit Kernel = qftLikeKernel(8, 50);
  AffineCircuit KernelLifted = liftCircuit(Kernel);
  std::printf("qftLikeKernel(8, 50): %zu gates in %zu statements "
              "(%.1f gates per statement)\n",
              Kernel.size(), KernelLifted.numStatements(),
              KernelLifted.compressionRatio());
  if (std::optional<PeriodStructure> Period = detectPeriod(KernelLifted))
    std::printf("  periodic region from gate %" PRId64 ": %" PRId64
                " periods of %" PRId64 " gates; replay routes the first "
                "and repeats its swaps\n\n",
                Period->RegionStart, Period->NumPeriods, Period->BodyGates);
  else
    std::printf("  no loop structure detected\n\n");

  // --- Part 3: the omega weights of Eq. 1 on the Fig. 1 circuit. -------
  Circuit Fig1(6, "fig1");
  Fig1.addCx(0, 1); // G0
  Fig1.addCx(2, 3); // G1
  Fig1.addCx(1, 2); // G2
  Fig1.addCx(3, 5); // G3
  Fig1.addCx(0, 2); // G4
  Fig1.addCx(1, 5); // G5

  WeightResult Omega = computeDependenceWeights(Fig1);
  std::printf("dependence weights omega (transitive dependents per "
              "gate):\n");
  for (size_t G = 0; G < Omega.Weights.size(); ++G)
    std::printf("  omega(G%zu) = %llu\n", G,
                static_cast<unsigned long long>(Omega.Weights[G]));
  std::printf("\nGates with large omega gate the critical path; Qlosure's "
              "cost (Eq. 2)\nweights look-ahead distances by omega to "
              "protect them when inserting SWAPs.\n");
  return 0;
}
