//===- tests/WindowEquivalenceTest.cpp - One-pass window vs a rebuild -------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FrontLayerTracker::topologicalWindow gathers the look-ahead window, and
/// its dependence levels, in one BFS seeded from the tracker's own
/// unexecuted-predecessor counts. These cases compare it, at seeded random
/// execution prefixes, with a reference kept here: a BFS that recounts
/// each touched gate's unexecuted predecessors, followed by the
/// max-predecessor level loop. Both kernels' budgets are checked:
///
///  * Qlosure's: B two-qubit gates within 8B gates. The 1Q-heavy circuits
///    make the 8B cap bind.
///  * The greedy baselines': the extended set is the first W non-front
///    two-qubit gates of the window within |front 2Q| + 4W gates, also
///    when fewer than W fit inside that cap.
///
//===----------------------------------------------------------------------===//

#include "circuit/Dag.h"
#include "route/FrontLayer.h"
#include "support/Random.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace qlosure;

namespace {

struct Window {
  std::vector<uint32_t> Gates;
  std::vector<uint32_t> Levels;
};

/// The window as a BFS that recounts unexecuted predecessors on a gate's
/// first touch, stopping at \p MaxGates counted gates (two-qubit ones
/// only when \p CountTwoQubitOnly, then within 8 * MaxGates gates), with
/// levels from a second pass: the maximum predecessor level (0 outside
/// the window), plus one for a two-qubit gate, and 1 for a single-qubit
/// gate that would read 0.
Window referenceWindow(const CircuitDag &Dag,
                       const std::vector<uint8_t> &Executed,
                       std::vector<uint32_t> Front, size_t MaxGates,
                       bool CountTwoQubitOnly) {
  Window W;
  size_t TotalCap = CountTwoQubitOnly ? 8 * MaxGates : MaxGates;
  std::vector<uint32_t> Needed(Dag.numGates(), UINT32_MAX);
  std::vector<uint32_t> Queue = std::move(Front);
  std::sort(Queue.begin(), Queue.end());
  size_t Head = 0, Counted = 0;
  while (Head < Queue.size() && Counted < MaxGates &&
         W.Gates.size() < TotalCap) {
    uint32_t G = Queue[Head++];
    W.Gates.push_back(G);
    if (!CountTwoQubitOnly || Dag.isTwoQubitGate(G))
      ++Counted;
    for (uint32_t Succ : Dag.successors(G)) {
      if (Needed[Succ] == UINT32_MAX) {
        Needed[Succ] = 0;
        for (uint32_t Pred : Dag.predecessors(Succ))
          Needed[Succ] += !Executed[Pred];
      }
      if (--Needed[Succ] == 0)
        Queue.push_back(Succ);
    }
  }
  std::vector<uint32_t> Level(Dag.numGates(), 0);
  for (uint32_t G : W.Gates) {
    uint32_t L = 0;
    for (uint32_t Pred : Dag.predecessors(G))
      L = std::max(L, Level[Pred]);
    bool TwoQ = Dag.isTwoQubitGate(G);
    L += TwoQ;
    if (!TwoQ && L == 0)
      L = 1;
    Level[G] = L;
    W.Levels.push_back(L);
  }
  return W;
}

/// The greedy kernels' extended set from a window: its first \p Want
/// non-front two-qubit gates.
std::vector<uint32_t> extendedSet(const FrontLayerTracker &T,
                                  const CircuitDag &Dag,
                                  const std::vector<uint32_t> &Gates,
                                  size_t Want) {
  std::vector<uint32_t> Ext;
  for (uint32_t G : Gates)
    if (Ext.size() < Want && !T.isInFront(G) && Dag.isTwoQubitGate(G))
      Ext.push_back(G);
  return Ext;
}

/// A circuit of \p NumGates gates on \p NumQubits wires in which a gate is
/// single-qubit with probability \p OneQubitShare.
Circuit mixedCircuit(Rng &R, unsigned NumQubits, size_t NumGates,
                     double OneQubitShare) {
  Circuit C(NumQubits);
  auto pick = [&] { return static_cast<int32_t>(R.nextBounded(NumQubits)); };
  for (size_t I = 0; I < NumGates; ++I) {
    if (R.nextBernoulli(OneQubitShare)) {
      C.add1Q(GateKind::H, pick());
      continue;
    }
    int32_t A = pick(), B = pick();
    while (B == A)
      B = pick();
    C.addCx(A, B);
  }
  return C;
}

/// Counts of the comparisons made and of the budget cases they covered.
struct Coverage {
  size_t Windows = 0;
  size_t QlosureCapBound = 0; ///< The 8B cap stopped Qlosure's window.
  size_t GreedyShort = 0;     ///< Fewer than W extended gates fit the cap.
};

/// Executes \p C in a seeded random topological order and, after every
/// few executions, compares the tracker's windows under both kernels'
/// budgets with the reference.
void compareAlongRandomPrefixes(const Circuit &C, uint64_t Seed,
                                Coverage &Cov) {
  CircuitDag Dag(C);
  RoutingScratch Scratch;
  FrontLayerTracker T(Dag, Scratch);
  std::vector<uint8_t> Executed(Dag.numGates(), 0);
  Rng R(Seed);
  while (!T.allExecuted()) {
    std::vector<uint32_t> Front = T.front();
    size_t FrontTwoQ = static_cast<size_t>(
        std::count_if(Front.begin(), Front.end(),
                      [&](uint32_t G) { return Dag.isTwoQubitGate(G); }));

    // Qlosure: B = c * n_f two-qubit gates within 8B gates.
    for (size_t B : {size_t{1}, size_t{3}, 8 * FrontTwoQ + 1,
                     static_cast<size_t>(1 + R.nextBounded(64))}) {
      Window Ref = referenceWindow(Dag, Executed, Front, B, true);
      const std::vector<uint32_t> &Got = T.topologicalWindow(8 * B, B);
      ASSERT_EQ(Got, Ref.Gates) << "seed " << Seed << " B " << B;
      ASSERT_EQ(Scratch.WindowLevel, Ref.Levels)
          << "seed " << Seed << " B " << B;
      ++Cov.Windows;
      Cov.QlosureCapBound += Ref.Gates.size() == 8 * B;
    }

    // Greedy: the first W non-front 2Q gates within |front 2Q| + 4W gates.
    for (size_t W : {size_t{1}, size_t{4}, size_t{20},
                     static_cast<size_t>(1 + R.nextBounded(40))}) {
      Window Ref =
          referenceWindow(Dag, Executed, Front, FrontTwoQ + 4 * W, false);
      std::vector<uint32_t> RefExt = extendedSet(T, Dag, Ref.Gates, W);
      std::vector<uint32_t> Got =
          T.topologicalWindow(FrontTwoQ + 4 * W, FrontTwoQ + W);
      ASSERT_EQ(extendedSet(T, Dag, Got, SIZE_MAX), RefExt)
          << "seed " << Seed << " W " << W;
      ++Cov.Windows;
      Cov.GreedyShort +=
          RefExt.size() < W && Ref.Gates.size() == FrontTwoQ + 4 * W;
    }

    // Advance by one to three random front gates.
    size_t Steps = 1 + R.nextBounded(3);
    for (size_t I = 0; I < Steps && !T.allExecuted(); ++I) {
      uint32_t G = T.front()[R.nextBounded(T.front().size())];
      T.execute(G);
      Executed[G] = 1;
    }
  }
}

} // namespace

TEST(WindowEquivalenceTest, QuekoPrefixes) {
  Coverage Cov;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    QuekoSpec Spec;
    Spec.Depth = 40;
    Spec.Seed = Seed;
    compareAlongRandomPrefixes(generateQueko(makeSycamore54(), Spec).Circ,
                               Seed, Cov);
  }
  EXPECT_GT(Cov.Windows, 1000u);
}

TEST(WindowEquivalenceTest, OneQubitHeavyPrefixes) {
  Coverage Cov;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Rng R(Seed);
    compareAlongRandomPrefixes(mixedCircuit(R, 12, 400, 0.85), Seed, Cov);
  }
  EXPECT_GT(Cov.Windows, 1000u);
  EXPECT_GT(Cov.QlosureCapBound, 0u) << "the 8B cap never stopped a window";
  EXPECT_GT(Cov.GreedyShort, 0u) << "W extended gates always fit the cap";
}
