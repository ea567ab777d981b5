//===- tests/OmegaPropertyTest.cpp - Exact omega against a bitset closure ---===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Omega is computed by a per-wire reverse sweep. These cases compare
/// it weight for weight with the plain definition of Eq. 1: a reverse
/// bitset closure over "the next gate on each of g's wires", counted per
/// gate. They run on the four golden inputs and on seeded random circuits
/// of mixed 1-, 2- and 3-qubit gates with idle wires, repeated operand
/// pairs, and circuits of 0 and 1 gates. Past 30k gates a bitset closure
/// needs hundreds of megabytes (450 MB at 60k gates), so there the
/// reference walks the DAG forward from seeded sample gates and counts
/// what each one reaches.
///
//===----------------------------------------------------------------------===//

#include "deps/TransitiveWeights.h"
#include "qasm/Importer.h"
#include "support/Random.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace qlosure;

namespace {

/// omega by definition: g reaches the next gate on each of its wires and
/// everything that gate reaches. Row G of \c Reach is the bitset of the
/// gates G reaches, in \c Words 64-bit words.
std::vector<uint64_t> referenceOmega(const Circuit &C) {
  size_t N = C.size();
  size_t Words = (N + 63) / 64;
  std::vector<uint64_t> Reach(N * Words, 0);
  std::vector<int64_t> Next(C.numQubits(), -1);
  std::vector<uint64_t> Omega(N);
  for (size_t G = N; G-- > 0;) {
    const Gate &Gt = C.gate(G);
    uint64_t *Row = Reach.data() + G * Words;
    for (unsigned K = 0; K < Gt.numQubits(); ++K) {
      int64_t &S = Next[static_cast<size_t>(Gt.Qubits[K])];
      if (S >= 0) {
        size_t Succ = static_cast<size_t>(S);
        Row[Succ / 64] |= uint64_t(1) << (Succ % 64);
        const uint64_t *SuccRow = Reach.data() + Succ * Words;
        for (size_t W = 0; W < Words; ++W)
          Row[W] |= SuccRow[W];
      }
      S = static_cast<int64_t>(G);
    }
    for (size_t W = 0; W < Words; ++W)
      Omega[G] += static_cast<uint64_t>(__builtin_popcountll(Row[W]));
  }
  return Omega;
}

/// omega of gate \p Start by definition, for circuits too large for the
/// closure: a forward walk over "the next gate on each wire", counting
/// the distinct gates it visits. \p NextOnWire[G * 3 + K] is the next gate
/// on operand K's wire after G, or -1.
uint64_t walkOmega(const Circuit &C, const std::vector<int64_t> &NextOnWire,
                   size_t Start) {
  std::vector<bool> Seen(C.size(), false);
  std::vector<size_t> Stack = {Start};
  uint64_t Reached = 0;
  while (!Stack.empty()) {
    size_t G = Stack.back();
    Stack.pop_back();
    for (unsigned K = 0; K < C.gate(G).numQubits(); ++K) {
      int64_t Succ = NextOnWire[G * 3 + K];
      if (Succ < 0 || Seen[static_cast<size_t>(Succ)])
        continue;
      Seen[static_cast<size_t>(Succ)] = true;
      ++Reached;
      Stack.push_back(static_cast<size_t>(Succ));
    }
  }
  return Reached;
}

/// Number of \p Samples seeded sample gates (plus the first and the last)
/// where the sweep and the forward walk differ.
size_t countDifferingSamples(const Circuit &C, size_t Samples) {
  std::vector<uint64_t> Sweep = computeDependenceWeights(C).Weights;
  EXPECT_EQ(Sweep.size(), C.size());
  std::vector<int64_t> NextOnWire(C.size() * 3, -1);
  std::vector<int64_t> Next(C.numQubits(), -1);
  for (size_t G = C.size(); G-- > 0;) {
    const Gate &Gt = C.gate(G);
    for (unsigned K = 0; K < Gt.numQubits(); ++K) {
      int64_t &S = Next[static_cast<size_t>(Gt.Qubits[K])];
      NextOnWire[G * 3 + K] = S;
      S = static_cast<int64_t>(G);
    }
  }
  Rng R(C.size());
  std::vector<size_t> Gates = {0, C.size() - 1};
  for (size_t I = 0; I < Samples; ++I)
    Gates.push_back(static_cast<size_t>(R.nextBounded(C.size())));
  size_t Differing = 0;
  for (size_t G : Gates)
    Differing += Sweep[G] != walkOmega(C, NextOnWire, G);
  return Differing;
}

/// Number of weights where the sweep and the reference differ.
size_t countDiffering(const Circuit &C) {
  std::vector<uint64_t> Sweep = computeDependenceWeights(C).Weights;
  std::vector<uint64_t> Ref = referenceOmega(C);
  EXPECT_EQ(Sweep.size(), Ref.size());
  size_t Differing = 0;
  for (size_t G = 0; G < std::min(Sweep.size(), Ref.size()); ++G)
    Differing += Sweep[G] != Ref[G];
  return Differing;
}

/// A random circuit on \p NumQubits wires of which only the first
/// \p Used carry gates. Gate arity is mixed; with some probability a 2Q
/// gate repeats the previous 2Q gate's operand pair (either orientation).
Circuit randomCircuit(Rng &R, unsigned NumQubits, unsigned Used,
                      size_t NumGates) {
  Circuit C(NumQubits);
  int32_t LastA = -1, LastB = -1;
  auto pick = [&] { return static_cast<int32_t>(R.nextBounded(Used)); };
  for (size_t I = 0; I < NumGates; ++I) {
    uint64_t Kind = R.nextBounded(10);
    if (Kind < 3 || Used < 2) {
      C.add1Q(GateKind::H, pick());
    } else if (Kind < 9 || Used < 3) {
      int32_t A = pick(), B = pick();
      if (LastA >= 0 && R.nextBernoulli(0.3)) {
        A = LastA;
        B = LastB;
        if (R.nextBernoulli(0.5))
          std::swap(A, B);
      }
      while (B == A)
        B = pick();
      C.addCx(A, B);
      LastA = A;
      LastB = B;
    } else {
      int32_t A = pick(), B = pick(), D = pick();
      while (B == A)
        B = pick();
      while (D == A || D == B)
        D = pick();
      C.addGate(Gate(GateKind::CCX, A, B, D));
    }
  }
  return C;
}

Circuit goldenQueko16() {
  std::ifstream In(std::string(QLOSURE_TEST_DATA_DIR) +
                   "/queko-16qbt-d25-s42.qasm");
  std::ostringstream Text;
  Text << In.rdbuf();
  qasm::ImportResult Imported = qasm::importQasm(Text.str(), "golden");
  EXPECT_TRUE(Imported.Circ.has_value());
  return Imported.Circ->withoutNonUnitaries();
}

} // namespace

TEST(OmegaPropertyTest, SweepMatchesClosureOnGoldenInputs) {
  QuekoSpec Spec;
  Spec.Depth = 500;
  Spec.Seed = 2026;
  const Circuit Inputs[] = {goldenQueko16(), qftLikeKernel(16, 100),
                            generateQueko(makeSycamore54(), Spec).Circ,
                            makeQaoa(16, 10)};
  for (const Circuit &C : Inputs) {
    ASSERT_GT(C.size(), 0u);
    EXPECT_EQ(countDiffering(C), 0u) << C.name();
  }
}

TEST(OmegaPropertyTest, SweepMatchesClosureOnRandomCircuits) {
  size_t Weights = 0, Differing = 0;
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    Rng R(Seed);
    unsigned NumQubits = 1 + static_cast<unsigned>(R.nextBounded(12));
    // A quarter of the circuits leave some wires idle.
    unsigned Used = R.nextBernoulli(0.25)
                        ? 1 + static_cast<unsigned>(R.nextBounded(NumQubits))
                        : NumQubits;
    // Seeds 1 and 2 give the empty and the one-gate circuit.
    size_t NumGates = Seed <= 2 ? Seed - 1 : R.nextBounded(300);
    Circuit C = randomCircuit(R, NumQubits, Used, NumGates);
    Weights += C.size();
    Differing += countDiffering(C);
  }
  EXPECT_GT(Weights, 50000u);
  EXPECT_EQ(Differing, 0u);
}

TEST(OmegaPropertyTest, SweepMatchesForwardWalksPast30kGates) {
  QuekoSpec Spec;
  Spec.Depth = 2000;
  Spec.Seed = 1;
  const Circuit Inputs[] = {generateQueko(makeSycamore54(), Spec).Circ,
                            makeQugan(80, 400), qftLikeKernel(16, 1000)};
  for (const Circuit &C : Inputs) {
    ASSERT_GT(C.size(), 30000u) << C.name();
    EXPECT_EQ(countDifferingSamples(C, 64), 0u) << C.name();
  }
}
