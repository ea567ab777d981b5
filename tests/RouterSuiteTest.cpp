//===- tests/RouterSuiteTest.cpp - cross-router correctness sweeps ----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property sweep: every mapper must produce a verified routing (hardware
/// adjacency + dependence preservation) on every (circuit, topology) pair,
/// insert zero SWAPs when none are needed, and respect basic sanity
/// invariants. Parameterized over the full mapper registry.
///
//===----------------------------------------------------------------------===//

#include "baselines/QmapAstar.h"
#include "baselines/RouterRegistry.h"
#include "core/Qlosure.h"
#include "route/Verify.h"
#include "support/Random.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"

#include <gtest/gtest.h>

using namespace qlosure;

namespace {

struct SweepCase {
  std::string RouterName;
  std::string TopologyName;
  std::string CircuitName;
};

std::ostream &operator<<(std::ostream &OS, const SweepCase &C) {
  return OS << C.RouterName << "_" << C.TopologyName << "_" << C.CircuitName;
}

CouplingGraph topologyByName(const std::string &Name) {
  if (Name == "line8")
    return makeLine(8);
  if (Name == "ring8")
    return makeRing(8);
  if (Name == "line16")
    return makeLine(16);
  if (Name == "ring16")
    return makeRing(16);
  if (Name == "grid4x4")
    return makeGrid(4, 4);
  if (Name == "kings4x4")
    return makeKingsGrid(4, 4);
  if (Name == "aspen16")
    return makeAspen16();
  return makeLine(8);
}

Circuit circuitByName(const std::string &Name) {
  if (Name == "ghz8")
    return makeGhz(8);
  if (Name == "qft6")
    return makeQft(6);
  if (Name == "bv8")
    return makeBv(8);
  if (Name == "adder8")
    return makeAdder(8);
  if (Name == "qaoa8")
    return makeQaoa(8, 2);
  if (Name == "queko16") {
    QuekoSpec Spec;
    Spec.Depth = 15;
    Spec.Seed = 77;
    Circuit C = generateQueko(makeAspen16(), Spec).Circ;
    C.setName("queko16");
    return C;
  }
  return makeGhz(8);
}

class RouterSweepTest : public ::testing::TestWithParam<SweepCase> {};

} // namespace

TEST_P(RouterSweepTest, ProducesVerifiedRouting) {
  const SweepCase &Case = GetParam();
  CouplingGraph Hw = topologyByName(Case.TopologyName);
  Circuit C = circuitByName(Case.CircuitName);
  // makeSweepCases only pairs circuits with devices that fit them; a
  // mismatch here is a sweep-construction bug, not a case to skip (silent
  // GTEST_SKIPs hid the entire queko16 column on 8-qubit devices for a
  // while).
  ASSERT_LE(C.numQubits(), Hw.numQubits())
      << "sweep paired circuit " << Case.CircuitName << " with too-small "
      << "device " << Case.TopologyName;
  auto Router = makeRouterByName(Case.RouterName);
  RoutingResult R = Router->routeWithIdentity(C, Hw);
  VerifyResult V = verifyRouting(C, Hw, R);
  EXPECT_TRUE(V.Ok) << V.Message;
  // Program gates + swaps account for the whole routed circuit.
  EXPECT_EQ(R.Routed.size(), C.size() + R.NumSwaps);
  // Depth can only grow or stay equal under routing.
  EXPECT_GE(R.Routed.depth(), C.depth());
}

static std::vector<SweepCase> makeSweepCases() {
  std::vector<SweepCase> Cases;
  for (const char *Router :
       {"qlosure", "sabre", "qmap", "cirq", "tket"}) {
    for (const char *Topology :
         {"line8", "ring8", "grid4x4", "kings4x4", "aspen16"})
      for (const char *Circ : {"ghz8", "qft6", "bv8", "adder8", "qaoa8"})
        Cases.push_back({Router, Topology, Circ});
    // queko16 is a 16-qubit circuit: pair it with 16-qubit devices only
    // (on line8/ring8 it used to be registered and then silently
    // GTEST_SKIPped, so no mapper was ever exercised on those params).
    for (const char *Topology :
         {"line16", "ring16", "grid4x4", "kings4x4", "aspen16"})
      Cases.push_back({Router, Topology, "queko16"});
  }
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllRouters, RouterSweepTest, ::testing::ValuesIn(makeSweepCases()),
    [](const ::testing::TestParamInfo<SweepCase> &Info) {
      std::string Name = Info.param.RouterName + "_" +
                         Info.param.TopologyName + "_" +
                         Info.param.CircuitName;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Zero-swap and structural properties
//===----------------------------------------------------------------------===//

namespace {

class ZeroSwapTest : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(ZeroSwapTest, AdjacentCircuitNeedsNoSwaps) {
  // GHZ on a line is already hardware-compatible under identity mapping.
  CouplingGraph Hw = makeLine(8);
  Circuit C = makeGhz(8);
  auto Router = makeRouterByName(GetParam());
  RoutingResult R = Router->routeWithIdentity(C, Hw);
  EXPECT_EQ(R.NumSwaps, 0u);
  EXPECT_EQ(R.Routed.depth(), C.depth());
  EXPECT_TRUE(R.FinalMapping == R.InitialMapping);
}

TEST_P(ZeroSwapTest, SingleQubitCircuitUntouched) {
  CouplingGraph Hw = makeRing(5);
  Circuit C(5);
  for (int I = 0; I < 5; ++I)
    C.add1Q(GateKind::H, I);
  auto Router = makeRouterByName(GetParam());
  RoutingResult R = Router->routeWithIdentity(C, Hw);
  EXPECT_EQ(R.NumSwaps, 0u);
  EXPECT_EQ(R.Routed.size(), 5u);
}

TEST_P(ZeroSwapTest, EmptyCircuit) {
  CouplingGraph Hw = makeLine(3);
  Circuit C(3);
  auto Router = makeRouterByName(GetParam());
  RoutingResult R = Router->routeWithIdentity(C, Hw);
  EXPECT_EQ(R.Routed.size(), 0u);
  EXPECT_EQ(R.NumSwaps, 0u);
}

TEST_P(ZeroSwapTest, DeterministicAcrossRuns) {
  CouplingGraph Hw = makeGrid(3, 3);
  Circuit C = makeQft(6);
  auto Router1 = makeRouterByName(GetParam());
  auto Router2 = makeRouterByName(GetParam());
  RoutingResult A = Router1->routeWithIdentity(C, Hw);
  RoutingResult B = Router2->routeWithIdentity(C, Hw);
  EXPECT_EQ(A.NumSwaps, B.NumSwaps);
  EXPECT_EQ(A.Routed.size(), B.Routed.size());
}

INSTANTIATE_TEST_SUITE_P(AllRouters, ZeroSwapTest,
                         ::testing::Values("qlosure", "sabre", "qmap",
                                           "cirq", "tket"));

//===----------------------------------------------------------------------===//
// Qlosure-specific behaviour
//===----------------------------------------------------------------------===//

TEST(QlosureSpecificTest, AblationVariantsAllRouteCorrectly) {
  CouplingGraph Hw = makeGrid(3, 3);
  Circuit C = makeQft(7);
  for (bool Weights : {false, true}) {
    for (bool Layers : {false, true}) {
      QlosureOptions Opts;
      Opts.UseDependencyWeights = Weights;
      Opts.UseLayerStructure = Layers;
      QlosureRouter Router(Opts);
      RoutingResult R = Router.routeWithIdentity(C, Hw);
      VerifyResult V = verifyRouting(C, Hw, R);
      EXPECT_TRUE(V.Ok) << V.Message << " (weights=" << Weights
                        << " layers=" << Layers << ")";
    }
  }
}

TEST(QlosureSpecificTest, RunsFromNonTrivialInitialMapping) {
  CouplingGraph Hw = makeGrid(3, 3);
  Circuit C = makeQft(7);
  Rng Generator(1234);
  QubitMapping Initial =
      QubitMapping::random(C.numQubits(), Hw.numQubits(), Generator);
  QlosureRouter Router;
  RoutingResult R = Router.route(C, Hw, Initial);
  EXPECT_TRUE(verifyRouting(C, Hw, R).Ok);
  EXPECT_TRUE(R.InitialMapping == Initial);
}

TEST(QlosureSpecificTest, DependencyWeightsReduceSwapsOnQueko) {
  // The paper's core claim in miniature: dependency weighting should not
  // lose to distance-only on a dense QUEKO instance (averaged over seeds).
  CouplingGraph Gen = makeKingsGrid(4, 4);
  CouplingGraph Hw = makeGrid(4, 4);
  size_t SwapsFull = 0, SwapsDistance = 0;
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    QuekoSpec Spec;
    Spec.Depth = 20;
    Spec.Seed = Seed;
    Circuit C = generateQueko(Gen, Spec).Circ;
    QlosureOptions Full;
    QlosureRouter FullRouter(Full);
    SwapsFull += FullRouter.routeWithIdentity(C, Hw).NumSwaps;
    QlosureOptions Distance;
    Distance.UseDependencyWeights = false;
    Distance.UseLayerStructure = false;
    QlosureRouter DistanceRouter(Distance);
    SwapsDistance += DistanceRouter.routeWithIdentity(C, Hw).NumSwaps;
  }
  EXPECT_LE(SwapsFull, SwapsDistance + SwapsDistance / 10);
}

TEST(QmapSpecificTest, ExpansionBudgetTripsOnSherbrooke2X) {
  // Table II's Sherbrooke-2X medium instance needs about 3.2M A*
  // expansions, past QmapAstarRouter::ExpansionBudget.
  QuekoSpec Spec;
  Spec.Depth = 100;
  Spec.Seed = 11726;
  Circuit C = generateQueko(makeKings16x16(), Spec).Circ;
  CouplingGraph Hw = makeSherbrooke2X();
  QmapAstarRouter Router;
  RoutingResult R = Router.routeWithIdentity(C, Hw);
  EXPECT_TRUE(R.TimedOut);
  // Even timed out, the greedy completion must stay correct.
  EXPECT_TRUE(verifyRouting(C, Hw, R).Ok);
}
