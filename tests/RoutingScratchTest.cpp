//===- tests/RoutingScratchTest.cpp - scratch kernel correctness -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocation-free kernel's correctness hinges on two properties this
/// file pins down: (1) epoch-stamped buffers really do reset in O(1) —
/// stale entries from a previous step/route can never leak into the next;
/// (2) routing through one long-lived scratch is byte-identical to routing
/// with a fresh scratch per call, for every mapper and in any interleaving.
/// Plus the livelock regression test for GreedyRouterBase's
/// MaxSwapsWithoutProgress escape hatch, and FlatHashSet64, the
/// epoch-stamped closed list the pooled QMAP A* leans on.
///
//===----------------------------------------------------------------------===//

#include "baselines/GreedyRouterBase.h"
#include "baselines/RouterRegistry.h"
#include "circuit/Dag.h"
#include "route/FrontLayer.h"
#include "route/RoutingScratch.h"
#include "route/Verify.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace qlosure;

//===----------------------------------------------------------------------===//
// EpochArray semantics
//===----------------------------------------------------------------------===//

TEST(EpochArrayTest, StaleEntriesReadValueInitialized) {
  EpochArray<unsigned> A;
  A.ensure(4);
  A.beginEpoch();
  EXPECT_FALSE(A.fresh(0));
  EXPECT_EQ(A.get(0), 0u);
  A.set(0, 7);
  A.set(3, 9);
  EXPECT_TRUE(A.fresh(0));
  EXPECT_TRUE(A.fresh(3));
  EXPECT_FALSE(A.fresh(1));
  EXPECT_EQ(A.get(0), 7u);
  EXPECT_EQ(A.get(1), 0u);
  EXPECT_EQ(A.get(3), 9u);
}

TEST(EpochArrayTest, BeginEpochInvalidatesEverythingInO1) {
  EpochArray<unsigned> A;
  A.ensure(3);
  A.beginEpoch();
  A.set(0, 1);
  A.set(1, 2);
  A.set(2, 3);
  A.beginEpoch(); // No refill happens; stamps are simply outdated.
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_FALSE(A.fresh(I)) << I;
    EXPECT_EQ(A.get(I), 0u) << I;
  }
  // Old payloads must not resurface across many epochs either.
  for (int E = 0; E < 100; ++E)
    A.beginEpoch();
  EXPECT_FALSE(A.fresh(1));
  EXPECT_EQ(A.get(1), 0u);
}

TEST(EpochArrayTest, EnsureGrowsWithoutDisturbingFreshEntries) {
  EpochArray<int> A;
  A.ensure(2);
  A.beginEpoch();
  A.set(1, 42);
  A.ensure(8); // Growth: new slots are stale, old stay fresh.
  EXPECT_TRUE(A.fresh(1));
  EXPECT_EQ(A.get(1), 42);
  for (size_t I = 2; I < 8; ++I)
    EXPECT_FALSE(A.fresh(I)) << I;
}

TEST(EpochArrayTest, RefMutatesFreshEntry) {
  EpochArray<uint32_t> A;
  A.ensure(1);
  A.beginEpoch();
  A.set(0, 5);
  --A.ref(0);
  --A.ref(0);
  EXPECT_EQ(A.get(0), 3u);
}

//===----------------------------------------------------------------------===//
// Scratch reuse is byte-identical to fresh scratches
//===----------------------------------------------------------------------===//

namespace {

bool sameRouting(const RoutingResult &A, const RoutingResult &B) {
  if (A.NumSwaps != B.NumSwaps || A.Routed.size() != B.Routed.size() ||
      A.InsertedSwapFlags != B.InsertedSwapFlags ||
      !(A.FinalMapping == B.FinalMapping))
    return false;
  for (size_t I = 0; I < A.Routed.size(); ++I) {
    const Gate &GA = A.Routed.gate(I);
    const Gate &GB = B.Routed.gate(I);
    if (GA.Kind != GB.Kind || GA.Qubits != GB.Qubits ||
        GA.Params != GB.Params)
      return false;
  }
  return true;
}

} // namespace

TEST(RoutingScratchTest, RepeatedRoutesThroughOneScratchAreIdentical) {
  CouplingGraph Hw = makeGrid(4, 4);
  QuekoSpec Spec;
  Spec.Depth = 25;
  Spec.Seed = 11;
  Circuit C = generateQueko(makeKingsGrid(4, 4), Spec).Circ;
  for (const std::string &Name : paperRouterNames()) {
    auto Router = makeRouterByName(Name);
    RoutingContext Ctx = RoutingContext::build(C, Hw);
    RoutingScratch Shared;
    RoutingResult First = Router->routeWithIdentity(Ctx, Shared);
    // Second run reuses a dirty scratch; any stale epoch/buffer leak
    // would perturb the decision sequence.
    RoutingResult Second = Router->routeWithIdentity(Ctx, Shared);
    RoutingScratch Fresh;
    RoutingResult Clean = Router->routeWithIdentity(Ctx, Fresh);
    EXPECT_TRUE(sameRouting(First, Second)) << Name;
    EXPECT_TRUE(sameRouting(First, Clean)) << Name;
    EXPECT_TRUE(verifyRouting(C, Hw, Second).Ok) << Name;
  }
}

TEST(RoutingScratchTest, CrossMapperScratchSharingIsIdentical) {
  // One scratch serving all five mappers in sequence (the BatchRunner
  // worker shape) must match per-mapper fresh scratches: no mapper may
  // depend on scratch state a different mapper left behind.
  CouplingGraph Hw = makeAspen16();
  Circuit C = makeQft(10);
  RoutingScratch Shared;
  for (const std::string &Name : paperRouterNames()) {
    auto Router = makeRouterByName(Name);
    RoutingContext Ctx = RoutingContext::build(C, Hw);
    RoutingResult SharedRun = Router->routeWithIdentity(Ctx, Shared);
    RoutingResult CleanRun = Router->routeWithIdentity(Ctx);
    EXPECT_TRUE(sameRouting(SharedRun, CleanRun)) << Name;
  }
}

TEST(RoutingScratchTest, ScratchSurvivesGrowingAndShrinkingCircuits) {
  // Big circuit warms large buffers; a small circuit must then not read
  // beyond its own range (stale large-circuit state), and vice versa.
  CouplingGraph Hw = makeGrid(4, 4);
  QuekoSpec Big;
  Big.Depth = 30;
  Big.Seed = 3;
  Circuit Large = generateQueko(makeKingsGrid(4, 4), Big).Circ;
  Circuit Small = makeGhz(5);
  auto Router = makeRouterByName("qlosure");
  RoutingContext LargeCtx = RoutingContext::build(Large, Hw);
  RoutingContext SmallCtx = RoutingContext::build(Small, Hw);
  RoutingScratch Shared;
  RoutingResult L1 = Router->routeWithIdentity(LargeCtx, Shared);
  RoutingResult S1 = Router->routeWithIdentity(SmallCtx, Shared);
  RoutingResult L2 = Router->routeWithIdentity(LargeCtx, Shared);
  EXPECT_TRUE(sameRouting(L1, L2));
  EXPECT_TRUE(sameRouting(S1, Router->routeWithIdentity(SmallCtx)));
  EXPECT_TRUE(verifyRouting(Small, Hw, S1).Ok);
}

TEST(RoutingScratchTest, TopologicalWindowIdenticalOnDirtyScratch) {
  Circuit C(4);
  C.addCx(0, 1);
  C.addCx(2, 3);
  C.addCx(1, 2);
  C.addCx(0, 3);
  CircuitDag Dag(C);
  RoutingScratch Dirty;
  FrontLayerTracker T1(Dag, Dirty);
  // Dirty the window state with interleaved calls and executions.
  (void)T1.topologicalWindow(3);
  T1.execute(0);
  (void)T1.topologicalWindow(2);
  std::vector<uint32_t> DirtyWindow = T1.topologicalWindow(4);

  RoutingScratch Clean;
  FrontLayerTracker T2(Dag, Clean);
  T2.execute(0);
  std::vector<uint32_t> CleanWindow = T2.topologicalWindow(4);
  EXPECT_EQ(DirtyWindow, CleanWindow);
}

//===----------------------------------------------------------------------===//
// Livelock escape hatch (MaxSwapsWithoutProgress)
//===----------------------------------------------------------------------===//

namespace {

/// Adversarial greedy router: every candidate SWAP scores the same, so
/// the base class always applies the first candidate — which swaps one
/// pair back and forth forever and never unblocks the distant gate. Only
/// the MaxSwapsWithoutProgress escape hatch can terminate the routing.
class ThrashingRouter : public GreedyRouterBase {
public:
  std::string name() const override { return "Thrash"; }
  using GreedyRouterBase::MaxSwapsWithoutProgress;

protected:
  size_t extendedWindowSize(size_t) const override { return 0; }
  double scoreFromSums(double, double, double, double, size_t,
                       size_t) const override {
    return 0.0; // Constant: greedy descent gets no signal at all.
  }
};

} // namespace

TEST(LivelockEscapeTest, ThrashingScoreStillTerminatesVerified) {
  CouplingGraph Hw = makeLine(8);
  Circuit C(8, "livelock");
  C.addCx(0, 7); // Distance 7 under identity: blocked for a long time.
  C.addCx(3, 4); // Adjacent afterwards (wherever the escape leaves them).
  ThrashingRouter Router;
  RoutingResult R = Router.routeWithIdentity(C, Hw);
  VerifyResult V = verifyRouting(C, Hw, R);
  EXPECT_TRUE(V.Ok) << V.Message;
  // The constant score thrashes the first candidate pair until the escape
  // hatch fires, then the hatch walks qubit 0 down the line: strictly more
  // swaps than the shortest-path minimum, and at least one thrash round.
  EXPECT_GE(R.NumSwaps, ThrashingRouter::MaxSwapsWithoutProgress + 6u);
  EXPECT_EQ(R.Routed.size(), C.size() + R.NumSwaps);
}

TEST(LivelockEscapeTest, EscapeFiresRepeatedlyOnSequentialBlockedGates) {
  // Several far-apart gates in sequence: every one of them has to go
  // through a fresh thrash + escape cycle on a ring.
  CouplingGraph Hw = makeRing(10);
  Circuit C(10, "livelock-seq");
  C.addCx(0, 5);
  C.addCx(1, 6);
  C.addCx(2, 7);
  ThrashingRouter Router;
  RoutingResult R = Router.routeWithIdentity(C, Hw);
  EXPECT_TRUE(verifyRouting(C, Hw, R).Ok);
  EXPECT_GT(R.NumSwaps, 0u);
}

TEST(LivelockEscapeTest, ScratchReuseAcrossThrashingRoutes) {
  // The escape path must also be scratch-clean: same result on a dirty
  // scratch as on a fresh one.
  CouplingGraph Hw = makeLine(8);
  Circuit C(8, "livelock");
  C.addCx(0, 7);
  ThrashingRouter Router;
  RoutingContext Ctx = RoutingContext::build(C, Hw);
  RoutingScratch Shared;
  RoutingResult A = Router.routeWithIdentity(Ctx, Shared);
  RoutingResult B = Router.routeWithIdentity(Ctx, Shared);
  EXPECT_TRUE(sameRouting(A, B));
}

//===----------------------------------------------------------------------===//
// FlatHashSet64 (the pooled QMAP A* closed list)
//===----------------------------------------------------------------------===//

TEST(FlatHashSet64Test, MatchesUnorderedSetSemantics) {
  FlatHashSet64 Set;
  Set.clear();
  EXPECT_EQ(Set.size(), 0u);
  EXPECT_FALSE(Set.contains(42));
  EXPECT_TRUE(Set.insert(42));
  EXPECT_FALSE(Set.insert(42)) << "duplicate insert must report existing";
  EXPECT_TRUE(Set.contains(42));
  EXPECT_EQ(Set.size(), 1u);

  // Keys that collide in the low bits exercise linear probing.
  for (uint64_t I = 0; I < 8; ++I)
    EXPECT_TRUE(Set.insert(42 + (I + 1) * 1024));
  EXPECT_EQ(Set.size(), 9u);
  for (uint64_t I = 0; I < 8; ++I)
    EXPECT_TRUE(Set.contains(42 + (I + 1) * 1024));
}

TEST(FlatHashSet64Test, ClearIsEpochBumpNotRefill) {
  FlatHashSet64 Set;
  Set.clear();
  for (uint64_t I = 0; I < 100; ++I)
    EXPECT_TRUE(Set.insert(I * 0x9E3779B97F4A7C15ull));
  Set.clear();
  EXPECT_EQ(Set.size(), 0u);
  for (uint64_t I = 0; I < 100; ++I)
    EXPECT_FALSE(Set.contains(I * 0x9E3779B97F4A7C15ull))
        << "a cleared set answers empty";
  // Stale slots from the previous epoch must not block reinsertion.
  for (uint64_t I = 0; I < 100; ++I)
    EXPECT_TRUE(Set.insert(I * 0x9E3779B97F4A7C15ull));
  EXPECT_EQ(Set.size(), 100u);
}

TEST(FlatHashSet64Test, GrowthPreservesMembership) {
  // Past load factor 0.5 of the initial 1024-slot table the set rehashes;
  // every live key must survive and no ghost keys may appear.
  FlatHashSet64 Set;
  Set.clear();
  std::mt19937_64 Rng(3);
  std::vector<uint64_t> Keys;
  for (size_t I = 0; I < 2000; ++I)
    Keys.push_back(Rng());
  for (uint64_t K : Keys)
    EXPECT_TRUE(Set.insert(K));
  EXPECT_EQ(Set.size(), Keys.size());
  for (uint64_t K : Keys)
    EXPECT_TRUE(Set.contains(K));
  std::mt19937_64 Other(4);
  for (size_t I = 0; I < 1000; ++I)
    EXPECT_FALSE(Set.contains(Other() | (1ull << 63)))
        << "rehash must not invent members";
}
