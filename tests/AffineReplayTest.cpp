//===- tests/AffineReplayTest.cpp - Affine fast-path tests ------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the affine routing fast path: period detection on lifted
/// traces and the replay engine's byte-identity contract — routing with
/// AffineReplay on must produce exactly the result of the scalar kernel,
/// whatever fraction of the periods actually replayed.
///
//===----------------------------------------------------------------------===//

#include "affine/PeriodDetector.h"
#include "core/Qlosure.h"
#include "route/ReplayPlan.h"
#include "route/Verify.h"
#include "support/Random.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Structured.h"

#include <gtest/gtest.h>

using namespace qlosure;

namespace {

/// Structural equality of two routing results (the replay contract).
void expectIdentical(const RoutingResult &A, const RoutingResult &B) {
  ASSERT_EQ(A.Routed.size(), B.Routed.size());
  EXPECT_EQ(A.NumSwaps, B.NumSwaps);
  for (size_t I = 0; I < A.Routed.size(); ++I) {
    const Gate &GA = A.Routed.gate(I);
    const Gate &GB = B.Routed.gate(I);
    ASSERT_EQ(GA.Kind, GB.Kind) << "gate " << I;
    ASSERT_EQ(GA.Qubits, GB.Qubits) << "gate " << I;
    ASSERT_EQ(GA.Params, GB.Params) << "gate " << I;
  }
  EXPECT_EQ(A.InsertedSwapFlags, B.InsertedSwapFlags);
  EXPECT_TRUE(A.FinalMapping == B.FinalMapping);
}

Circuit randomUnitary(unsigned NumQubits, size_t NumGates, uint64_t Seed) {
  Rng Generator(Seed);
  Circuit C(NumQubits, "random");
  for (size_t I = 0; I < NumGates; ++I) {
    if (Generator.nextBernoulli(0.7)) {
      int32_t A = static_cast<int32_t>(Generator.nextBounded(NumQubits));
      int32_t B;
      do {
        B = static_cast<int32_t>(Generator.nextBounded(NumQubits));
      } while (B == A);
      C.addCx(A, B);
    } else {
      C.add1Q(GateKind::H,
              static_cast<int32_t>(Generator.nextBounded(NumQubits)));
    }
  }
  return C;
}

QlosureOptions replayProfile(bool AffineReplay) {
  QlosureOptions O;
  // The symbolic-replay profile: omega is aperiodic by construction, so
  // the weighted configuration would fall back on nearly every period.
  O.UseDependencyWeights = false;
  O.AffineReplay = AffineReplay;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload generators
//===----------------------------------------------------------------------===//

TEST(StructuredWorkloadTest, CyclicShiftWraps) {
  std::vector<int32_t> P = cyclicShiftPermutation(5, 2);
  EXPECT_EQ(P, (std::vector<int32_t>{2, 3, 4, 0, 1}));
  std::vector<int32_t> N = cyclicShiftPermutation(5, -1);
  EXPECT_EQ(N, (std::vector<int32_t>{4, 0, 1, 2, 3}));
}

TEST(StructuredWorkloadTest, RepeatComposesPermutationPowers) {
  Circuit Body(4, "b");
  Body.addCx(0, 1);
  Body.add1Q(GateKind::H, 3);
  Circuit Rep =
      repeatWithPermutation(Body, cyclicShiftPermutation(4, 1), 3, "rep");
  ASSERT_EQ(Rep.size(), 6u);
  // Iteration 1: shift by one; iteration 2: shift by two.
  EXPECT_EQ(Rep.gate(2).Qubits[0], 1);
  EXPECT_EQ(Rep.gate(2).Qubits[1], 2);
  EXPECT_EQ(Rep.gate(3).Qubits[0], 0); // (3 + 1) mod 4
  EXPECT_EQ(Rep.gate(4).Qubits[0], 2);
  EXPECT_EQ(Rep.gate(4).Qubits[1], 3);
  EXPECT_EQ(Rep.gate(5).Qubits[0], 1);
}

//===----------------------------------------------------------------------===//
// Period detection
//===----------------------------------------------------------------------===//

TEST(PeriodDetectorTest, PureRepetitionIdentityPerm) {
  Circuit Circ = qftLikeKernel(8, 6);
  std::optional<PeriodStructure> P = detectPeriod(Circ);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->RegionStart, 0);
  EXPECT_EQ(P->BodyGates, 16); // 8 H + 7 CP + 1 wrap CP.
  EXPECT_EQ(P->NumPeriods, 6);
  EXPECT_EQ(P->regionEnd(), static_cast<int64_t>(Circ.size()));
  for (size_t Q = 0; Q < P->Perm.size(); ++Q)
    EXPECT_EQ(P->Perm[Q], static_cast<int32_t>(Q));
}

TEST(PeriodDetectorTest, ShiftedRepetitionRecoversShift) {
  Circuit Body(6, "b");
  for (int32_t Q = 0; Q + 1 < 6; ++Q)
    Body.addCx(Q, Q + 1);
  Circuit Circ =
      repeatWithPermutation(Body, cyclicShiftPermutation(6, 1), 5, "shift");
  std::optional<PeriodStructure> P = detectPeriod(Circ);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->BodyGates, 5);
  EXPECT_EQ(P->NumPeriods, 5);
  EXPECT_EQ(P->Perm, cyclicShiftPermutation(6, 1));
}

TEST(PeriodDetectorTest, PrologueBeforeRegion) {
  Circuit Circ(8, "prologued");
  Circ.addCx(7, 2); // Breaks any affine run the body starts.
  Circ.add1Q(GateKind::X, 5);
  Circuit Body = qftLikeKernel(8, 5);
  for (const Gate &G : Body.gates())
    Circ.addGate(G);
  std::optional<PeriodStructure> P = detectPeriod(Circ);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->RegionStart, 2);
  EXPECT_EQ(P->BodyGates, 16);
  EXPECT_EQ(P->NumPeriods, 5);
}

TEST(PeriodDetectorTest, RejectsUnstructured) {
  Circuit Circ = randomUnitary(10, 400, 99);
  EXPECT_FALSE(detectPeriod(Circ).has_value());
}

TEST(PeriodDetectorTest, RejectsTooFewPeriods) {
  Circuit Circ = qftLikeKernel(8, 2); // Below MinPeriods = 3.
  EXPECT_FALSE(detectPeriod(Circ).has_value());
}

TEST(PeriodDetectorTest, ToleratesAperiodicTail) {
  Circuit Circ = qftLikeKernel(8, 8);
  size_t RegionGates = Circ.size();
  Circuit Tail = randomUnitary(8, 40, 7);
  for (const Gate &G : Tail.gates())
    Circ.addGate(G);
  std::optional<PeriodStructure> P = detectPeriod(Circ);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->regionEnd(), static_cast<int64_t>(RegionGates));
}

TEST(AffineReplayTest, PeriodStructuresArePinned) {
  // Replay is byte-identical whatever period the detector reports, so the
  // golden digests cannot see a changed structure; these pins can. The
  // first six circuits are perfbench's affine-batch items, and makeQft(16)
  // has no period. The last body never touches qubits 5..7, so pi is
  // completed there: 6 and 7 stay fixed and 5 takes the free image 0.
  Circuit Partial(8, "partial");
  for (int32_t Q = 0; Q < 4; ++Q)
    Partial.addCx(Q, Q + 1);
  const std::vector<int32_t> PartialShift = {1, 2, 3, 4, 5, 0, 6, 7};
  struct Pin {
    const char *Name;
    Circuit Circ;
    int64_t RegionStart, BodyGates, NumPeriods;
    std::vector<int32_t> Perm; ///< Empty when no period is expected.
  };
  const std::vector<Pin> Pins = {
      {"qft16x1000", qftLikeKernel(16, 1000), 0, 32, 1000,
       cyclicShiftPermutation(16, 0)},
      {"qft8x200", qftLikeKernel(8, 200), 0, 16, 200,
       cyclicShiftPermutation(8, 0)},
      {"ising16x100", makeIsing(16, 100), 0, 31, 100,
       cyclicShiftPermutation(16, 0)},
      {"qaoa16x50", makeQaoa(16, 50), 16, 40, 50,
       cyclicShiftPermutation(16, 0)},
      {"qugan16x100", makeQugan(16, 100), 0, 31, 100,
       cyclicShiftPermutation(16, 0)},
      {"conveyor24x40", layeredConveyor(makeLine(24), 3, 40, 1), 0, 33, 40,
       cyclicShiftPermutation(24, 1)},
      {"qft16", makeQft(16), 0, 0, 0, {}},
      {"partial-shift",
       repeatWithPermutation(Partial, PartialShift, 6, "partial-shift"), 0, 4,
       6, PartialShift},
  };
  for (const Pin &P : Pins) {
    SCOPED_TRACE(P.Name);
    std::optional<PeriodStructure> Found = detectPeriod(P.Circ);
    if (P.Perm.empty()) {
      EXPECT_FALSE(Found.has_value());
      continue;
    }
    ASSERT_TRUE(Found.has_value());
    EXPECT_EQ(Found->RegionStart, P.RegionStart);
    EXPECT_EQ(Found->BodyGates, P.BodyGates);
    EXPECT_EQ(Found->NumPeriods, P.NumPeriods);
    EXPECT_EQ(Found->Perm, P.Perm);
    // pi is a bijection on every qubit, completed ones included.
    std::vector<uint8_t> Seen(P.Circ.numQubits(), 0);
    for (int32_t Image : Found->Perm) {
      ASSERT_GE(Image, 0);
      ASSERT_LT(Image, static_cast<int32_t>(Seen.size()));
      EXPECT_FALSE(Seen[static_cast<size_t>(Image)]);
      Seen[static_cast<size_t>(Image)] = 1;
    }
  }
}

//===----------------------------------------------------------------------===//
// Replay engine
//===----------------------------------------------------------------------===//

TEST(AffineReplayTest, ByteIdenticalOnQftKernel) {
  Circuit Circ = qftLikeKernel(16, 40);
  CouplingGraph Hw = makeLine(16);

  QlosureRouter Scalar(replayProfile(false));
  QlosureRouter Fast(replayProfile(true));
  RoutingResult A = Scalar.routeWithIdentity(Circ, Hw);
  RoutingResult B = Fast.routeWithIdentity(Circ, Hw);

  expectIdentical(A, B);
  EXPECT_EQ(A.AffineReplayedPeriods, 0u);
  EXPECT_EQ(A.AffineFallbackPeriods, 0u);
  EXPECT_GT(B.AffineReplayedPeriods, 0u) << "no period ever replayed";
  EXPECT_LE(B.AffineReplayedPeriods + B.AffineFallbackPeriods, 40u);

  VerifyResult V = verifyRouting(Circ, Hw, B);
  EXPECT_TRUE(V.Ok) << V.Message;
}

TEST(AffineReplayTest, ByteIdenticalOnConveyor) {
  CouplingGraph Gen = makeGrid(4, 4);
  Circuit Circ = layeredConveyor(Gen, 3, 30, 17);
  CouplingGraph Hw = makeGrid(4, 4);

  RoutingResult A =
      QlosureRouter(replayProfile(false)).routeWithIdentity(Circ, Hw);
  RoutingResult B =
      QlosureRouter(replayProfile(true)).routeWithIdentity(Circ, Hw);
  expectIdentical(A, B);
  VerifyResult V = verifyRouting(Circ, Hw, B);
  EXPECT_TRUE(V.Ok) << V.Message;
}

TEST(AffineReplayTest, WarmContextCacheReplaysSecondRoute) {
  Circuit Circ = qftLikeKernel(12, 24);
  CouplingGraph Hw = makeLine(12);
  QlosureRouter Fast(replayProfile(true));
  RoutingContext Ctx = RoutingContext::build(Circ, Hw);
  ASSERT_TRUE(Ctx.valid());

  RoutingResult Cold = Fast.routeWithIdentity(Ctx);
  RoutingResult Warm = Fast.routeWithIdentity(Ctx);
  expectIdentical(Cold, Warm);
  // The second route finds every plan the first one recorded.
  EXPECT_GE(Warm.AffineReplayedPeriods, Cold.AffineReplayedPeriods);
  EXPECT_GT(Warm.AffineReplayedPeriods, 0u);
}

TEST(AffineReplayTest, UnstructuredInputIsUntouched) {
  Circuit Circ = randomUnitary(12, 500, 3);
  CouplingGraph Hw = makeGrid(3, 4);
  RoutingResult A =
      QlosureRouter(replayProfile(false)).routeWithIdentity(Circ, Hw);
  RoutingResult B =
      QlosureRouter(replayProfile(true)).routeWithIdentity(Circ, Hw);
  expectIdentical(A, B);
  EXPECT_EQ(B.AffineReplayedPeriods, 0u);
  EXPECT_EQ(B.AffineFallbackPeriods, 0u);
}

TEST(AffineReplayTest, AperiodicTailFallsBackExactly) {
  Circuit Circ = qftLikeKernel(10, 20);
  Circuit Tail = randomUnitary(10, 60, 11);
  for (const Gate &G : Tail.gates())
    Circ.addGate(G);
  CouplingGraph Hw = makeLine(10);
  RoutingResult A =
      QlosureRouter(replayProfile(false)).routeWithIdentity(Circ, Hw);
  RoutingResult B =
      QlosureRouter(replayProfile(true)).routeWithIdentity(Circ, Hw);
  expectIdentical(A, B);
  VerifyResult V = verifyRouting(Circ, Hw, B);
  EXPECT_TRUE(V.Ok) << V.Message;
}

TEST(AffineReplayTest, WeightedProfileStaysExact) {
  // With dependency weights on, omega decreases across periods, so the
  // weight-slice gate rejects most replays — but whatever replays or
  // falls back, the result must stay byte-identical.
  Circuit Circ = qftLikeKernel(12, 20);
  CouplingGraph Hw = makeLine(12);
  QlosureOptions Base; // Weighted default profile.
  QlosureOptions Replay = Base;
  Replay.AffineReplay = true;
  RoutingResult A = QlosureRouter(Base).routeWithIdentity(Circ, Hw);
  RoutingResult B = QlosureRouter(Replay).routeWithIdentity(Circ, Hw);
  expectIdentical(A, B);
}

TEST(AffineReplayTest, SeedsDoNotBreakIdentity) {
  Circuit Circ = qftLikeKernel(12, 16);
  CouplingGraph Hw = makeRing(12);
  for (uint64_t Seed : {1ull, 42ull, 0xDEADBEEFull}) {
    QlosureOptions Off = replayProfile(false);
    Off.Seed = Seed;
    QlosureOptions On = replayProfile(true);
    On.Seed = Seed;
    RoutingResult A = QlosureRouter(Off).routeWithIdentity(Circ, Hw);
    RoutingResult B = QlosureRouter(On).routeWithIdentity(Circ, Hw);
    expectIdentical(A, B);
  }
}

TEST(AffineReplayTest, PlanCacheFirstPublisherWins) {
  ReplayPlanCache Cache;
  AnchorKey Key;
  Key.Data = {1, 2, 3};
  Key.Hash = 42;
  auto PlanA = std::make_shared<ReplayPlan>();
  PlanA->Key = Key;
  PlanA->RecordBase = 10;
  auto PlanB = std::make_shared<ReplayPlan>();
  PlanB->Key = Key;
  PlanB->RecordBase = 20;
  Cache.publish(PlanA);
  Cache.publish(PlanB);
  EXPECT_EQ(Cache.size(), 1u);
  std::shared_ptr<const ReplayPlan> Found = Cache.lookup(Key);
  ASSERT_TRUE(Found);
  EXPECT_EQ(Found->RecordBase, 10);
  // Same hash, different data: a separate entry, not a collision hit.
  AnchorKey Other;
  Other.Data = {4, 5};
  Other.Hash = 42;
  EXPECT_EQ(Cache.lookup(Other), nullptr);
}

TEST(AffineReplayTest, ContextMemoizesPeriodStructure) {
  Circuit Circ = qftLikeKernel(8, 5);
  CouplingGraph Hw = makeLine(8);
  RoutingContext Ctx = RoutingContext::build(Circ, Hw);
  ASSERT_TRUE(Ctx.valid());
  const PeriodStructure *P1 = Ctx.periodStructure();
  const PeriodStructure *P2 = Ctx.periodStructure();
  ASSERT_NE(P1, nullptr);
  EXPECT_EQ(P1, P2);
  EXPECT_EQ(P1->BodyGates, 16);
  EXPECT_EQ(&Ctx.replayPlanCache(), &Ctx.replayPlanCache());
}
