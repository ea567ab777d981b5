//===- deps/TransitiveWeights.cpp - Dependence weight omega --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "deps/TransitiveWeights.h"

#include "affine/Lifter.h"
#include "deps/DependenceAnalysis.h"
#include "presburger/Counting.h"

#include <algorithm>
#include <cassert>

using namespace qlosure;
using namespace qlosure::presburger;

/// Exact omega by one reverse sweep over the gates. If g reaches h, it
/// reaches every later gate on h's wires, so on each wire the gates g
/// reaches form a suffix. Counting each gate on its first operand's wire
/// only, omega(g) is the sum over wires of that suffix's count. A gate's
/// vector holds, per wire, the count of the suffix it and its dependents
/// cover; counts fall as the suffix starts later, so the union over g's
/// direct successors (the next gate on each of g's wires) is their
/// elementwise maximum. A vector lives while its gate is the next gate on
/// some wire, so at most numQubits + 1 vectors are live at once.
static WeightResult computeExact(const Circuit &Circ) {
  WeightResult Result;
  size_t N = Circ.size();
  size_t Q = Circ.numQubits();
  Result.Weights.resize(N);

  constexpr uint32_t None = UINT32_MAX;
  // Vector slots: Pool[Slot * Q, (Slot + 1) * Q), each referenced by the
  // wires whose next gate owns it.
  std::vector<uint32_t> Pool((Q + 1) * Q);
  std::vector<uint32_t> Refs(Q + 1, 0);
  std::vector<uint32_t> FreeSlots(Q + 1);
  for (uint32_t S = 0; S <= Q; ++S)
    FreeSlots[S] = static_cast<uint32_t>(Q - S);
  std::vector<uint32_t> NextSlot(Q, None); // Slot of the next gate per wire.
  // Per wire: the gates swept so far whose first operand it is.
  std::vector<uint32_t> FirstCount(Q, 0);

  for (size_t GI = N; GI-- > 0;) {
    const Gate &G = Circ.gate(GI);
    unsigned NQ = G.numQubits();
    uint32_t Slot = FreeSlots.back();
    FreeSlots.pop_back();
    uint32_t *Reach = Pool.data() + static_cast<size_t>(Slot) * Q;
    std::fill_n(Reach, Q, 0);
    for (unsigned K = 0; K < NQ; ++K) {
      uint32_t Next = NextSlot[static_cast<size_t>(G.Qubits[K])];
      if (Next == None)
        continue;
      const uint32_t *Succ = Pool.data() + static_cast<size_t>(Next) * Q;
      for (size_t W = 0; W < Q; ++W)
        Reach[W] = std::max(Reach[W], Succ[W]);
    }
    uint64_t Omega = 0;
    for (size_t W = 0; W < Q; ++W)
      Omega += Reach[W];
    Result.Weights[GI] = Omega;

    // g itself now heads the suffix on each of its wires.
    ++FirstCount[static_cast<size_t>(G.Qubits[0])];
    for (unsigned K = 0; K < NQ; ++K) {
      size_t W = static_cast<size_t>(G.Qubits[K]);
      Reach[W] = FirstCount[W];
      uint32_t &Next = NextSlot[W];
      if (Next != None && --Refs[Next] == 0)
        FreeSlots.push_back(Next);
      Next = Slot;
      ++Refs[Slot];
    }
  }
  return Result;
}

/// If the self-dependence relation of a statement is a single translation
/// piece with stride d > 0, returns d; std::nullopt otherwise.
static std::optional<int64_t>
uniformSelfStride(const AffineDependences &Deps, uint32_t S) {
  const StatementDependence *Self = nullptr;
  for (const StatementDependence &D : Deps.dependences()) {
    if (D.From == S && D.To == S) {
      Self = &D;
      break;
    }
  }
  if (!Self || Self->Relation.pieces().size() != 1)
    return std::nullopt;
  auto Delta = Self->Relation.pieces().front().asTranslation();
  if (!Delta || (*Delta)[0] <= 0)
    return std::nullopt;
  return (*Delta)[0];
}

/// Statement count past which the affine engine saturates (see the guard
/// in computeAffine).
constexpr size_t SaturationStatementLimit = 2500;

static WeightResult computeAffine(const Circuit &Circ) {
  WeightResult Result;
  Result.UsedEngine = WeightEngine::Affine;
  Result.IsExact = false;

  AffineCircuit AC = liftCircuit(Circ);
  Result.CompressionRatio = AC.compressionRatio();

  // Saturation guard: when the lifter finds no regularity the statement
  // graph is as large as the gate list and its closure would cost
  // quadratic memory. Fall back to the trivially sound upper bound
  // "every later gate depends on g" (tight on dense QUEKO-style traces).
  if (AC.numStatements() > SaturationStatementLimit) {
    size_t NumGates = static_cast<size_t>(AC.numGates());
    Result.Weights.resize(NumGates);
    for (size_t T = 0; T < NumGates; ++T)
      Result.Weights[T] = static_cast<uint64_t>(NumGates - 1 - T);
    return Result;
  }

  AffineDependences Deps(AC);

  size_t NumGates = static_cast<size_t>(AC.numGates());
  Result.Weights.assign(NumGates, 0);

  size_t NumStatements = AC.numStatements();
  for (uint32_t S = 0; S < NumStatements; ++S) {
    const MacroGate &M = AC.statement(S);

    // Count of downstream gates in every reachable statement T != S is a
    // piecewise-linear function of the gate time t. We evaluate it with an
    // event sweep over the statement's time window [Start, Start + Trip).
    //
    // countAfter(T, t) = clamp(TripT - max(0, t + 1 - StartT), 0, TripT)
    // decreases by one exactly when t + 1 lands inside T's time window.
    int64_t WindowLo = M.Start;
    int64_t WindowLen = M.TripCount;

    // Base value at t = WindowLo and derivative events.
    int64_t Base = 0;
    std::vector<int64_t> DecrEvents(static_cast<size_t>(WindowLen), 0);
    auto addStatementCounts = [&](const MacroGate &T) {
      int64_t CutAtBase = std::clamp<int64_t>(
          T.TripCount - std::max<int64_t>(0, WindowLo + 1 - T.Start), 0,
          T.TripCount);
      Base += CutAtBase;
      // For instance index i >= 1 (time t = WindowLo + i), the count drops
      // by one whenever WindowLo + i + 1 - T.Start is in [1, TripT], i.e.
      // i in [T.Start - WindowLo, T.Start - WindowLo + TripT - 1], and the
      // count is still positive. Clip against the positivity boundary:
      // count hits zero at t + 1 - T.Start == TripT.
      int64_t FirstDrop = std::max<int64_t>(1, T.Start - WindowLo);
      int64_t LastDrop = T.Start - WindowLo + T.TripCount - 1;
      LastDrop = std::min<int64_t>(LastDrop, WindowLen - 1);
      for (int64_t I = FirstDrop; I <= LastDrop; ++I)
        ++DecrEvents[static_cast<size_t>(I)];
    };

    bool SelfReachable = false;
    for (uint32_t T : Deps.reachable()[S]) {
      if (T == S) {
        SelfReachable = true;
        continue;
      }
      addStatementCounts(AC.statement(T));
    }

    // Self contribution: exact closed form for a single uniform stride
    // (Barvinok-style count of the translation closure image), otherwise
    // the sound upper bound "all later instances".
    std::optional<int64_t> SelfStride;
    PiecewiseQuasiAffine SelfCount;
    if (SelfReachable) {
      SelfStride = uniformSelfStride(Deps, S);
      if (SelfStride)
        SelfCount = closureImageCount1D(0, M.TripCount - 1, *SelfStride);
    }

    int64_t Running = Base;
    for (int64_t I = 0; I < M.TripCount; ++I) {
      if (I > 0)
        Running -= DecrEvents[static_cast<size_t>(I)];
      assert(Running >= 0 && "event sweep went negative");
      int64_t Self = 0;
      if (SelfReachable)
        Self = SelfStride ? SelfCount.evaluate(I) : (M.TripCount - 1 - I);
      Result.Weights[static_cast<size_t>(M.Start + I)] =
          static_cast<uint64_t>(Running + Self);
    }
  }
  return Result;
}

WeightResult qlosure::computeDependenceWeights(const Circuit &Circ,
                                               WeightEngine Engine) {
  assert(std::none_of(Circ.gates().begin(), Circ.gates().end(),
                      [](const Gate &G) {
                        return G.Kind == GateKind::Barrier ||
                               G.Kind == GateKind::Measure;
                      }) &&
         "omega is defined over unitary gates only");

  switch (Engine) {
  case WeightEngine::Exact:
    return computeExact(Circ);
  case WeightEngine::Affine:
    return computeAffine(Circ);
  case WeightEngine::Auto:
    if (Circ.size() <= ExactGateLimit)
      return computeExact(Circ);
    return computeAffine(Circ);
  }
  return computeExact(Circ);
}
