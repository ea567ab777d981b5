//===- deps/TransitiveWeights.cpp - Dependence weight omega --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "deps/TransitiveWeights.h"

#include "affine/Lifter.h"
#include "circuit/Dag.h"
#include "deps/DependenceAnalysis.h"
#include "presburger/Counting.h"

#include <algorithm>
#include <cassert>

using namespace qlosure;
using namespace qlosure::presburger;

static WeightResult computeExact(const Circuit &Circ) {
  WeightResult Result;
  CircuitDag Dag(Circ);
  Result.Weights = Dag.exactTransitiveSuccessorCounts();
  Result.UsedEngine = WeightEngine::Exact;
  Result.IsExact = true;
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
