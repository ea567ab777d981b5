//===- affine/PeriodDetector.cpp - Periodic macro-gate structure ---------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "affine/PeriodDetector.h"

#include "affine/Lifter.h"

#include <algorithm>

using namespace qlosure;

namespace {

/// The gate trace flattened out of the statement form: one entry per trace
/// index, O(1) pair comparisons during verification.
struct TraceView {
  std::vector<uint8_t> Kind;
  std::vector<uint8_t> Arity;
  std::vector<int32_t> Q[3];

  explicit TraceView(const AffineCircuit &AC) {
    size_t N = static_cast<size_t>(AC.numGates());
    Kind.resize(N);
    Arity.resize(N);
    for (auto &Col : Q)
      Col.assign(N, -1);
    size_t T = 0;
    for (const MacroGate &S : AC.statements())
      for (int64_t I = 0; I < S.TripCount; ++I, ++T) {
        Kind[T] = static_cast<uint8_t>(S.Kind);
        Arity[T] = static_cast<uint8_t>(S.NumOperands);
        for (unsigned K = 0; K < S.NumOperands; ++K)
          Q[K][T] = static_cast<int32_t>(S.qubit(K, I));
      }
  }

  /// True when gate T2's operands are gate T1's through \p Perm.
  bool pairMatches(size_t T1, size_t T2,
                   const std::vector<int32_t> &Perm) const {
    if (Kind[T1] != Kind[T2] || Arity[T1] != Arity[T2])
      return false;
    for (unsigned K = 0; K < Arity[T1]; ++K)
      if (Perm[static_cast<size_t>(Q[K][T1])] != Q[K][T2])
        return false;
    return true;
  }
};

/// Derives pi pointwise from the gate pairs (t, t+B) of the first period.
/// Qubits the pairs leave unconstrained are completed deterministically:
/// each keeps its own index when no constrained qubit maps there, and the
/// rest take the free images in ascending order.
std::optional<std::vector<int32_t>>
derivePermPointwise(const TraceView &TV, size_t R, size_t B,
                    unsigned NumQubits) {
  std::vector<int32_t> To(NumQubits, -1);
  std::vector<uint8_t> Used(NumQubits, 0);
  for (size_t T = R; T < R + B; ++T) {
    size_t T2 = T + B;
    if (TV.Kind[T] != TV.Kind[T2] || TV.Arity[T] != TV.Arity[T2])
      return std::nullopt;
    for (unsigned K = 0; K < TV.Arity[T]; ++K) {
      int32_t Src = TV.Q[K][T], Dst = TV.Q[K][T2];
      if (To[Src] == Dst)
        continue;
      if (To[Src] != -1 || Used[Dst])
        return std::nullopt;
      To[Src] = Dst;
      Used[Dst] = 1;
    }
  }
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    if (To[Q] == -1 && !Used[Q]) {
      To[Q] = static_cast<int32_t>(Q);
      Used[Q] = 1;
    }
  unsigned NextImage = 0;
  for (unsigned Q = 0; Q < NumQubits; ++Q) {
    if (To[Q] != -1)
      continue;
    while (NextImage < NumQubits && Used[NextImage])
      ++NextImage;
    To[Q] = static_cast<int32_t>(NextImage);
    Used[NextImage] = 1;
  }
  return To;
}

} // namespace

std::optional<PeriodStructure>
qlosure::detectPeriod(const AffineCircuit &AC) {
  const size_t M = AC.numStatements();
  const int64_t N = AC.numGates();
  if (M == 0 || N < 2 * MinPeriods)
    return std::nullopt;

  TraceView TV(AC);

  // Statement start offsets (the candidate period seams).
  std::vector<int64_t> Starts(M);
  for (size_t S = 0; S < M; ++S)
    Starts[S] = AC.statement(S).Start;

  for (size_t R0 = 0; R0 < std::min(MaxPrologueStatements + 1, M); ++R0) {
    const int64_t R = Starts[R0];
    int64_t B = 0;
    for (size_t K = 1; R0 + K <= M && K <= MaxBodyStatements; ++K) {
      B += AC.statement(R0 + K - 1).TripCount;
      if (B > MaxBodyGates)
        break;
      if ((N - R) / B < MinPeriods)
        break; // Larger bodies only fit fewer periods.
      if (R + 2 * B > N)
        break;

      // Cheap shape reject before deriving anything: the first pair of
      // gates across the seam must at least agree on kind and arity.
      if (TV.Kind[R] != TV.Kind[R + B] || TV.Arity[R] != TV.Arity[R + B])
        continue;

      // Derive pi from the first period. Its constraints are necessary
      // for *any* pi, so this is also the cheap rejection filter for wrong
      // candidate periods; the verification below makes the result exact.
      std::optional<std::vector<int32_t>> Perm = derivePermPointwise(
          TV, static_cast<size_t>(R), static_cast<size_t>(B),
          AC.numQubits());
      if (!Perm)
        continue;

      // Verify the candidate across the whole trace: count consecutive
      // matching pairs from the region start, then keep whole periods.
      int64_t T = R;
      while (T + B < N &&
             TV.pairMatches(static_cast<size_t>(T),
                            static_cast<size_t>(T + B), *Perm))
        ++T;
      int64_t Matched = T - R; // Pairs (t, t+B) verified.
      int64_t Periods = Matched / B + 1;
      if (Periods < MinPeriods)
        continue;
      if (static_cast<double>(Periods * B) <
          MinPeriodCoverage * static_cast<double>(N - R))
        continue;

      PeriodStructure P;
      P.RegionStart = R;
      P.BodyGates = B;
      P.NumPeriods = Periods;
      P.Perm = std::move(*Perm);
      return P;
    }
  }
  return std::nullopt;
}

std::optional<PeriodStructure> qlosure::detectPeriod(const Circuit &Circ) {
  return detectPeriod(liftCircuit(Circ));
}
