//===- affine/AffineCircuit.cpp - Affine circuit representation ----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "affine/AffineCircuit.h"

#include "support/StringUtils.h"

#include <cassert>

using namespace qlosure;
using namespace qlosure::presburger;

std::string MacroGate::toString() const {
  std::string Out = gateName(Kind);
  Out += formatString(" S[i: 0..%lld]", static_cast<long long>(TripCount - 1));
  for (unsigned K = 0; K < NumOperands; ++K) {
    Out += K ? ", " : " ";
    if (Scale[K] == 0)
      Out += formatString("q[%lld]", static_cast<long long>(Offset[K]));
    else if (Scale[K] == 1 && Offset[K] == 0)
      Out += "q[i]";
    else if (Offset[K] == 0)
      Out += formatString("q[%lld*i]", static_cast<long long>(Scale[K]));
    else
      Out += formatString("q[%lld*i%+lld]", static_cast<long long>(Scale[K]),
                          static_cast<long long>(Offset[K]));
  }
  Out += formatString(" @t=%lld+i", static_cast<long long>(Start));
  return Out;
}

AffineCircuit::AffineCircuit(unsigned NumQubits,
                             std::vector<MacroGate> StatementsIn)
    : NumQubits(NumQubits), Statements(std::move(StatementsIn)) {
  for (const MacroGate &S : Statements) {
    assert(S.TripCount >= 1 && "statements must be nonempty");
    assert(S.Start == TotalGates && "statements must tile the trace");
    TotalGates += S.TripCount;
  }
}

IntegerSet AffineCircuit::iterationDomain(size_t S) const {
  const MacroGate &M = Statements[S];
  BasicSet Domain(1);
  Domain.addBounds(0, 0, M.TripCount - 1);
  return IntegerSet(std::move(Domain));
}

IntegerMap AffineCircuit::accessRelation(size_t S, unsigned K) const {
  const MacroGate &M = Statements[S];
  assert(K < M.NumOperands && "operand index out of range");
  // { [i] -> [q] : q == Scale*i + Offset, 0 <= i < Trip }.
  BasicSet Set(2);
  Set.addConstraint(makeEqExpr(
      AffineExpr::variable(2, 1),
      AffineExpr::variable(2, 0) * M.Scale[K] +
          AffineExpr::constant(2, M.Offset[K])));
  Set.addConstraint(makeGe(AffineExpr::variable(2, 0),
                           AffineExpr::constant(2, 0)));
  Set.addConstraint(makeLe(AffineExpr::variable(2, 0),
                           AffineExpr::constant(2, M.TripCount - 1)));
  return IntegerMap(BasicMap(1, 1, std::move(Set)));
}

IntegerMap AffineCircuit::schedule(size_t S) const {
  const MacroGate &M = Statements[S];
  BasicSet Set(2);
  Set.addConstraint(makeEqExpr(AffineExpr::variable(2, 1),
                               AffineExpr::variable(2, 0) +
                                   AffineExpr::constant(2, M.Start)));
  Set.addConstraint(makeGe(AffineExpr::variable(2, 0),
                           AffineExpr::constant(2, 0)));
  Set.addConstraint(makeLe(AffineExpr::variable(2, 0),
                           AffineExpr::constant(2, M.TripCount - 1)));
  return IntegerMap(BasicMap(1, 1, std::move(Set)));
}

IntegerMap AffineCircuit::useMap(size_t S) const {
  const MacroGate &M = Statements[S];
  assert(M.NumOperands == 2 && "use map is defined for two-qubit statements");
  // { [t] -> [q1, q2] : t = Start + i, qk = Scale_k*i + Offset_k } with i
  // eliminated: i = t - Start.
  BasicSet Set(3);
  AffineExpr T = AffineExpr::variable(3, 0);
  AffineExpr IVal = T - AffineExpr::constant(3, M.Start);
  for (unsigned K = 0; K < 2; ++K) {
    Set.addConstraint(makeEqExpr(AffineExpr::variable(3, 1 + K),
                                 IVal * M.Scale[K] +
                                     AffineExpr::constant(3, M.Offset[K])));
  }
  Set.addConstraint(
      makeGe(T, AffineExpr::constant(3, M.Start)));
  Set.addConstraint(
      makeLe(T, AffineExpr::constant(3, M.Start + M.TripCount - 1)));
  return IntegerMap(BasicMap(1, 2, std::move(Set)));
}

double AffineCircuit::compressionRatio() const {
  if (Statements.empty())
    return 1.0;
  return static_cast<double>(TotalGates) /
         static_cast<double>(Statements.size());
}
