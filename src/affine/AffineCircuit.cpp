//===- affine/AffineCircuit.cpp - Affine circuit representation ----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "affine/AffineCircuit.h"

#include "support/StringUtils.h"

#include <cassert>

using namespace qlosure;

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

double AffineCircuit::compressionRatio() const {
  if (Statements.empty())
    return 1.0;
  return static_cast<double>(TotalGates) /
         static_cast<double>(Statements.size());
}
