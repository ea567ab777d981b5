//===- affine/Lifter.cpp - QRANE-style affine lifting --------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "affine/Lifter.h"

using namespace qlosure;

namespace {

/// A run being grown by the lifter.
struct Run {
  GateKind Kind = GateKind::I;
  unsigned NumOperands = 0;
  int64_t Start = 0;
  int64_t Length = 0;
  // First gate's operands (defines Offset); stride defined by 2nd gate.
  int64_t Offset[3] = {0, 0, 0};
  int64_t Scale[3] = {0, 0, 0};
  bool StrideKnown = false;

  MacroGate finish() const {
    MacroGate M;
    M.Kind = Kind;
    M.NumOperands = NumOperands;
    M.TripCount = Length;
    M.Start = Start;
    for (unsigned K = 0; K < NumOperands; ++K) {
      M.Scale[K] = StrideKnown ? Scale[K] : 0;
      M.Offset[K] = Offset[K];
    }
    return M;
  }
};

} // namespace

AffineCircuit qlosure::liftCircuit(const Circuit &Circ) {
  std::vector<MacroGate> Statements;
  const auto &Gates = Circ.gates();

  /// Emits \p R as one statement, or as singletons when too short to be a
  /// meaningful affine run.
  auto emitRun = [&](const Run &R) {
    if (R.Length >= MinRunLength || R.Length == 1) {
      Statements.push_back(R.finish());
      return;
    }
    // Split short runs into singletons so accidental strides of length two
    // do not pollute the dependence relations.
    for (int64_t I = 0; I < R.Length; ++I) {
      MacroGate M;
      M.Kind = R.Kind;
      M.NumOperands = R.NumOperands;
      M.TripCount = 1;
      M.Start = R.Start + I;
      for (unsigned K = 0; K < R.NumOperands; ++K) {
        M.Scale[K] = 0;
        M.Offset[K] = R.Offset[K] + (R.StrideKnown ? R.Scale[K] * I : 0);
      }
      Statements.push_back(M);
    }
  };

  Run Current;
  bool HaveRun = false;
  for (size_t GI = 0; GI < Gates.size(); ++GI) {
    const Gate &G = Gates[GI];
    unsigned NumOps = G.numQubits();

    if (HaveRun && Current.Kind == G.Kind &&
        Current.NumOperands == NumOps) {
      if (!Current.StrideKnown) {
        // The second gate of a run fixes the stride of every operand.
        Current.StrideKnown = true;
        for (unsigned K = 0; K < NumOps; ++K)
          Current.Scale[K] = G.Qubits[K] - Current.Offset[K];
        ++Current.Length;
        continue;
      }
      // Later gates must match the affine prediction.
      bool Matches = true;
      for (unsigned K = 0; K < NumOps; ++K) {
        int64_t Predicted =
            Current.Offset[K] + Current.Scale[K] * Current.Length;
        if (G.Qubits[K] != Predicted) {
          Matches = false;
          break;
        }
      }
      if (Matches) {
        ++Current.Length;
        continue;
      }
    }

    if (HaveRun)
      emitRun(Current);
    Current = Run();
    Current.Kind = G.Kind;
    Current.NumOperands = NumOps;
    Current.Start = static_cast<int64_t>(GI);
    Current.Length = 1;
    for (unsigned K = 0; K < NumOps; ++K)
      Current.Offset[K] = G.Qubits[K];
    HaveRun = true;
  }
  if (HaveRun)
    emitRun(Current);

  return AffineCircuit(Circ.numQubits(), std::move(Statements));
}
