//===- affine/AffineCircuit.h - Affine circuit representation -----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lifted circuit: an ordered list of macro-gates covering the trace.
/// Each statement's iteration domain (0 <= i < TripCount), access
/// functions, schedule and Use Map are read off the macro-gate itself
/// (MacroGate::TripCount, qubit and Start).
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_AFFINE_AFFINECIRCUIT_H
#define QLOSURE_AFFINE_AFFINECIRCUIT_H

#include "affine/MacroGate.h"
#include "circuit/Circuit.h"

#include <vector>

namespace qlosure {

/// A circuit lifted into macro-gate (statement) form. Statements are
/// disjoint, contiguous runs covering the whole trace in order.
class AffineCircuit {
public:
  AffineCircuit() = default;
  AffineCircuit(unsigned NumQubits, std::vector<MacroGate> Statements);

  unsigned numQubits() const { return NumQubits; }
  const std::vector<MacroGate> &statements() const { return Statements; }
  size_t numStatements() const { return Statements.size(); }
  const MacroGate &statement(size_t S) const { return Statements[S]; }

  /// Total number of gate instances across statements.
  int64_t numGates() const { return TotalGates; }

  /// The average number of gates per statement — the lifter's compression
  /// ratio (higher means more regular structure was found).
  double compressionRatio() const;

private:
  unsigned NumQubits = 0;
  std::vector<MacroGate> Statements;
  int64_t TotalGates = 0;
};

} // namespace qlosure

#endif // QLOSURE_AFFINE_AFFINECIRCUIT_H
