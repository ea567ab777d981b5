//===- affine/AffineCircuit.h - Affine circuit representation -----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lifted circuit: an ordered list of macro-gates covering the trace.
/// Provides the polyhedral views the paper builds on (iteration domains,
/// qubit access relations, schedules, and the Use Map) as presburger
/// objects.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_AFFINE_AFFINECIRCUIT_H
#define QLOSURE_AFFINE_AFFINECIRCUIT_H

#include "affine/MacroGate.h"
#include "circuit/Circuit.h"
#include "presburger/IntegerMap.h"

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

  /// Iteration domain of statement \p S as a 1-D integer set [0, Trip).
  presburger::IntegerSet iterationDomain(size_t S) const;

  /// Access relation of operand \p K of statement \p S:
  /// { [i] -> [q] : q = Scale*i + Offset, 0 <= i < Trip }.
  presburger::IntegerMap accessRelation(size_t S, unsigned K) const;

  /// Schedule of statement \p S: { [i] -> [t] : t = Start + i }.
  presburger::IntegerMap schedule(size_t S) const;

  /// The paper's Use Map restricted to two-qubit statements:
  /// { [t] -> [q1, q2] } for instances of \p S.
  presburger::IntegerMap useMap(size_t S) const;

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
