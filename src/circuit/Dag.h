//===- circuit/Dag.h - Circuit dependence DAG --------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gate-level dependence DAG of a circuit. An edge g -> h exists when h
/// is the *next* gate after g sharing one of g's qubits (per-wire nearest
/// dependence); the transitive closure of these edges equals the full
/// shared-qubit dependence relation Rdep+ of the paper.
///
/// Both adjacency directions are compressed sparse rows: one offset array
/// of numGates() + 1 entries and one flat index array each, filled by
/// counting passes, so a DAG is six flat arrays however large the circuit.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_CIRCUIT_DAG_H
#define QLOSURE_CIRCUIT_DAG_H

#include "circuit/Circuit.h"

#include <cstdint>
#include <vector>

namespace qlosure {

/// A read-only run of gate ids inside one of the DAG's index arrays. Valid
/// while the DAG lives.
class GateRange {
public:
  GateRange(const uint32_t *First, const uint32_t *Last)
      : First(First), Last(Last) {}

  const uint32_t *begin() const { return First; }
  const uint32_t *end() const { return Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }

private:
  const uint32_t *First;
  const uint32_t *Last;
};

/// Immutable dependence DAG over the gates of one circuit. Gate identity is
/// the index into Circuit::gates().
class CircuitDag {
public:
  /// Builds the DAG of \p C (barriers/measures participate as ordinary
  /// nodes so they keep their ordering role; strip them beforehand if
  /// undesired).
  explicit CircuitDag(const Circuit &C);

  size_t numGates() const { return TwoQubit.size(); }

  /// Direct successors of \p Gate, ascending.
  GateRange successors(size_t Gate) const {
    return {SuccIdx.data() + SuccOff[Gate], SuccIdx.data() + SuccOff[Gate + 1]};
  }
  /// Direct predecessors of \p Gate, in operand order.
  GateRange predecessors(size_t Gate) const {
    return {PredIdx.data() + PredOff[Gate], PredIdx.data() + PredOff[Gate + 1]};
  }

  /// Number of direct predecessors (in-degree).
  unsigned inDegree(size_t Gate) const {
    return PredOff[Gate + 1] - PredOff[Gate];
  }

  /// Gates with no predecessors (the initial front layer).
  const std::vector<uint32_t> &roots() const { return Roots; }

  /// Whether gate \p Gate has exactly two qubit operands (cached at
  /// construction for consumers that no longer hold the circuit).
  bool isTwoQubitGate(size_t Gate) const { return TwoQubit[Gate] != 0; }

  /// Heap and object bytes this DAG holds.
  size_t memoryBytes() const;

private:
  std::vector<uint32_t> SuccOff;
  std::vector<uint32_t> SuccIdx;
  std::vector<uint32_t> PredOff;
  std::vector<uint32_t> PredIdx;
  std::vector<uint32_t> Roots;
  std::vector<uint8_t> TwoQubit;
};

} // namespace qlosure

#endif // QLOSURE_CIRCUIT_DAG_H
