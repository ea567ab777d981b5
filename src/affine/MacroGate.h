//===- affine/MacroGate.h - Lifted affine statements --------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The affine intermediate representation produced by the QRANE-style
/// lifter: a macro-gate (statement) groups a run of gates whose qubit
/// operands follow affine access functions q_k(i) = A_k * i + B_k of a
/// one-dimensional iteration index, with schedule t(i) = Start + i.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_AFFINE_MACROGATE_H
#define QLOSURE_AFFINE_MACROGATE_H

#include "circuit/Gate.h"

#include <cstdint>
#include <string>

namespace qlosure {

/// One lifted statement. Instances are indexed by i in [0, TripCount).
struct MacroGate {
  GateKind Kind = GateKind::I;
  unsigned NumOperands = 0;

  /// Iteration domain size (>= 1).
  int64_t TripCount = 0;

  /// Qubit access functions: operand k of instance i touches qubit
  /// Scale[k] * i + Offset[k].
  int64_t Scale[3] = {0, 0, 0};
  int64_t Offset[3] = {0, 0, 0};

  /// Schedule: instance i executes at trace position Start + i.
  int64_t Start = 0;

  /// Qubit of operand \p K at instance \p I.
  int64_t qubit(unsigned K, int64_t I) const {
    return Scale[K] * I + Offset[K];
  }

  /// Renders e.g. "cx S[i: 0..9] q[2i+1], q[i]" for debugging.
  std::string toString() const;
};

} // namespace qlosure

#endif // QLOSURE_AFFINE_MACROGATE_H
