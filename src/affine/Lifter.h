//===- affine/Lifter.h - QRANE-style affine lifting ---------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lifts a flat gate trace into the affine IR by greedily growing maximal
/// runs of same-kind gates whose operands follow affine functions
/// constant*i + constant of the run index — the scalable subset of the
/// QRANE reconstruction (Gerard, Grosser, Kong; CC 2022). Gates that do not
/// extend any affine run become singleton statements.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_AFFINE_LIFTER_H
#define QLOSURE_AFFINE_LIFTER_H

#include "affine/AffineCircuit.h"
#include "support/Error.h"

namespace qlosure {

/// Runs shorter than this stay as singleton statements (a length-2 "run"
/// whose stride is accidental provides no compression benefit).
constexpr int64_t MinRunLength = 3;

/// Recoverable precheck for circuits that reach the lifter from untrusted
/// sources (the service path): an error naming the first barrier or
/// measure in \p Circ, success when every gate is unitary. liftCircuit
/// itself accepts such gates (see below), so this is for callers that want
/// to *reject* non-unitary circuits rather than lift them.
Status checkLiftable(const Circuit &Circ);

/// Lifts \p Circ. The resulting statements cover the trace contiguously.
/// Barriers and measures do not abort: they lift like any other gate kind
/// (runs of them compress, stragglers become singleton statements), which
/// keeps the trace tiling intact; analyses that require unitary-only input
/// should gate on checkLiftable() first.
AffineCircuit liftCircuit(const Circuit &Circ);

} // namespace qlosure

#endif // QLOSURE_AFFINE_LIFTER_H
