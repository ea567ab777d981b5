//===- affine/PeriodDetector.h - Periodic macro-gate structure ----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detection of loop structure in a lifted circuit: a *periodic region* is
/// a contiguous trace range [RegionStart, RegionStart + NumPeriods * B)
/// whose gates satisfy
///
///   gate(t + B) = pi(gate(t))        (same kind, operands through pi)
///
/// for a fixed qubit permutation pi — the shape a loop body emits when each
/// iteration re-touches the same interaction pattern under a per-iteration
/// relabeling (pi = identity for a plain repeated body). The detector
/// proposes candidate periods from the macro-gate statement structure (run
/// boundaries are where the lifter's affine predictions break, which is
/// exactly where loop iterations seam), derives pi pointwise from the gate
/// pairs of the first two periods, and verifies the whole region pointwise
/// so the result is exact regardless of how runs happen to align with
/// iteration boundaries.
///
/// The routing replay engine (route/ReplayPlan.h) consumes the result; it
/// is memoized per RoutingContext so service-cached contexts pay for
/// detection once per circuit fingerprint.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_AFFINE_PERIODDETECTOR_H
#define QLOSURE_AFFINE_PERIODDETECTOR_H

#include "affine/AffineCircuit.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace qlosure {

/// A detected periodic region of the gate trace.
struct PeriodStructure {
  /// Trace index of the first gate inside the region.
  int64_t RegionStart = 0;
  /// Gates per period (the loop-body length B).
  int64_t BodyGates = 0;
  /// Number of complete periods in the region (>= MinPeriods).
  int64_t NumPeriods = 0;
  /// The iteration permutation: operand q of gate t maps to Perm[q] in
  /// gate t + BodyGates. Identity for a plainly repeated body.
  std::vector<int32_t> Perm;

  /// One past the last trace index covered by complete periods.
  int64_t regionEnd() const { return RegionStart + BodyGates * NumPeriods; }
};

/// Minimum complete periods for a region to count as loop structure.
constexpr int64_t MinPeriods = 3;
/// Candidate prologues: region starts are tried at the first statement
/// boundaries only (a long irregular prologue means no loop anyway).
constexpr size_t MaxPrologueStatements = 8;
/// Candidate bodies span at most this many statements...
constexpr size_t MaxBodyStatements = 256;
/// ... and at most this many gates (bounds replay-plan memory).
constexpr int64_t MaxBodyGates = 1 << 20;
/// The region must cover at least this fraction of the trace after the
/// prologue, so an accidental local repetition is not mistaken for the
/// circuit's loop structure.
constexpr double MinPeriodCoverage = 0.5;

/// Finds the leftmost periodic region with the smallest period, or nullopt
/// when the circuit has no (detected) loop structure.
std::optional<PeriodStructure> detectPeriod(const AffineCircuit &AC);

/// Convenience overload: lifts \p Circ first.
std::optional<PeriodStructure> detectPeriod(const Circuit &Circ);

} // namespace qlosure

#endif // QLOSURE_AFFINE_PERIODDETECTOR_H
