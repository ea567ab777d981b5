//===- perfbench/Check.h - Response checker ----------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks every answer the daemon gives, outside the request's timed
/// interval. A routed answer passes when
///
///  1. its `stats.verified` flag is set;
///  2. every two-qubit gate of the returned QASM lies on a backend edge;
///  3. a RoutingResult rebuilt from the returned QASM (identity placement,
///     every SWAP inserted, since inputs carry no program SWAPs) passes
///     the per-wire replay of verifyRouting against the request's circuit;
///  4. `stats.swaps`, `stats.depth_after` and `stats.depth_before` equal the
///     counts recomputed from the two circuits.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_CHECK_H
#define QLOSURE_PERFBENCH_CHECK_H

#include "Inputs.h"

#include "topology/CouplingGraph.h"

#include <string>
#include <vector>

namespace perfbench {

/// What a passing answer reports about one routed circuit.
struct Routed {
  size_t Swaps = 0;
  size_t DepthBefore = 0;
  size_t DepthAfter = 0;
};

/// Checks the frames answering \p R: one final response for a route; the
/// item frames followed by the summary for a batch. Fills \p Out with one
/// entry per item. Returns an empty string when every check passes,
/// otherwise the first failure.
std::string checkResponse(const Workload &W, const qlosure::CouplingGraph &Hw,
                          const Request &R,
                          const std::vector<std::string> &Frames,
                          std::vector<Routed> &Out);

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_CHECK_H
