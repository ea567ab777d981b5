//===- perfbench/Layers.h - Traced per-layer pass ----------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer numbers. The traced pass feeds a workload's requests
/// through the public functions the daemon calls for a cold request, in
/// the daemon's order (parseRequest; tokenize, parseQasm, importProgram;
/// fingerprint; RoutingContext::build, dependenceWeights, periodStructure;
/// Router::route; verifyRouting; printQasm; the response formatter). Each
/// call is timed from here and kept as a span in memory until the pass
/// ends. Every request also runs once untraced, so the spans' own cost
/// shows as tracing_overhead_pct.
///
/// Framing and the router hop are timed with real requests: a round trip
/// of the workload's frame sizes over loopback TCP, and one cached request
/// sent through the router versus straight to the daemon.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_LAYERS_H
#define QLOSURE_PERFBENCH_LAYERS_H

#include "Check.h"
#include "Common.h"
#include "Inputs.h"

#include "topology/CouplingGraph.h"

#include <string>
#include <vector>

namespace perfbench {

/// Result of the traced pass.
struct LayerPass {
  /// Per-layer metrics (p50 per request unless a count or a ratio).
  qlosure::json::Value Metrics = qlosure::json::Value::object();
  /// Sum of the p50s of the layers a request of this workload passes
  /// through inside the daemon, excluding framing, hop and queueing.
  double PathMs = 0;
  double BytesIn = 0, BytesOut = 0; ///< p50 frame sizes per request.
  size_t Requests = 0;
  std::vector<std::string> Errors;
};

/// Runs the traced pass over the reference requests, then timed requests,
/// until \p Seconds have passed. Routed swap counts must match
/// \p RefRouted, the daemon's answers for the same circuits.
LayerPass runLayerPass(const Workload &W, const qlosure::CouplingGraph &Hw,
                       double Seconds,
                       const std::vector<std::vector<Routed>> &RefRouted);

/// p50 round trip of one \p BytesIn frame answered by one \p BytesOut
/// frame over a loopback TCP connection.
double frameRttMs(size_t BytesIn, size_t BytesOut, unsigned Reps);

/// p50 latency of the cached request \p R through the router minus its p50
/// sent straight to the daemon, interleaved over \p Reps rounds.
double routerHopMs(const Request &R, const std::string &DaemonAddress,
                   const std::string &RouterAddress, unsigned Reps,
                   std::vector<std::string> &Errors);

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_LAYERS_H
