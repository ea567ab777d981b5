//===- perfbench/Service.h - In-process daemon and closed loop ---*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Boots the daemon and a single-shard router in this process, drives a
/// workload through them in a closed loop (each client sends its next
/// request only after the previous answer arrived), and reads the
/// daemon's `stats` op.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_SERVICE_H
#define QLOSURE_PERFBENCH_SERVICE_H

#include "Check.h"
#include "Inputs.h"

#include "service/Client.h"
#include "service/Server.h"
#include "service/ShardRouter.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// A daemon and a single-shard router in front of it, on loopback TCP.
class Fleet {
public:
  Fleet() = default;
  ~Fleet() { stop(); }
  Fleet(const Fleet &) = delete;
  Fleet &operator=(const Fleet &) = delete;

  qlosure::Status start(unsigned Workers);
  void stop();

  std::string daemonAddress() const { return Daemon->boundAddress(); }
  std::string routerAddress() const { return Front->boundAddress(); }

private:
  std::unique_ptr<qlosure::service::Server> Daemon;
  std::unique_ptr<qlosure::service::RouterServer> Front;
};

/// Sends \p R on \p Conn and collects its answer in \p Frames: the final
/// response last, any batch_item frames before it.
qlosure::Status exchange(qlosure::service::Client &Conn, const Request &R,
                         std::vector<std::string> &Frames);

/// The answers of the reference requests, routed during set-up.
struct ReferenceAnswers {
  std::vector<std::vector<std::string>> Frames; ///< Per reference request.
  /// The byte-exact result-cache hit answer of each reference request
  /// (filled for workloads whose timed loop repeats them).
  std::vector<std::string> HitLines;
};

/// Routes every reference request of \p W through \p Address with the
/// workload's client count; for RepeatsReference workloads also records
/// the hit answer of each. Fails on any transport error.
qlosure::Status routeReference(const Workload &W, const std::string &Address,
                               ReferenceAnswers &Out);

/// Outcome of the timed closed loop.
struct LoopResult {
  double Seconds = 0;
  std::vector<double> LatenciesMs; ///< One per passing request.
  size_t Attempted = 0;
  size_t Failed = 0;
  size_t Routes = 0; ///< Routed circuits in passing requests.
  std::vector<std::string> Errors;
};

/// Runs \p W's timed requests through \p Address for \p Seconds, then
/// checks every answer. \p Ref holds the checked reference answers: a
/// repeated request must return its hit line byte for byte, and a fresh
/// request must route with the swap count of the reference it freshens.
LoopResult runClosedLoop(const Workload &W, const qlosure::CouplingGraph &Hw,
                         const std::string &Address, double Seconds,
                         const ReferenceAnswers &Ref,
                         const std::vector<std::vector<Routed>> &RefRouted);

/// Window counters read from the daemon's `stats` op.
struct DaemonStats {
  double ResultHits = 0, ResultMisses = 0;
  double ContextHits = 0, ContextMisses = 0;
  double Submitted = 0, Coalesced = 0;
  std::vector<double> QueueWaitBuckets; ///< Per 2^k-microsecond bucket.

  /// Counter growth from \p Before to this snapshot.
  DaemonStats since(const DaemonStats &Before) const;
  /// Median queue wait in ms, interpolated inside its histogram bucket.
  double queueWaitP50Ms() const;
};

qlosure::Status fetchStats(const std::string &Address, DaemonStats &Out);

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_SERVICE_H
