//===- service/ShardRouter.h - Consistent-hash fleet router ------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet tier: a front daemon that speaks protocol v2 to clients and
/// consistent-hash shards `route`/`batch` requests across N backend
/// qlosured daemons by circuit fingerprint. Sharding by circuit keeps
/// each daemon's context/result caches hot — the same circuit (on the
/// same backend) always lands on the same shard, so the fleet preserves
/// the single-daemon memoization wins instead of diluting them N ways.
///
/// Wire behavior, per op:
///
///   route/batch  forwarded to the owning shard (ring hash of the raw
///                QASM text + backend name); progress and batch_item
///                event frames pass through unmodified. A `queue_full`
///                rejection of an id-carrying request is retried against
///                the same shard with BackoffPolicy delays (the
///                backpressure-aware path) instead of surfacing to the
///                client, up to MaxRetries.
///   cancel       forwarded to the shard that owns the target id (a
///                request parked in the retry queue is cancelled right
///                there); unknown ids ack `cancelled: false` locally.
///   ping         answered locally.
///   stats        fetched from every live shard, numerically merged
///                (service/Metrics.h) under "aggregate", plus a "router"
///                section and a per-shard array.
///   metrics      the same aggregate as Prometheus text, plus one
///                `qlosure_shard_up` gauge per shard.
///   shutdown     stops the *router* (the shards are not owned by it).
///
/// Failure model: a shard whose connection drops (or whose health ping
/// fails) is marked down and skipped by the ring. In-flight id-tracked
/// requests of a dying upstream are re-dispatched to the next live
/// shard; untracked (id-less) ones — uncorrelatable by design — get an
/// `unavailable` error frame each. With no live shard at all, requests
/// answer `unavailable` immediately. A background monitor pings every
/// shard (BackoffPolicy-spaced when it stays down) and revives it on
/// the first successful ping.
///
/// The optional HTTP listener serves `GET /metrics` (plain HTTP/1.0,
/// Prometheus text exposition) so a scraper needs no protocol client.
///
/// Client connections run on the same connection core as the daemon
/// (service/ConnectionServer.h): the same accept loop, latched writer,
/// teardown order, and request-line bound (DefaultMaxRequestBytes, the
/// daemon's default; longer lines are answered `bad_request` and the
/// connection is closed). Each client connection owns one upstream per
/// shard, so the daemon's connection-scoped ids stay aligned with the
/// client's.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_SHARDROUTER_H
#define QLOSURE_SERVICE_SHARDROUTER_H

#include "service/ConnectionServer.h"
#include "service/Histogram.h"
#include "service/Protocol.h"
#include "service/RequestKey.h"
#include "support/Timer.h"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qlosure {
namespace service {

/// A consistent-hash ring with virtual nodes: each shard owns VNodes
/// points on a 64-bit ring; a key is served by the first live shard at
/// or after its hash. Virtual nodes smooth the load split and bound the
/// keyspace churn when a shard dies to ~1/N.
class HashRing {
public:
  void build(const std::vector<std::string> &ShardAddresses,
             unsigned VNodes);

  /// The shard owning \p Key among those with Alive[shard] != 0, or -1
  /// when none is alive. Walks clockwise past dead shards, so each dead
  /// shard's keys spill to their ring successors instead of one victim.
  int pick(uint64_t Key, const std::vector<char> &Alive) const;

  size_t numShards() const { return NumShards; }

private:
  std::vector<std::pair<uint64_t, uint32_t>> Ring; ///< (point, shard), sorted.
  size_t NumShards = 0;
};

/// Router configuration.
struct RouterOptions {
  /// Client-facing listen address ("unix:/path" / "tcp:host:port").
  std::string Listen;
  /// Backend daemon addresses, one per shard (>= 1 required).
  std::vector<std::string> Shards;
  /// Optional plain-HTTP metrics address; empty disables the listener.
  std::string MetricsListen;
  unsigned VirtualNodes = 64;
  /// Health ping cadence for live shards; down shards are rechecked on
  /// BackoffPolicy delays instead (bounded by its MaxMs).
  unsigned HealthIntervalMs = 500;
  /// queue_full retries per request before the rejection surfaces.
  unsigned MaxRetries = 8;
  /// Per-shard fetch/ping I/O bound (connect + response) in seconds.
  double ShardTimeoutSeconds = 5.0;
  /// Slow-request threshold in milliseconds for the structured log
  /// (support/Log.h): an id-tracked forward whose arrival-to-final
  /// latency reaches it emits one warn-level "slow_request" line (with
  /// the merged trace when the request was traced). 0 disables it.
  double SlowRequestMs = 0;
};

/// Router counters, surfaced in the "router" stats section.
struct RouterCounters {
  uint64_t Connections = 0;
  uint64_t Requests = 0;
  uint64_t Forwarded = 0;
  uint64_t Retries = 0;
  uint64_t Redispatched = 0;
  uint64_t Unavailable = 0;
  uint64_t Errors = 0;
};

/// The front daemon. start() binds and spawns the accept/health/retry
/// threads; wait() (from the connection core) blocks until a shutdown op
/// or requestStop() and then tears everything down.
class RouterServer : public ConnectionServer {
public:
  explicit RouterServer(RouterOptions Options);
  ~RouterServer() override;

  Status start();

  /// Bound metrics address, empty when the listener is disabled.
  std::string metricsBoundAddress() const;

  /// Live view of shard health (index-aligned with Options.Shards).
  std::vector<char> shardHealth() const;

  /// The fleet stats document (router + aggregate + per-shard).
  json::Value statsJson();
  /// The fleet Prometheus text exposition.
  std::string metricsText();

private:
  struct Connection;

  std::shared_ptr<LineConnection> accepted(int Fd) override;
  void handleLine(const std::shared_ptr<LineConnection> &Conn,
                  const std::string &Line) override;
  void sendError(LineConnection &Conn, const char *Op, const std::string &Id,
                 const char *Code, const std::string &Message) override;
  /// Severs the connection's upstreams, joins their forwarders, and drops
  /// its parked retries.
  void disconnected(const std::shared_ptr<LineConnection> &Conn) override;
  /// Stops the metrics listener and joins the health and retry threads.
  void drain() override;

  void healthLoop();
  void retryLoop();
  void metricsHttpLoop();

  /// Dispatches \p Line (a route/batch request) to the shard owning
  /// \p Key, registering the id for retry/re-dispatch when non-empty.
  void dispatch(const std::shared_ptr<Connection> &Conn, uint64_t Key,
                const std::string &OpName, const std::string &Id,
                const std::string &Line, unsigned Attempts);
  void handleCancel(const std::shared_ptr<Connection> &Conn,
                    const Request &Req);
  /// Opens (or reuses) the upstream of (Conn, Shard) — spawning its
  /// forwarder thread on a fresh connect — and writes \p Line into it.
  /// \p AnonOp names an id-less request, which is queued on the upstream
  /// before its bytes go out. Returns false when the shard is unreachable
  /// and the request is still unanswered, so the caller should spill it.
  bool sendToShard(const std::shared_ptr<Connection> &Conn, size_t Shard,
                   const std::string &Line,
                   const std::string *AnonOp = nullptr);
  /// Starts the reader thread of one upstream connection: events pass
  /// through to the client, finals go through onShardFinal, EOF/error
  /// ends in onUpstreamDown.
  void spawnForwarder(const std::shared_ptr<Connection> &Conn, size_t Shard,
                      int Fd);
  /// Forwarder-thread upcall: one upstream died; re-dispatch its tracked
  /// requests, fail its untracked ones, and mark the shard down.
  void onUpstreamDown(const std::shared_ptr<Connection> &Conn, size_t Shard);
  /// Forwarder-thread upcall for each final frame read from a shard.
  void onShardFinal(const std::shared_ptr<Connection> &Conn, size_t Shard,
                    const std::string &Line);

  void markShardDown(size_t Shard);
  /// Fetches the stats document of every currently-live shard (short
  /// independent connections; a failed fetch marks the shard down).
  std::vector<std::pair<bool, json::Value>> collectShardStats();

  RouterOptions Options;
  HashRing Ring;
  Timer Uptime;

  Listener MetricsAcceptor;
  std::thread MetricsThread;

  mutable std::mutex HealthMu;
  std::vector<char> Alive;
  std::thread HealthThread;

  /// Delayed queue_full retries, shared across connections: a single
  /// timer thread re-dispatches each entry when due.
  struct PendingRetry {
    std::chrono::steady_clock::time_point Due;
    std::weak_ptr<Connection> Conn;
    uint64_t Key = 0;
    std::string OpName;
    std::string Id;
    std::string Line;
    unsigned Attempts = 0;
  };
  std::mutex RetryMu;
  std::condition_variable RetryCv;
  std::vector<PendingRetry> RetryQueue;
  std::thread RetryThread;

  mutable std::mutex CounterMu;
  RouterCounters Counters;

  /// Arrival-to-final latency of id-tracked forwards (retries and
  /// re-dispatches included), surfaced under router.latency.forward and
  /// always on (recording is lock-free).
  LatencyHistogram ForwardLatency;
};

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_SHARDROUTER_H
