//===- service/Server.h - qlosured Unix-socket server ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived mapping service: a stream-socket server — unix-domain
/// or TCP, per the parsed listen address (service/Transport.h) — speaking
/// the newline-delimited JSON protocol v2 (service/Protocol.h), backed by
/// the sharded context/result caches (service/ContextCache.h) and the
/// bounded worker-pool scheduler (service/Scheduler.h).
///
/// Since protocol v2 each connection is **fully asynchronous**: the
/// connection thread only reads and triages; every response is written
/// through the connection's serialized writer, by whichever thread
/// finishes first. Cheap requests (ping/stats/cache hits/validation
/// errors) answer inline from the connection thread; scheduled routes
/// answer from the worker that ran them — so a pipelined connection gets
/// responses out of order and one slow route never head-of-line-blocks
/// the rest of the stream. Accepting, reading, writing and teardown are
/// the shared connection core's (service/ConnectionServer.h).
///
/// One pipeline serves `route` and `batch`: a request becomes a session
/// of N >= 1 items under one id (a `route` is a session of one), and
/// each item goes through the same four steps.
///
///   1. Triage (connection thread): alias lookup on the raw QASM text (an
///      aliased result-cache hit needs no import) -> import QASM ->
///      fingerprint -> record the alias -> result-cache lookup.
///   2. One of three paths: an inline answer (cache hit or triage
///      error); a lead claimed at triage on the single-flight table
///      (service/InflightTable.h); or, when an identical request already
///      leads, an attach after the session's all-or-nothing submission,
///      so a rejected session never has a frame delivered.
///   3. One scheduler job per lead (worker thread): context-cache
///      getOrBuild -> route with the worker's pooled RoutingScratch,
///      polling the job's CancellationToken once per front-layer step ->
///      verify -> print -> insert result cache -> complete the flight.
///   4. One completion sink writes every item outcome: a `route` releases
///      its id and writes its final frame; a batch item writes its
///      `batch_item` frame, and the last one releases the id and writes
///      the summary.
///
///   `cancel` and a disconnect take the same path: queued items are
///   unqueued and answered `cancelled` immediately (a dropped route,
///   having no reader, only releases its id), running ones have their
///   tokens signalled and answer through their own completion.
///
/// Threading/ownership contract: the Server owns the scheduler's workers;
/// the core owns the accept and connection threads. Each Connection
/// (socket + writer + in-flight sessions) is shared between its
/// connection thread and the workers running its jobs via shared_ptr; the
/// fd closes when the last holder drops, so a worker can never write into
/// a recycled fd. Caches are internally synchronized; counters take
/// CounterMu.
///
/// Every request is answered: malformed input yields structured error
/// responses, expired deadlines yield `deadline_exceeded` (checked both
/// at pickup and during routing), cancelled requests yield `cancelled`,
/// and shutdown yields `shutting_down` — a connection is never wedged and
/// the daemon never crashes on bad bytes.
///
/// Lifecycle: start() binds and starts accepting; wait() blocks until a
/// `shutdown` request, requestStop(), or the optional external predicate
/// (the daemon's signal flag) fires, then tears everything down
/// gracefully: the drain step runs the scheduler dry while every writer
/// still works, so in-flight routes still get their final response. One
/// Server per process lifetime stage; not restartable.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_SERVER_H
#define QLOSURE_SERVICE_SERVER_H

#include "service/ConnectionServer.h"
#include "service/ContextCache.h"
#include "service/Histogram.h"
#include "service/InflightTable.h"
#include "service/Protocol.h"
#include "service/ResultStore.h"
#include "service/Scheduler.h"
#include "support/Error.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "topology/CouplingGraph.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace qlosure {
namespace service {

/// Server configuration.
struct ServerOptions {
  /// Listen address (required): "unix:/path", "tcp:host:port", or a bare
  /// filesystem path (unix). A stale unix socket file is replaced; a tcp
  /// port of 0 binds ephemerally (boundAddress() reports the real port).
  std::string Listen;
  /// Scheduler worker threads (0 = hardware concurrency).
  unsigned Workers = 0;
  /// Bounded scheduler queue; overflow answers `queue_full`.
  size_t QueueCapacity = 256;
  /// Byte budgets of the context and result caches, and the stripe count
  /// of every cache.
  size_t ContextCacheBytes = 256ull << 20;
  size_t ResultCacheBytes = 64ull << 20;
  size_t CacheShards = 8;
  /// Default per-request deadline when the request carries no timeout_ms
  /// (<= 0 disables the default deadline entirely).
  double DefaultTimeoutSeconds = 60.0;
  /// Maximum accepted request-line length; longer lines get a structured
  /// error and the connection is closed (the stream cannot be trusted to
  /// resynchronize).
  size_t MaxRequestBytes = DefaultMaxRequestBytes;
  /// Slow-request threshold in milliseconds for the structured log
  /// (support/Log.h): a routed request whose total latency (queue wait
  /// included) reaches it emits one warn-level "slow_request" line with
  /// its per-phase trace. 0 disables the slow log entirely.
  double SlowRequestMs = 0;
  /// Durable result store path (service/ResultStore.h); empty disables
  /// the durable tier entirely. When set, result-cache misses consult
  /// the store before routing and routed results are appended to it, so
  /// warm results survive restarts. start() fails when the file cannot
  /// be opened or is not a result store.
  std::string StorePath;
  /// Open the store read-only: serve from it (following another
  /// daemon's appends) but never write. Requires StorePath.
  bool StoreReadOnly = false;
  /// Store fsync batching threshold in bytes (0 = sync every record).
  size_t StoreFsyncBytes = 1 << 20;
};

/// Always-on per-op and per-phase latency histograms, surfaced in the
/// `stats` document under "latency" and rendered by service/Metrics.h as
/// Prometheus `_bucket`/`_sum`/`_count` series. Recording costs a few
/// steady-clock reads per *request* (never per routing step), so these
/// stay on even when tracing is off.
struct ServiceHistograms {
  LatencyHistogram Route;          ///< route op, total (queue wait included).
  LatencyHistogram BatchItem;      ///< one batch item, worker time.
  LatencyHistogram QueueWait;      ///< submit -> worker pickup.
  LatencyHistogram ContextBuild;   ///< context-cache getOrBuild.
  LatencyHistogram InitialMapping; ///< identity / bidirectional derive.
  LatencyHistogram RoutingLoop;    ///< the mapper's route() call.
  LatencyHistogram Verify;         ///< gate-for-gate verification.

  /// The stats subtree: {"route": {histogram...}, ...}.
  json::Value toJson() const;
};

/// Top-level request counters (cache and scheduler counters live in their
/// components; statsJson() aggregates all of them).
struct ServerCounters {
  uint64_t Connections = 0;
  uint64_t Requests = 0;
  uint64_t RouteRequests = 0;
  uint64_t CancelRequests = 0;
  /// Batch sessions accepted for parsing and the items they carried
  /// (counted at arrival; rejected batches still count — they were
  /// requested).
  uint64_t BatchRequests = 0;
  uint64_t BatchItems = 0;
  uint64_t Errors = 0;
  /// Requests answered by attaching to another identical request's
  /// in-flight route instead of routing again (service/InflightTable.h).
  uint64_t Coalesced = 0;
  /// Affine fast-path outcomes, summed over every completed route: loop
  /// periods covered by replaying a recorded swap schedule vs. periods
  /// routed gate-by-gate (recording or post-divergence fallback).
  uint64_t AffineReplays = 0;
  uint64_t AffineFallbacks = 0;
};

/// The service.
class Server : public ConnectionServer {
public:
  explicit Server(ServerOptions Options);
  ~Server() override;

  /// Opens the store, starts the scheduler, binds the socket and starts
  /// accepting.
  Status start();

  const std::string &listenAddress() const { return Options.Listen; }

  /// The full stats document served by the `stats` op.
  json::Value statsJson() const;

  CacheStats resultCacheStats() const { return Results.stats(); }
  CacheStats aliasCacheStats() const { return Aliases.stats(); }

private:
  struct PooledBackend {
    std::shared_ptr<const CouplingGraph> Graph;
    uint64_t Fingerprint = 0;
  };

  /// Per-connection state: the core's writer plus the in-flight sessions
  /// by id. Defined in Server.cpp.
  struct Connection;

  /// One in-flight `route` (one item) or `batch` (N items) under one id:
  /// the shared parameters, per-item outcome slots, the remaining-item
  /// countdown whose final decrement releases the id, and the per-item
  /// scheduler tickets the cancel path claims. Defined in Server.cpp.
  struct Session;

  using Outcome = InflightTable::Outcome;

  /// How an item's successful outcome was produced (its frame says so).
  enum class Answer { Routed, CacheHit, Coalesced };

  /// What triage() decided for one circuit: a cached result, a protocol
  /// error, or the imported circuit and its keys for routing.
  struct Triage {
    std::shared_ptr<const CachedResult> Cached;
    const char *ErrorCode = nullptr;
    std::string ErrorMessage;
    std::shared_ptr<const Circuit> Logical;
    uint64_t CircuitFp = 0;
    CacheKey ResultKey;
  };

  std::shared_ptr<LineConnection> accepted(int Fd) override;
  void handleLine(const std::shared_ptr<LineConnection> &Conn,
                  const std::string &Line) override;
  /// Writes an error response and bumps the error counter (callable from
  /// any thread).
  void sendError(LineConnection &Conn, const char *Op, const std::string &Id,
                 const char *Code, const std::string &Message) override;
  /// Cancels every session of the dropped connection: nothing can read
  /// their outcomes, and workers must not route into a closed writer.
  void disconnected(const std::shared_ptr<LineConnection> &Conn) override;
  /// Runs the scheduler dry, answers coalesced stragglers, flushes the
  /// store.
  void drain() override;

  /// The pipeline: `route` and `batch` as one session of N >= 1 items.
  void handleRequest(const std::shared_ptr<Connection> &Conn,
                     const Request &Req);
  void handleCancel(Connection &Conn, const Request &Req);

  /// The admission checks `route` and `batch` share: not shutting down,
  /// id not in flight, known mapper, known backend. Returns the pooled
  /// backend, or sends the error (as op \p Op) and returns nullptr.
  std::shared_ptr<const PooledBackend> admit(Connection &Conn, const char *Op,
                                             const Request &Req);

  /// Step 1 for one circuit. The raw text's alias comes first: when it
  /// names a result that is still cached, the circuit is never imported.
  /// Otherwise the text is imported and keyed, its alias recorded, and
  /// the result cache (then the durable store) consulted under the parsed
  /// key. \p T, when non-null, receives the alias_lookup and import_qasm
  /// spans.
  Triage triage(const std::string &Qasm, const PooledBackend &Backend,
                const RouteRequest &Params, Trace *T);

  /// Step 3: the scheduler job of item \p Index, which leads the flight
  /// of \p Item.ResultKey. Each of its outcomes completes the flight and
  /// then reaches the sink.
  SchedulerJob makeJob(const std::shared_ptr<Session> &S, size_t Index,
                       Triage Item, std::shared_ptr<Trace> T);

  /// The mapper/context/route/verify/cache core every routed item runs
  /// on a worker thread. \p BeforeRoute, when set, runs right before the
  /// main routing pass (after the bidirectional derive) — the hook a
  /// `route` uses to install its progress sink. \p T, when non-null,
  /// receives the per-phase spans (context_build, initial_mapping,
  /// routing_loop, verify, print_qasm) and is installed as the scratch's
  /// trace sink around the mapper call. Phase latencies are recorded
  /// into Histos regardless of tracing.
  Outcome executeRoute(const Triage &Item, const PooledBackend &Backend,
                       const RouteRequest &Params, RoutingScratch &Scratch,
                       CancellationToken &Cancel,
                       const std::function<void()> &BeforeRoute, Trace *T);

  /// Step 4, the completion sink: writes item \p Index's outcome (an
  /// error, or a success produced as \p How says). \p T, when non-null,
  /// is attached to a routed or cache-hit answer.
  void finishItem(Session &S, size_t Index, const Outcome &O,
                  Answer How = Answer::Routed, Trace *T = nullptr);

  /// Cancels every live item of \p S, for a `cancel` op or, when
  /// \p Dropped, because its connection went away: queued items are
  /// claimed, their flights failed, and answered through the sink;
  /// running items get their tokens signalled and answer through their
  /// own completion. Returns whether any item was still live.
  bool cancelSession(Session &S, bool Dropped);

  /// Returns the pooled (lazily built) backend variant, or nullptr when
  /// the name is unknown. Shared ownership: in-flight requests keep their
  /// variant alive even if the pool evicts it.
  std::shared_ptr<const PooledBackend>
  lookupBackend(const std::string &Name, bool ErrorAware,
                uint64_t CalibrationSeed);

  /// Serves \p Key from the in-memory result cache, falling back to the
  /// durable store (a store hit is promoted into the memory cache).
  /// Returns nullptr on a full miss.
  std::shared_ptr<const CachedResult> lookupResult(const CacheKey &Key);

  ServerOptions Options;
  std::unique_ptr<Scheduler> Workers;
  ContextCache Contexts;
  ResultCache Results;
  /// Raw-text aliases of result keys (see service/RequestKey.h).
  AliasCache Aliases;
  /// The durable tier behind Results (nullptr when StorePath is empty).
  std::unique_ptr<ResultStore> Store;
  /// Single-flight coalescing of identical routed requests.
  std::unique_ptr<InflightTable> Inflight;
  Timer Uptime;

  mutable std::mutex BackendMu;
  /// Keyed by variant id ("name|plain" / "name|ea<seed>"). The
  /// calibration-seed dimension is client-controlled, so the pool is
  /// bounded: past MaxBackendVariants the error-aware variants are
  /// dropped (plain variants are at most one per known backend).
  std::map<std::string, std::shared_ptr<const PooledBackend>> Backends;
  static constexpr size_t MaxBackendVariants = 32;

  mutable std::mutex CounterMu;
  ServerCounters Counters;

  /// Lock-free latency recording (see ServiceHistograms).
  ServiceHistograms Histos;
};

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_SERVER_H
