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
/// connection thread only reads and validates; every response is written
/// through the connection's mutex-serialized writer, by whichever thread
/// finishes first. Cheap requests (ping/stats/cache hits/validation
/// errors) answer inline from the connection thread; scheduled routes
/// answer from the worker that ran them — so a pipelined connection gets
/// responses out of order and one slow route never head-of-line-blocks
/// the rest of the stream.
///
/// Request path for `route` (a `batch` runs the same triage per item):
///
///   connection thread: parse line -> validate mapper/backend -> triage:
///   alias lookup on the raw QASM text (an aliased result-cache hit
///   responds now, without importing) -> import QASM -> fingerprint ->
///   record the alias -> result-cache lookup (hit: respond now) ->
///   register the job ticket under its id -> trySubmit (full queue:
///   `queue_full`) -> **keep reading** (no wait).
///
///   worker thread: context-cache getOrBuild (shared RoutingContext with
///   warm omega weights) -> route with the worker's pooled RoutingScratch,
///   polling the job's CancellationToken once per front-layer step ->
///   verify -> print -> insert result cache -> write the response through
///   the connection writer, or the `cancelled`/`deadline_exceeded` error
///   when the token fired mid-route.
///
///   `cancel` (connection thread): look up the ticket by id; a queued job
///   is unqueued and answered `cancelled` immediately, a running one has
///   its token signalled and answers through its own completion path.
///
/// Flow control: responses are written with a per-send timeout
/// (SO_SNDTIMEO, 10 s) *and* a 30 s cumulative per-frame bound, so a
/// peer that stops reading — or drips bytes to reset per-call timers —
/// while responses are owed is declared dead and its connection latched
/// closed. A wedged client delays a worker by tens of seconds at most,
/// never pins it.
///
/// Threading/ownership contract: the Server owns the accept thread, one
/// connection thread per live connection, and the scheduler's workers.
/// Each Connection object (socket fd + writer mutex + in-flight job
/// table) is shared between its connection thread and the workers running
/// its jobs via shared_ptr; the fd closes when the last holder drops, so
/// a worker can never write into a recycled fd. Caches are internally
/// synchronized; counters take CounterMu; nothing here may be touched
/// after teardown() returns except the destructor.
///
/// Every request is answered: malformed input yields structured error
/// responses, expired deadlines yield `deadline_exceeded` (checked both
/// at pickup and during routing), cancelled requests yield `cancelled`,
/// and shutdown yields `shutting_down` — a connection is never wedged and
/// the daemon never crashes on bad bytes.
///
/// Lifecycle: start() binds and spawns the accept thread; wait() blocks
/// until a `shutdown` request, requestStop(), or the optional external
/// predicate (the daemon's signal flag) fires, then tears everything down
/// gracefully (drains in-flight jobs, joins every thread, unlinks the
/// socket). One Server per process lifetime stage; not restartable.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_SERVER_H
#define QLOSURE_SERVICE_SERVER_H

#include "service/ContextCache.h"
#include "service/Histogram.h"
#include "service/InflightTable.h"
#include "service/Protocol.h"
#include "service/ResultStore.h"
#include "service/Scheduler.h"
#include "service/Transport.h"
#include "support/Error.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "topology/CouplingGraph.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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
  size_t MaxRequestBytes = 64ull << 20;
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
class Server {
public:
  explicit Server(ServerOptions Options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket, starts the scheduler and the accept thread.
  Status start();

  /// Blocks until stop is requested (shutdown op, requestStop(), or
  /// \p ExternalStop returning true — polled a few times per second so a
  /// signal handler only needs to flip a flag), then tears down: stops
  /// accepting, unblocks and joins connection threads, drains the
  /// scheduler, unlinks the socket.
  void wait(const std::function<bool()> &ExternalStop = nullptr);

  /// Requests asynchronous stop; wait() performs the actual teardown.
  void requestStop();

  /// Convenience for embedders (tests, the bench): requestStop() + the
  /// teardown wait() would do. Safe to call from any thread except a
  /// connection handler (those must use the shutdown op instead).
  void stop();

  const std::string &listenAddress() const { return Options.Listen; }

  /// The canonical bound address ("unix:/path" / "tcp:host:port" with the
  /// resolved port) — what clients should connect to. Valid after a
  /// successful start().
  std::string boundAddress() const { return Acceptor.endpoint().str(); }

  /// The full stats document served by the `stats` op.
  json::Value statsJson() const;

  ServerCounters counters() const;
  CacheStats contextCacheStats() const { return Contexts.stats(); }
  CacheStats resultCacheStats() const { return Results.stats(); }
  CacheStats aliasCacheStats() const { return Aliases.stats(); }

private:
  struct PooledBackend {
    std::shared_ptr<const CouplingGraph> Graph;
    uint64_t Fingerprint = 0;
  };

  /// Per-connection shared state: the socket, the serialized writer, and
  /// the in-flight cancellable-job table. Defined in Server.cpp.
  struct Connection;

  /// Shared state of one in-flight `batch` session: per-item outcome
  /// slots, the remaining-item countdown whose final decrement sends the
  /// summary (which is how "summary always last" is enforced), and the
  /// per-item scheduler tickets for whole-batch cancellation. Defined in
  /// Server.cpp.
  struct BatchState;

  /// Outcome of the worker-side routing core shared by `route` and
  /// `batch` items. Defined in Server.cpp.
  struct RouteOutcome;

  /// What triage() decided for one circuit: a cached result, a protocol
  /// error, or the imported circuit and its keys for routing.
  struct Triage {
    std::shared_ptr<const CachedResult> Cached;
    const char *ErrorCode = nullptr;
    std::string ErrorMessage;
    std::shared_ptr<Circuit> Logical;
    uint64_t CircuitFp = 0;
    CacheKey ResultKey;
  };

  void acceptLoop();
  void connectionLoop(std::shared_ptr<Connection> Conn, size_t Slot);
  void teardown();

  /// Handles one request line. All responses go out through \p Conn's
  /// writer — inline for cheap ops, from a worker for scheduled routes.
  /// \p StopAfterSend is set for the shutdown op: the ack is written
  /// *before* the caller triggers requestStop(), or teardown could sever
  /// the connection ahead of it.
  void handleLine(const std::shared_ptr<Connection> &Conn,
                  const std::string &Line, bool &StopAfterSend);
  void handleRoute(const std::shared_ptr<Connection> &Conn,
                   const Request &Req);
  void handleBatch(const std::shared_ptr<Connection> &Conn,
                   const Request &Req);
  void handleCancel(const std::shared_ptr<Connection> &Conn,
                    const Request &Req);

  /// The admission checks `route` and `batch` share: not shutting down,
  /// id not in flight, known mapper, known backend. Returns the pooled
  /// backend, or sends the error (as op \p Op) and returns nullptr.
  std::shared_ptr<const PooledBackend> admit(Connection &Conn, const char *Op,
                                             const Request &Req);

  /// Triage of one circuit, shared by `route` and every `batch` item.
  /// The raw text's alias comes first: when it names a result that is
  /// still cached, the circuit is never imported. Otherwise the text is
  /// imported and keyed, its alias recorded, and the result cache (then
  /// the durable store) consulted under the parsed key. \p T, when
  /// non-null, receives the alias_lookup and import_qasm spans.
  Triage triage(const std::string &Qasm, const PooledBackend &Backend,
                const RouteRequest &Params, Trace *T);

  /// The mapper/context/route/verify/cache core every routed request runs
  /// on a worker thread; `route` and `batch` items differ only in how
  /// they report the outcome. \p BeforeRoute, when set, runs right before
  /// the main routing pass (after the bidirectional derive) — the hook
  /// `route` uses to install its progress sink.
  /// \p T, when non-null, receives the per-phase spans of this request
  /// (context_build, initial_mapping, routing_loop, verify, print_qasm)
  /// and is installed as the scratch's trace sink around the mapper call.
  /// Phase latencies are recorded into Histos regardless of tracing.
  RouteOutcome executeRoute(const Triage &Item,
                            const std::shared_ptr<const PooledBackend> &Backend,
                            const RouteRequest &Params, RoutingScratch &Scratch,
                            CancellationToken &Cancel,
                            const std::function<void()> &BeforeRoute,
                            Trace *T = nullptr);

  /// Records item \p Index's terse outcome and performs the batch's
  /// completion protocol: the thread whose decrement empties the batch
  /// releases the id and writes the summary — necessarily after every
  /// item frame, because each item's frame is sent before its decrement.
  void finishBatchItem(const std::shared_ptr<BatchState> &Batch, size_t Index,
                       const char *Status);

  /// Cancels every item of \p Batch: queued items are claimed, reported
  /// (`cancelled` item frame) and finished here; running items get their
  /// tokens signalled and report through their own completion paths.
  /// Returns whether any item was still live.
  bool cancelBatch(const std::shared_ptr<BatchState> &Batch);

  /// Writes an error response through \p Conn and bumps the error
  /// counter (callable from any thread).
  void sendError(Connection &Conn, const char *Op, const std::string &Id,
                 const char *Code, const std::string &Message);

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

  Listener Acceptor;
  std::thread AcceptThread;

  /// Connection bookkeeping: ConnThreads[I] handles Conns[I]. Finished
  /// connections report their slot in FinishedSlots; the accept loop
  /// joins them and recycles the slots via FreeSlots, so a long-lived
  /// daemon serving many short-lived connections holds O(max concurrent),
  /// not O(total), thread stacks. Conns[I] may outlive its slot: workers
  /// with in-flight jobs hold their own references.
  mutable std::mutex ConnMu;
  std::vector<std::thread> ConnThreads;
  std::vector<std::shared_ptr<Connection>> Conns;
  std::vector<size_t> FinishedSlots;
  std::vector<size_t> FreeSlots;

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

  std::mutex StopMu;
  std::condition_variable StopCv;
  bool StopRequested = false;
  std::atomic<bool> Stopping{false};
  bool Started = false;
  /// Serializes teardown(): concurrent callers (a wait()er and the
  /// destructor) must both block until teardown completed, not return
  /// while the other is still mid-teardown.
  std::mutex TeardownMu;
  bool TornDown = false;
};

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_SERVER_H
