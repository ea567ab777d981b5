//===- service/Server.cpp - qlosured Unix-socket server ------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "baselines/RouterRegistry.h"
#include "core/Qlosure.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "route/Fidelity.h"
#include "route/InitialMapping.h"
#include "route/Verify.h"
#include "service/Metrics.h"
#include "service/SocketIO.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

namespace {

const char *const KnownBackends[] = {
    "sherbrooke", "ankaa3",  "sherbrooke2x", "kings9x9",
    "kings16x16", "aspen16", "sycamore54"};

const char *const KnownMappers[] = {"qlosure", "sabre", "qmap", "cirq",
                                    "tket"};

/// Byte budget of the raw-text alias cache. An alias costs ~200 bytes
/// and pays only while its result is cached, so this holds ~20k texts:
/// more than the default result cache keeps for all but the smallest
/// circuits.
constexpr size_t AliasCacheBytes = 4ull << 20;

bool isKnown(const char *const *Names, size_t Count,
             const std::string &Name) {
  for (size_t I = 0; I < Count; ++I)
    if (Name == Names[I])
      return true;
  return false;
}

std::unique_ptr<Router> makeServiceRouter(const std::string &Name,
                                          bool ErrorAware, bool Affine) {
  if (Name == "qlosure") {
    QlosureOptions Opts;
    Opts.ErrorAware = ErrorAware;
    Opts.AffineReplay = Affine;
    // Replay is only exact under the unweighted scoring profile (omega
    // is aperiodic even on periodic traces, so weighted anchors rarely
    // recur); requesting affine selects that profile.
    if (Affine)
      Opts.UseDependencyWeights = false;
    return std::make_unique<QlosureRouter>(Opts);
  }
  // Baselines have no error-aware or affine mode; they route on the
  // calibrated graph with plain distances (mirrors tools/qlosure-route).
  return makeRouterByName(Name);
}

json::Value cacheStatsJson(const CacheStats &S, size_t ByteBudget) {
  json::Value Obj = json::Value::object();
  Obj.set("hits", S.Hits);
  Obj.set("misses", S.Misses);
  Obj.set("evictions", S.Evictions);
  Obj.set("entries", S.Entries);
  Obj.set("bytes", S.Bytes);
  Obj.set("byte_budget", ByteBudget);
  return Obj;
}

/// The RouteStats block a cached (memory or store) result replays.
RouteStats statsFromCached(const CachedResult &Cached) {
  RouteStats Stats;
  Stats.LogicalGates = Cached.LogicalGates;
  Stats.RoutedGates = Cached.RoutedGates;
  Stats.Swaps = Cached.Swaps;
  Stats.DepthBefore = Cached.DepthBefore;
  Stats.DepthAfter = Cached.DepthAfter;
  Stats.MappingSeconds = Cached.MappingSeconds;
  Stats.TimedOut = Cached.TimedOut;
  Stats.Verified = Cached.Verified;
  Stats.SuccessProbability = Cached.SuccessProbability;
  return Stats;
}

/// \p Route minus its QASM source, which only triage ever reads: a
/// pipelined connection can park hundreds of jobs in the queue, and each
/// must not pin (or even transiently copy) megabytes of dead text.
RouteRequest withoutQasm(const RouteRequest &Route) {
  RouteRequest Params;
  Params.Mapper = Route.Mapper;
  Params.Backend = Route.Backend;
  Params.Bidirectional = Route.Bidirectional;
  Params.ErrorAware = Route.ErrorAware;
  Params.Affine = Route.Affine;
  Params.CalibrationSeed = Route.CalibrationSeed;
  Params.IncludeQasm = Route.IncludeQasm;
  Params.TimeoutMs = Route.TimeoutMs;
  Params.Progress = Route.Progress;
  Params.Trace = Route.Trace;
  Params.TraceId = Route.TraceId;
  return Params;
}

/// A leader-failure outcome for the followers coalesced onto it: the
/// leader's own error code, with the message marking that the failure
/// was inherited (docs/PROTOCOL.md documents the semantics).
InflightTable::Outcome coalescedFailure(const char *Code,
                                        const std::string &Message) {
  InflightTable::Outcome O;
  O.ErrorCode = Code;
  O.ErrorMessage = formatString("coalesced leader failed: %s",
                                Message.c_str());
  return O;
}

/// Maps a fired token to its protocol error (code, message).
std::pair<const char *, const char *>
cancellationError(const CancellationToken &Token) {
  if (Token.reason() == CancellationToken::Reason::DeadlineExceeded)
    return {errc::DeadlineExceeded, "deadline expired mid-route"};
  return {errc::Cancelled, "request cancelled"};
}

/// Absolute deadline for a request that asked for \p TimeoutMs (<= 0 =
/// server default). Clamped before converting: an absurd client-supplied
/// timeout must not overflow the chrono arithmetic (which would wrap the
/// deadline into the past) or make the double->int64 cast undefined. A
/// week is effectively "no deadline" for a mapping request.
std::chrono::steady_clock::time_point
requestDeadline(double TimeoutMs, double DefaultTimeoutSeconds) {
  auto Deadline = std::chrono::steady_clock::time_point::max();
  double EffectiveMs =
      TimeoutMs > 0 ? TimeoutMs : DefaultTimeoutSeconds * 1000.0;
  constexpr double MaxTimeoutMs = 7.0 * 24 * 3600 * 1000;
  EffectiveMs = std::min(EffectiveMs, MaxTimeoutMs);
  if (TimeoutMs > 0 || DefaultTimeoutSeconds > 0)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(
                   static_cast<int64_t>(EffectiveMs * 1000.0));
  return Deadline;
}

/// Nanoseconds between two trace-clock points.
int64_t spanNs(Trace::Clock::time_point From, Trace::Clock::time_point To) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
      .count();
}

/// One warn-level "slow_request" line for a request that crossed the
/// configured threshold, carrying the per-phase trace when one was
/// recorded.
void logSlowRequest(const char *Op, const std::string &Id,
                    const RouteRequest &Params, double TotalMs,
                    double ThresholdMs, Trace *T,
                    Trace::Clock::time_point Now) {
  if (!log::enabled(log::Level::Warn))
    return;
  log::Event E(log::Level::Warn, "slow_request");
  E.str("op", Op);
  if (!Id.empty())
    E.str("id", Id);
  E.str("mapper", Params.Mapper);
  E.str("backend", Params.Backend);
  E.num("total_ms", TotalMs);
  E.num("threshold_ms", ThresholdMs);
  if (T) {
    E.str("trace_id", T->traceId());
    E.json("trace", T->toJson(Now));
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Connection: the shared per-connection writer + in-flight job table
//===----------------------------------------------------------------------===//

/// Shared between the connection thread (reads, inline responses,
/// cancels) and any workers running this connection's jobs (final
/// responses, progress events). The writer mutex serializes frames so
/// concurrent completions interleave whole lines, never bytes. The fd
/// closes with the last shared_ptr, so a worker finishing after the
/// reader exited can never write into a recycled descriptor.
struct Server::Connection {
  explicit Connection(int FdIn) : Fd(FdIn) {}
  ~Connection() { ::close(Fd); }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  const int Fd;

  /// Writes one frame (newline appended). Returns false once the peer is
  /// gone or the reader marked the connection closed; failures latch, so
  /// late completions degrade to cheap no-ops. The 30 s cumulative bound
  /// (on top of the per-send SO_SNDTIMEO) means a slow-dripping reader
  /// cannot pin the writing thread past one frame's worth of patience.
  bool send(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(WriteMu);
    if (Closed)
      return false;
    if (!sendAll(Fd, Line + "\n", /*MaxSeconds=*/30.0)) {
      Closed = true;
      return false;
    }
    return true;
  }

  bool alive() {
    std::lock_guard<std::mutex> Lock(WriteMu);
    return !Closed;
  }

  /// Called by the connection thread on exit: no further frames go out.
  void markClosed() {
    std::lock_guard<std::mutex> Lock(WriteMu);
    Closed = true;
  }

  /// In-flight cancellable routes by id, and in-flight batch sessions by
  /// id (one namespace: a live batch id cannot be reused by a route and
  /// vice versa). Only the owning connection thread inserts (ids are
  /// connection-scoped and requests on one connection are read serially);
  /// workers erase on completion, so the mutex arbitrates insert/lookup
  /// against that erase.
  std::mutex JobsMu;
  std::map<std::string, std::shared_ptr<JobTicket>> InFlight;
  std::map<std::string, std::shared_ptr<Server::BatchState>> InFlightBatches;

  /// The single release point of the in-flight table: every completion
  /// path (success, error, expiry, queued-cancel, submit failure) frees
  /// the id here, *before* its final frame is written, so a client that
  /// has read the final response may immediately reuse the id.
  void releaseJob(const std::string &Id) {
    if (Id.empty())
      return;
    std::lock_guard<std::mutex> Lock(JobsMu);
    InFlight.erase(Id);
  }

  /// Same contract for batch sessions: released by the summary sender
  /// right before the summary frame goes out.
  void releaseBatch(const std::string &Id) {
    std::lock_guard<std::mutex> Lock(JobsMu);
    InFlightBatches.erase(Id);
  }

  /// True when \p Id is in flight as either a route or a batch.
  bool idInFlight(const std::string &Id) {
    std::lock_guard<std::mutex> Lock(JobsMu);
    return InFlight.count(Id) != 0 || InFlightBatches.count(Id) != 0;
  }

private:
  std::mutex WriteMu;
  bool Closed = false;
};

//===----------------------------------------------------------------------===//
// BatchState: one in-flight batch session
//===----------------------------------------------------------------------===//

/// Shared by the connection thread (inline hits/failures, cancels) and
/// the workers running the batch's scheduled items. Per-item slots are
/// written by exactly one thread each (whoever completes that item), and
/// the Remaining countdown sequences those writes before the summary
/// sender's reads — no per-item locking needed.
struct Server::BatchState {
  std::shared_ptr<Connection> Conn;
  std::string Id;
  std::string Mapper;
  std::string BackendName;
  /// Items still unfinished; the decrement that reaches zero owns
  /// releasing the id and sending the summary.
  std::atomic<size_t> Remaining{0};
  /// Parallel per-item arrays, indexed in submission order: the client
  /// label echoed in frames, and the terse outcome ("ok" or error code)
  /// the summary reports.
  std::vector<std::string> Names;
  std::vector<std::string> Status;
  /// (ticket, item index) for every item that reached the scheduler —
  /// the whole-batch cancellation handles. Written once by the
  /// connection thread right after submission; only that same thread
  /// reads them (cancel and teardown both run on it), so unsynchronized.
  std::vector<std::pair<std::shared_ptr<JobTicket>, size_t>> Tickets;
};

/// Outcome of the shared worker-side routing core.
struct Server::RouteOutcome {
  /// nullptr = success. When Cancelled is set the caller derives the
  /// code from the token (cancelled vs. deadline_exceeded) instead.
  const char *ErrorCode = nullptr;
  std::string ErrorMessage;
  bool Cancelled = false;
  bool ContextHit = false;
  RouteStats Stats;
  std::shared_ptr<const CachedResult> Cached; ///< Set on success.
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions Options)
    : Options(std::move(Options)),
      Contexts(CacheOptions{this->Options.CacheShards,
                            this->Options.ContextCacheBytes}),
      Results(CacheOptions{this->Options.CacheShards,
                           this->Options.ResultCacheBytes}),
      Aliases(CacheOptions{this->Options.CacheShards, AliasCacheBytes}) {}

Server::~Server() {
  requestStop();
  wait();
}

Status Server::start() {
  if (Started)
    return Status::error("server already started");
  if (Options.Listen.empty())
    return Status::error("listen address must not be empty");

  if (!Options.StorePath.empty()) {
    ResultStoreOptions StoreOpts;
    StoreOpts.Path = Options.StorePath;
    StoreOpts.ReadOnly = Options.StoreReadOnly;
    StoreOpts.FsyncBytes = Options.StoreFsyncBytes;
    Status StoreErr;
    Store = ResultStore::open(StoreOpts, StoreErr);
    if (!Store)
      return StoreErr;
  } else if (Options.StoreReadOnly) {
    return Status::error("--store-read-only requires a store path");
  }

  Endpoint Ep;
  if (Status S = parseEndpoint(Options.Listen, Ep); !S.ok())
    return S;
  if (Status S = Acceptor.listen(Ep, 64); !S.ok())
    return S;

  Inflight = std::make_unique<InflightTable>();
  SchedulerOptions SchedOpts;
  SchedOpts.Workers = Options.Workers;
  SchedOpts.QueueCapacity = Options.QueueCapacity;
  Workers = std::make_unique<Scheduler>(SchedOpts);

  Started = true;
  Uptime.reset();
  AcceptThread = std::thread([this] { acceptLoop(); });
  return Status::success();
}

void Server::requestStop() {
  {
    std::lock_guard<std::mutex> Lock(StopMu);
    StopRequested = true;
  }
  StopCv.notify_all();
}

void Server::wait(const std::function<bool()> &ExternalStop) {
  if (!Started)
    return;
  {
    std::unique_lock<std::mutex> Lock(StopMu);
    while (!StopRequested) {
      if (ExternalStop && ExternalStop())
        break;
      StopCv.wait_for(Lock, std::chrono::milliseconds(200));
    }
  }
  teardown();
}

void Server::stop() {
  requestStop();
  wait();
}

void Server::teardown() {
  std::lock_guard<std::mutex> TeardownLock(TeardownMu);
  if (TornDown)
    return;
  TornDown = true;
  Stopping.store(true);

  // Unblock accept(): closing the listener makes it fail immediately
  // (and unlinks a unix socket file).
  Acceptor.close();
  if (AcceptThread.joinable())
    AcceptThread.join();

  // Drain the scheduler FIRST, while every connection's write side is
  // still intact: each pending route reaches its completion path and its
  // final response actually reaches the client — the exactly-one-final-
  // response guarantee holds across shutdown. New submissions are
  // already rejected (Stopping answers shutting_down). Only then sever
  // the connections to unblock their readers.
  if (Workers)
    Workers->shutdown();
  // Every leader has now completed (drained jobs complete their flights
  // on the way out), so the coalescing table is normally empty; drain
  // the stragglers with a structured error while the writers still work
  // — no follower is ever left without its final response.
  if (Inflight) {
    InflightTable::Outcome Shutdown;
    Shutdown.ErrorCode = errc::ShuttingDown;
    Shutdown.ErrorMessage = "server is shutting down";
    Inflight->drain(Shutdown);
  }
  if (Store)
    Store->flush();
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (const std::shared_ptr<Connection> &Conn : Conns)
      if (Conn)
        ::shutdown(Conn->Fd, SHUT_RDWR);
  }
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    ToJoin.swap(ConnThreads);
  }
  for (std::thread &T : ToJoin)
    if (T.joinable())
      T.join();
}

//===----------------------------------------------------------------------===//
// Accept + connection loops
//===----------------------------------------------------------------------===//

void Server::acceptLoop() {
  while (!Stopping.load()) {
    int Fd = Acceptor.acceptConnection();
    if (Fd < 0)
      return; // Listener closed (teardown) or fatal; either way, stop.
    if (Stopping.load()) {
      ::close(Fd);
      return;
    }
    // Responses are written by worker threads: a peer that stops reading
    // while we owe it data must not pin a worker (or the writer mutex)
    // forever. Bound every blocking send; a timed-out send fails and
    // latches the connection closed — the peer is treated as gone.
    timeval SendTimeout{};
    SendTimeout.tv_sec = 10;
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                 sizeof(SendTimeout));
    auto Conn = std::make_shared<Connection>(Fd);
    std::lock_guard<std::mutex> Lock(ConnMu);
    // Reap connections that finished since the last accept: join their
    // threads (they have already vacated their slot, so join returns
    // promptly) and recycle the slots.
    for (size_t Finished : FinishedSlots) {
      if (ConnThreads[Finished].joinable())
        ConnThreads[Finished].join();
      FreeSlots.push_back(Finished);
    }
    FinishedSlots.clear();

    size_t Slot;
    if (!FreeSlots.empty()) {
      Slot = FreeSlots.back();
      FreeSlots.pop_back();
      Conns[Slot] = Conn;
      ConnThreads[Slot] =
          std::thread([this, Conn, Slot] { connectionLoop(Conn, Slot); });
    } else {
      Slot = Conns.size();
      Conns.push_back(Conn);
      ConnThreads.emplace_back(
          [this, Conn, Slot] { connectionLoop(Conn, Slot); });
    }
    {
      std::lock_guard<std::mutex> CounterLock(CounterMu);
      ++Counters.Connections;
    }
  }
}

void Server::connectionLoop(std::shared_ptr<Connection> Conn, size_t Slot) {
  std::string Pending;
  char Buffer[65536];
  bool Alive = true;
  while (Alive) {
    ssize_t N = recvSome(Conn->Fd, Buffer, sizeof(Buffer));
    if (N <= 0)
      break;
    Pending.append(Buffer, static_cast<size_t>(N));
    if (Pending.size() > Options.MaxRequestBytes &&
        Pending.find('\n') == std::string::npos) {
      sendError(*Conn, "unknown", "", errc::BadRequest,
                "request line too large");
      break;
    }
    std::string Line;
    while (Alive && popLine(Pending, Line)) {
      if (Line.empty())
        continue;
      bool StopAfterSend = false;
      handleLine(Conn, Line, StopAfterSend);
      if (StopAfterSend)
        requestStop();
      if (!Conn->alive())
        Alive = false;
    }
  }
  // No frame may go out after the reader exits: in-flight completions
  // degrade to no-ops (their job-table entries still clear normally).
  Conn->markClosed();
  // Nothing can read this connection's outcomes anymore, so abort its
  // queued and in-flight jobs instead of letting workers spend minutes
  // routing into a latched-closed writer (a dropped pipelined connection
  // could otherwise pin the whole pool on dead work).
  std::vector<std::shared_ptr<JobTicket>> Orphans;
  std::vector<std::shared_ptr<BatchState>> OrphanBatches;
  {
    std::lock_guard<std::mutex> Lock(Conn->JobsMu);
    for (const auto &Entry : Conn->InFlight)
      Orphans.push_back(Entry.second);
    for (const auto &Entry : Conn->InFlightBatches)
      OrphanBatches.push_back(Entry.second);
  }
  for (const std::shared_ptr<JobTicket> &Ticket : Orphans) {
    if (Workers->cancel(Ticket) == JobTicket::State::Queued) {
      // Claimed unrun. If it led a flight, followers on *other*
      // connections must still get their final response.
      Inflight->completeByLeader(
          Ticket, coalescedFailure(errc::Cancelled,
                                   "leader connection dropped"));
    }
  }
  // Batch items are aborted through the same helper the cancel op uses;
  // its frames degrade to no-ops on the latched-closed writer.
  for (const std::shared_ptr<BatchState> &Batch : OrphanBatches)
    cancelBatch(Batch);
  // Vacate the slot under the same lock teardown() iterates under, then
  // report it finished so the accept loop joins this thread and recycles
  // it. The Connection object itself lives on until the last in-flight
  // job drops its reference — which is what keeps the fd from being
  // recycled under a late writer.
  std::lock_guard<std::mutex> Lock(ConnMu);
  Conns[Slot] = nullptr;
  FinishedSlots.push_back(Slot);
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

void Server::sendError(Connection &Conn, const char *Op,
                       const std::string &Id, const char *Code,
                       const std::string &Message) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Errors;
  }
  Conn.send(formatErrorResponse(Op, Id, Code, Message));
}

void Server::handleLine(const std::shared_ptr<Connection> &Conn,
                        const std::string &Line, bool &StopAfterSend) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Requests;
  }
  RequestParse Parsed = parseRequest(Line);
  if (!Parsed.Ok) {
    // Rejections stay correlatable: whatever (op, id) the request
    // carried was captured before validation failed.
    sendError(*Conn,
              Parsed.OpName.empty() ? "unknown" : Parsed.OpName.c_str(),
              Parsed.Req.Id, Parsed.ErrorCode.c_str(),
              Parsed.ErrorMessage);
    return;
  }
  const Request &Req = Parsed.Req;
  switch (Req.TheOp) {
  case Op::Ping:
    Conn->send(formatPingResponse(Req.Id));
    return;
  case Op::Stats:
    Conn->send(formatStatsResponse(Req.Id, statsJson()));
    return;
  case Op::Metrics:
    Conn->send(
        formatMetricsResponse(Req.Id, prometheusText(statsJson(), "qlosure")));
    return;
  case Op::Shutdown:
    StopAfterSend = true;
    Conn->send(formatShutdownResponse(Req.Id));
    return;
  case Op::Cancel:
    handleCancel(Conn, Req);
    return;
  case Op::Route:
    handleRoute(Conn, Req);
    return;
  case Op::Batch:
    handleBatch(Conn, Req);
    return;
  }
  sendError(*Conn, "unknown", Req.Id, errc::BadRequest, "unhandled op");
}

void Server::handleCancel(const std::shared_ptr<Connection> &Conn,
                          const Request &Req) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.CancelRequests;
  }
  std::shared_ptr<JobTicket> Ticket;
  std::shared_ptr<BatchState> Batch;
  {
    std::lock_guard<std::mutex> Lock(Conn->JobsMu);
    auto It = Conn->InFlight.find(Req.Id);
    if (It != Conn->InFlight.end())
      Ticket = It->second;
    auto BatchIt = Conn->InFlightBatches.find(Req.Id);
    if (BatchIt != Conn->InFlightBatches.end())
      Batch = BatchIt->second;
  }
  if (Batch) {
    // Whole-batch cancel: every still-live item dies; the summary still
    // arrives (last) through the normal countdown, tallying the mix of
    // completed and cancelled items.
    Conn->send(formatCancelResponse(Req.Id, cancelBatch(Batch)));
    return;
  }
  if (!Ticket) {
    // Unknown or already finished: idempotent no-op ack.
    Conn->send(formatCancelResponse(Req.Id, false));
    return;
  }
  switch (Workers->cancel(Ticket)) {
  case JobTicket::State::Queued: {
    // Unqueued before it ever ran: this thread owns reporting. When the
    // ticket led a coalescing flight, the flight dies with it (its
    // followers inherit the cancellation as a structured error); a
    // cancelled *follower* leads nothing, so this is a no-op for it.
    Inflight->completeByLeader(
        Ticket,
        coalescedFailure(errc::Cancelled, "request cancelled while queued"));
    Conn->releaseJob(Req.Id);
    Conn->send(formatCancelResponse(Req.Id, true));
    sendError(*Conn, "route", Req.Id, errc::Cancelled,
              "request cancelled while queued");
    return;
  }
  case JobTicket::State::Running:
    // Token signalled; the job aborts at its next poll and reports
    // through its own completion path.
    Conn->send(formatCancelResponse(Req.Id, true));
    return;
  case JobTicket::State::CancelledWhileQueued:
  case JobTicket::State::Done:
    Conn->send(formatCancelResponse(Req.Id, false));
    return;
  }
}

std::shared_ptr<const CachedResult>
Server::lookupResult(const CacheKey &Key) {
  if (auto Cached = Results.lookup(Key))
    return Cached;
  if (!Store)
    return nullptr;
  auto FromStore = Store->get(Key);
  if (!FromStore)
    return nullptr;
  // Promote the durable record into the memory cache so the next hit
  // skips the disk read (insertValue keeps a racing incumbent).
  return Results.insertValue(Key, std::move(FromStore));
}

std::shared_ptr<const Server::PooledBackend>
Server::lookupBackend(const std::string &Name, bool ErrorAware,
                      uint64_t CalibrationSeed) {
  if (!isKnown(KnownBackends,
               sizeof(KnownBackends) / sizeof(KnownBackends[0]), Name))
    return nullptr;
  std::string VariantKey =
      ErrorAware ? formatString("%s|ea%llu", Name.c_str(),
                                static_cast<unsigned long long>(
                                    CalibrationSeed))
                 : Name + "|plain";
  std::lock_guard<std::mutex> Lock(BackendMu);
  auto It = Backends.find(VariantKey);
  if (It != Backends.end())
    return It->second;
  // The calibration-seed dimension is client-controlled: bound the pool
  // by dropping the error-aware variants when it fills up (in-flight
  // requests hold shared ownership of theirs; plain variants — at most
  // one per known backend — are retained).
  if (Backends.size() >= MaxBackendVariants) {
    for (auto Victim = Backends.begin(); Victim != Backends.end();) {
      if (Victim->first.find("|ea") != std::string::npos)
        Victim = Backends.erase(Victim);
      else
        ++Victim;
    }
  }
  auto Graph = std::make_shared<CouplingGraph>(makeBackendByName(Name));
  if (ErrorAware)
    applySyntheticErrorModel(*Graph, CalibrationSeed);
  auto Pooled = std::make_shared<PooledBackend>();
  Pooled->Fingerprint = fingerprint(*Graph);
  Pooled->Graph = std::move(Graph);
  Backends.emplace(VariantKey, Pooled);
  return Pooled;
}

std::shared_ptr<const Server::PooledBackend>
Server::admit(Connection &Conn, const char *Op, const Request &Req) {
  const RouteRequest &Route = Req.Route;
  if (Stopping.load()) {
    sendError(Conn, Op, Req.Id, errc::ShuttingDown, "server is shutting down");
    return nullptr;
  }
  if (!Req.Id.empty() && Conn.idInFlight(Req.Id)) {
    sendError(Conn, Op, Req.Id, errc::BadRequest,
              formatString("id \"%s\" is already in flight on this "
                           "connection",
                           Req.Id.c_str()));
    return nullptr;
  }
  if (!isKnown(KnownMappers, sizeof(KnownMappers) / sizeof(KnownMappers[0]),
               Route.Mapper)) {
    sendError(Conn, Op, Req.Id, errc::UnknownMapper,
              formatString("unknown mapper \"%s\"", Route.Mapper.c_str()));
    return nullptr;
  }
  std::shared_ptr<const PooledBackend> Backend =
      lookupBackend(Route.Backend, Route.ErrorAware, Route.CalibrationSeed);
  if (!Backend)
    sendError(Conn, Op, Req.Id, errc::UnknownBackend,
              formatString("unknown backend \"%s\"", Route.Backend.c_str()));
  return Backend;
}

Server::Triage Server::triage(const std::string &Qasm,
                              const PooledBackend &Backend,
                              const RouteRequest &Params, Trace *T) {
  Triage Out;
  CacheKey Alias;
  std::shared_ptr<const ResultAlias> Aliased;
  {
    ScopedSpan Span(T, "alias_lookup");
    Alias = aliasKey(Qasm, Backend.Fingerprint, Params);
    Aliased = Aliases.lookup(Alias);
  }
  if (Aliased && (Out.Cached = lookupResult(Aliased->Result)))
    return Out;

  {
    ScopedSpan Span(T, "import_qasm");
    // The backend's size bounds the import, so an oversized declaration
    // is refused before any gate is lowered.
    qasm::ImportResult Imported =
        qasm::importQasm(Qasm, "request", Backend.Graph->numQubits());
    if (Imported.TooLarge) {
      Out.ErrorCode = errc::TooLarge;
      Out.ErrorMessage = formatString(
          "circuit has %u qubits but %s only has %u", Imported.NumQubits,
          Params.Backend.c_str(), Backend.Graph->numQubits());
      return Out;
    }
    if (!Imported.succeeded()) {
      Out.ErrorCode = errc::BadQasm;
      Out.ErrorMessage = std::move(Imported.Error);
      return Out;
    }
    Out.Logical = std::make_shared<Circuit>(
        Imported.Circ->withoutNonUnitaries().decomposeThreeQubitGates());
  }
  Out.CircuitFp = fingerprint(*Out.Logical);
  Out.ResultKey = resultKey(Out.CircuitFp, Backend.Fingerprint, Params);
  // The alias is recorded before the result exists, so a repeat that
  // arrives while this circuit routes finds its result once it lands.
  if (!Aliased)
    Aliases.insertValue(
        Alias, std::make_shared<ResultAlias>(ResultAlias{Out.ResultKey}));
  // An alias that named this very key has already missed it above.
  if (!Aliased || Aliased->Result != Out.ResultKey)
    Out.Cached = lookupResult(Out.ResultKey);
  return Out;
}

void Server::handleRoute(const std::shared_ptr<Connection> &Conn,
                         const Request &Req) {
  const RouteRequest &Route = Req.Route;
  const auto ReqStart = Trace::Clock::now();
  // A traced request carries one span recorder from arrival to its final
  // frame; untraced requests never allocate one.
  std::shared_ptr<Trace> T;
  if (Route.Trace) {
    T = std::make_shared<Trace>();
    T->reset(Route.TraceId.empty() ? generateTraceId() : Route.TraceId,
             ReqStart);
  }
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.RouteRequests;
  }
  std::shared_ptr<const PooledBackend> Backend = admit(*Conn, "route", Req);
  if (!Backend)
    return;

  Triage Item = triage(Route.Qasm, *Backend, Route, T.get());
  if (Item.ErrorCode) {
    sendError(*Conn, "route", Req.Id, Item.ErrorCode, Item.ErrorMessage);
    return;
  }
  if (Item.Cached) {
    const auto Now = Trace::Clock::now();
    Histos.Route.recordNs(spanNs(ReqStart, Now));
    json::Value TraceJson;
    if (T) {
      T->addNs("result_cache_hit", T->sinceEpochNs(Now), 0);
      TraceJson = T->toJson(Now);
    }
    Conn->send(formatRouteResponse(
        Req.Id, Route.Mapper, Route.Backend, statsFromCached(*Item.Cached),
        /*ContextCacheHit=*/false, /*ResultCacheHit=*/true,
        Item.Cached->RoutedQasm, Route.IncludeQasm, T ? &TraceJson : nullptr));
    return;
  }
  const CacheKey ResultKey = Item.ResultKey;

  auto Deadline =
      requestDeadline(Route.TimeoutMs, Options.DefaultTimeoutSeconds);

  // Pre-register the ticket before the coalescing decision and before
  // submission, so a completion (or a follower delivery) racing this
  // thread can only ever erase an entry that exists; the connection
  // thread is the sole inserter, so no other request can slip in
  // between.
  auto Ticket = std::make_shared<JobTicket>();
  if (!Req.Id.empty()) {
    std::lock_guard<std::mutex> Lock(Conn->JobsMu);
    Conn->InFlight[Req.Id] = Ticket;
  }

  // Coalesce: when an identical request (same result key) is already
  // routing, follow its flight instead of routing again. The follower's
  // ticket doubles as its claim token — its cancel and deadline work
  // through the same paths as a queued job's, without touching the
  // leader.
  InflightTable::Follower F;
  F.Ticket = Ticket;
  F.Deadline = Deadline;
  F.Deliver = [this, Conn, Id = Req.Id, Mapper = Route.Mapper,
               BackendName = Route.Backend,
               IncludeQasm = Route.IncludeQasm,
               ReqStart](const InflightTable::Outcome &O) {
    Histos.Route.recordNs(spanNs(ReqStart, Trace::Clock::now()));
    Conn->releaseJob(Id);
    if (!O.Ok) {
      sendError(*Conn, "route", Id, O.ErrorCode, O.ErrorMessage);
      return;
    }
    Conn->send(formatRouteResponse(Id, Mapper, BackendName, O.Stats,
                                   O.ContextHit, /*ResultCacheHit=*/false,
                                   O.Cached->RoutedQasm, IncludeQasm,
                                   /*TraceJson=*/nullptr,
                                   /*Coalesced=*/true));
  };
  if (!Inflight->leadOrFollow(ResultKey, Ticket, std::move(F))) {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Coalesced;
    return;
  }

  // This request leads: it owns the scheduler job, and every completion
  // path below also completes the flight (delivering any followers that
  // coalesced onto it meanwhile).

  // The worker captures everything by value or shared ownership: the
  // triaged circuit, the pooled backend, the connection writer, and the
  // request parameters minus the raw QASM source. Queue wait is measured
  // from here (just before submission) to worker pickup.
  const auto SubmitTime = Trace::Clock::now();

  SchedulerJob Job;
  Job.Deadline = Deadline;
  Job.OnExpired = [this, Conn, Id = Req.Id, ResultKey] {
    Inflight->complete(
        ResultKey,
        coalescedFailure(errc::DeadlineExceeded,
                         "deadline passed before a worker picked the "
                         "request up"));
    Conn->releaseJob(Id);
    sendError(*Conn, "route", Id, errc::DeadlineExceeded,
              "deadline passed before a worker picked the request up");
  };
  Job.Run = [this, Conn, Item = std::move(Item), Backend,
             Route = withoutQasm(Route), Id = Req.Id, ResultKey, T, ReqStart,
             SubmitTime](RoutingScratch &Scratch, CancellationToken &Cancel) {
    const auto Pickup = Trace::Clock::now();
    Histos.QueueWait.recordNs(spanNs(SubmitTime, Pickup));
    if (T)
      T->add("queue_wait", SubmitTime, Pickup);
    std::function<void()> BeforeRoute;
    if (Route.Progress && !Id.empty()) {
      // Stream ~20 progress events per route, floored so small circuits
      // do not flood the connection. Installed only right before the
      // main routing pass — after the bidirectional derive passes, which
      // route the circuit internally and would otherwise exhaust the
      // throttle (and mislead the client) before the real route begins.
      size_t Step = std::max<size_t>(Item.Logical->size() / 20, 256);
      BeforeRoute = [&Cancel, Conn, Id, Step] {
        Cancel.enableProgress(
            [Conn, Id](size_t Done, size_t Total) {
              Conn->send(formatProgressEvent(Id, Done, Total));
            },
            Step);
      };
    }
    RouteOutcome Out = executeRoute(Item, Backend, Route, Scratch, Cancel,
                                    BeforeRoute, T.get());
    const auto Done = Trace::Clock::now();
    Histos.Route.recordNs(spanNs(ReqStart, Done));
    double TotalMs = spanNs(ReqStart, Done) / 1e6;
    if (Options.SlowRequestMs > 0 && TotalMs >= Options.SlowRequestMs)
      logSlowRequest("route", Id, Route, TotalMs, Options.SlowRequestMs,
                     T.get(), Done);
    if (Out.Cancelled) {
      auto [Code, Message] = cancellationError(Cancel);
      // Followers are delivered first: the leader's possibly-slow writer
      // must not delay their (other connections') responses.
      Inflight->complete(ResultKey, coalescedFailure(Code, Message));
      Conn->releaseJob(Id);
      sendError(*Conn, "route", Id, Code, Message);
      return;
    }
    if (Out.ErrorCode) {
      Inflight->complete(ResultKey,
                         coalescedFailure(Out.ErrorCode, Out.ErrorMessage));
      Conn->releaseJob(Id);
      sendError(*Conn, "route", Id, Out.ErrorCode, Out.ErrorMessage);
      return;
    }
    {
      InflightTable::Outcome FlightOut;
      FlightOut.Ok = true;
      FlightOut.ContextHit = Out.ContextHit;
      FlightOut.Stats = Out.Stats;
      FlightOut.Cached = Out.Cached;
      Inflight->complete(ResultKey, FlightOut);
    }
    Conn->releaseJob(Id);
    if (T) {
      json::Value TraceJson = T->toJson(Done);
      Conn->send(formatRouteResponse(Id, Route.Mapper, Route.Backend,
                                     Out.Stats, Out.ContextHit,
                                     /*ResultCacheHit=*/false,
                                     Out.Cached->RoutedQasm,
                                     Route.IncludeQasm, &TraceJson));
    } else {
      Conn->send(formatRouteResponse(Id, Route.Mapper, Route.Backend,
                                     Out.Stats, Out.ContextHit,
                                     /*ResultCacheHit=*/false,
                                     Out.Cached->RoutedQasm,
                                     Route.IncludeQasm));
    }
  };

  if (!Workers->trySubmit(std::move(Job), Ticket)) {
    const char *Code = Stopping.load() ? errc::ShuttingDown : errc::QueueFull;
    const char *Message = Stopping.load()
                              ? "server is shutting down"
                              : "scheduler queue is full, retry later";
    Inflight->complete(ResultKey, coalescedFailure(Code, Message));
    Conn->releaseJob(Req.Id);
    sendError(*Conn, "route", Req.Id, Code, Message);
  }
}

Server::RouteOutcome
Server::executeRoute(const Triage &Item,
                     const std::shared_ptr<const PooledBackend> &Backend,
                     const RouteRequest &Params, RoutingScratch &Scratch,
                     CancellationToken &Cancel,
                     const std::function<void()> &BeforeRoute, Trace *T) {
  RouteOutcome Out;
  if (Cancel.cancelled()) {
    Out.Cancelled = true;
    return Out;
  }
  const Circuit &Logical = *Item.Logical;
  std::unique_ptr<Router> Mapper =
      makeServiceRouter(Params.Mapper, Params.ErrorAware, Params.Affine);
  RoutingContextOptions CtxOptions = Mapper->contextOptions();
  CacheKey ContextKey{Item.CircuitFp, Backend->Fingerprint,
                      fingerprint(CtxOptions)};
  const auto CtxStart = Trace::Clock::now();
  int CtxSpan = T ? T->begin("context_build") : -1;
  auto Bundle = Contexts.getOrBuild(
      ContextKey,
      [&] {
        return CachedContext::build(Logical, *Backend->Graph, CtxOptions,
                                    /*WarmWeights=*/true, T);
      },
      &Out.ContextHit);
  if (T)
    T->end(CtxSpan);
  Histos.ContextBuild.recordNs(spanNs(CtxStart, Trace::Clock::now()));
  const RoutingContext &Ctx = Bundle->context();
  if (!Ctx.valid()) {
    Out.ErrorCode = errc::InvalidCircuit;
    Out.ErrorMessage = Ctx.status().message();
    return Out;
  }
  const auto InitStart = Trace::Clock::now();
  int InitSpan = T ? T->begin("initial_mapping") : -1;
  QubitMapping Initial =
      Params.Bidirectional
          ? deriveBidirectionalMapping(*Mapper, Ctx, 1, &Scratch, &Cancel)
          : Ctx.identityMapping();
  if (T)
    T->end(InitSpan);
  Histos.InitialMapping.recordNs(spanNs(InitStart, Trace::Clock::now()));
  if (Cancel.cancelled()) {
    Out.Cancelled = true;
    return Out;
  }
  if (BeforeRoute)
    BeforeRoute();
  const auto RouteStart = Trace::Clock::now();
  int RouteSpan = T ? T->begin("routing_loop") : -1;
  // The sink rides the pooled scratch through the virtual route() call;
  // restore it before the scratch returns to the pool.
  Scratch.TraceSink = T;
  RoutingResult Result = Mapper->route(Ctx, Initial, Scratch, &Cancel);
  Scratch.TraceSink = nullptr;
  if (T)
    T->end(RouteSpan);
  Histos.RoutingLoop.recordNs(spanNs(RouteStart, Trace::Clock::now()));
  if (Result.Cancelled) {
    Out.Cancelled = true;
    return Out;
  }
  if (Result.AffineReplayedPeriods || Result.AffineFallbackPeriods) {
    std::lock_guard<std::mutex> Lock(CounterMu);
    Counters.AffineReplays += Result.AffineReplayedPeriods;
    Counters.AffineFallbacks += Result.AffineFallbackPeriods;
  }
  const auto VerifyStart = Trace::Clock::now();
  int VerifySpan = T ? T->begin("verify") : -1;
  VerifyResult Check = verifyRouting(Ctx.circuit(), Ctx.hardware(), Result);
  if (T)
    T->end(VerifySpan);
  Histos.Verify.recordNs(spanNs(VerifyStart, Trace::Clock::now()));
  if (!Check.Ok) {
    Out.ErrorCode = errc::VerifyFailed;
    Out.ErrorMessage = formatString("routing failed verification: %s",
                                    Check.Message.c_str());
    return Out;
  }
  auto Cached = std::make_shared<CachedResult>();
  {
    ScopedSpan PrintSpan(T, "print_qasm");
    Cached->RoutedQasm = qasm::printQasm(Result.Routed);
  }
  Cached->LogicalGates = Logical.size();
  Cached->RoutedGates = Result.Routed.size();
  Cached->Swaps = Result.NumSwaps;
  Cached->DepthBefore = Logical.depth();
  Cached->DepthAfter = Result.Routed.depth();
  Cached->MappingSeconds = Result.MappingSeconds;
  Cached->TimedOut = Result.TimedOut;
  Cached->Verified = true;
  if (Ctx.hardware().hasErrorModel())
    Cached->SuccessProbability =
        estimateSuccessProbability(Result.Routed, Ctx.hardware());

  Out.Stats = statsFromCached(*Cached);
  Out.Cached = Results.insertValue(Item.ResultKey, std::move(Cached));
  // Persist the routed result. Failures are counted in the store's own
  // stats and never fail the request — durability is an optimization,
  // not a correctness requirement.
  if (Store)
    Store->put(Item.ResultKey, *Out.Cached);
  return Out;
}

//===----------------------------------------------------------------------===//
// Batch sessions
//===----------------------------------------------------------------------===//

void Server::finishBatchItem(const std::shared_ptr<BatchState> &Batch,
                             size_t Index, const char *Status) {
  Batch->Status[Index] = Status;
  // The fetch_sub sequences this thread's Status write (and its already-
  // sent item frame) before the summary sender's reads, and the writer
  // mutex orders the frames themselves — so the summary is always last.
  if (Batch->Remaining.fetch_sub(1) == 1) {
    Batch->Conn->releaseBatch(Batch->Id);
    Batch->Conn->send(formatBatchSummaryResponse(Batch->Id, Batch->Mapper,
                                                 Batch->BackendName,
                                                 Batch->Names,
                                                 Batch->Status));
  }
}

bool Server::cancelBatch(const std::shared_ptr<BatchState> &Batch) {
  bool AnyLive = false;
  for (const auto &[Ticket, Index] : Batch->Tickets) {
    switch (Workers->cancel(Ticket)) {
    case JobTicket::State::Queued:
      // Claimed away from the workers unrun: this thread owns reporting.
      // An item leading a coalescing flight takes its followers' answers
      // with it (as a structured error); a cancelled follower item leads
      // nothing, so the call is a no-op for it.
      Inflight->completeByLeader(
          Ticket,
          coalescedFailure(errc::Cancelled, "item cancelled while queued"));
      AnyLive = true;
      Batch->Conn->send(formatBatchItemError(Batch->Id, Index,
                                             Batch->Names[Index],
                                             errc::Cancelled,
                                             "item cancelled while queued"));
      finishBatchItem(Batch, Index, errc::Cancelled);
      break;
    case JobTicket::State::Running:
      // Token signalled; the item aborts at its next poll and reports
      // through its own completion path.
      AnyLive = true;
      break;
    case JobTicket::State::CancelledWhileQueued:
    case JobTicket::State::Done:
      break;
    }
  }
  return AnyLive;
}

void Server::handleBatch(const std::shared_ptr<Connection> &Conn,
                         const Request &Req) {
  const RouteRequest &Route = Req.Route;
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.BatchRequests;
    Counters.BatchItems += Req.Items.size();
  }
  std::shared_ptr<const PooledBackend> Backend = admit(*Conn, "batch", Req);
  if (!Backend)
    return;

  const size_t Total = Req.Items.size();
  auto Batch = std::make_shared<BatchState>();
  Batch->Conn = Conn;
  Batch->Id = Req.Id;
  Batch->Mapper = Route.Mapper;
  Batch->BackendName = Route.Backend;
  Batch->Remaining.store(Total);
  Batch->Status.assign(Total, std::string());
  Batch->Names.resize(Total);
  for (size_t I = 0; I < Total; ++I)
    Batch->Names[I] = Req.Items[I].Name;

  auto Deadline =
      requestDeadline(Route.TimeoutMs, Options.DefaultTimeoutSeconds);

  // Shared per-item parameters; progress streaming is a `route` feature
  // (a batch already streams one frame per item), so it is ignored here.
  const RouteRequest Params = withoutQasm(Route);

  // Per-item queue wait (and each item trace's epoch) is anchored at
  // batch arrival: items genuinely wait while earlier ones are triaged.
  const auto BatchStart = Trace::Clock::now();

  // Triage every item before anything is enqueued or any frame is sent:
  // the submission below is all-or-nothing, and a rejected batch must
  // emit no item frames at all. Items that triage answers by itself (a
  // cached result or an error) are reported after that decision.
  std::vector<std::pair<size_t, Triage>> Inline;
  // An item whose key matches a flight already in the air (a foreign
  // request's route, or an earlier identical item of this same batch).
  // It must not route again — but it also must not attach yet: a foreign
  // flight could complete (and deliver this item's frame) before the
  // all-or-nothing submission decision below, and a rejected batch emits
  // no item frames. Candidates are resolved only after submission.
  struct CoalesceCandidate {
    size_t Index;
    Triage Item;
    std::shared_ptr<JobTicket> Ticket;
  };
  std::vector<CoalesceCandidate> Candidates;
  std::vector<SchedulerJob> Jobs;
  std::vector<size_t> JobIndex; // Jobs[J] routes item JobIndex[J].
  std::vector<std::shared_ptr<JobTicket>> LeaderTickets; // Parallels Jobs.

  // Builds the scheduler job for an item that leads its flight. Every
  // terminal path completes the flight (delivering any followers) before
  // reporting through this batch's own frames.
  auto MakeLeaderJob = [&](size_t I, const Triage &Item) {
    const CacheKey ResultKey = Item.ResultKey;
    SchedulerJob Job;
    Job.Deadline = Deadline;
    Job.OnExpired = [this, Batch, I, ResultKey] {
      Inflight->complete(
          ResultKey,
          coalescedFailure(errc::DeadlineExceeded,
                           "deadline passed before a worker picked the item "
                           "up"));
      Batch->Conn->send(formatBatchItemError(
          Batch->Id, I, Batch->Names[I], errc::DeadlineExceeded,
          "deadline passed before a worker picked the item up"));
      finishBatchItem(Batch, I, errc::DeadlineExceeded);
    };
    Job.Run = [this, Batch, I, Item, Backend, Params, ResultKey,
               BatchStart](RoutingScratch &Scratch,
                           CancellationToken &Cancel) {
      const auto Pickup = Trace::Clock::now();
      Histos.QueueWait.recordNs(spanNs(BatchStart, Pickup));
      std::unique_ptr<Trace> T;
      if (Params.Trace) {
        // Item traces correlate as "<trace id or batch id>-<index>".
        std::string Base =
            Params.TraceId.empty() ? Batch->Id : Params.TraceId;
        T = std::make_unique<Trace>();
        T->reset(Base.empty() ? generateTraceId()
                              : formatString("%s-%zu", Base.c_str(), I),
                 BatchStart);
        T->add("queue_wait", BatchStart, Pickup);
      }
      RouteOutcome Out = executeRoute(Item, Backend, Params, Scratch, Cancel,
                                      nullptr, T.get());
      const auto Done = Trace::Clock::now();
      Histos.BatchItem.recordNs(spanNs(Pickup, Done));
      double TotalMs = spanNs(BatchStart, Done) / 1e6;
      if (Options.SlowRequestMs > 0 && TotalMs >= Options.SlowRequestMs)
        logSlowRequest("batch_item", Batch->Id, Params, TotalMs,
                       Options.SlowRequestMs, T.get(), Done);
      if (Out.Cancelled) {
        auto [Code, Message] = cancellationError(Cancel);
        // Followers are delivered first: the leader's possibly-slow
        // writer must not delay their (other connections') responses.
        Inflight->complete(ResultKey, coalescedFailure(Code, Message));
        Batch->Conn->send(formatBatchItemError(Batch->Id, I,
                                               Batch->Names[I], Code,
                                               Message));
        finishBatchItem(Batch, I, Code);
        return;
      }
      if (Out.ErrorCode) {
        Inflight->complete(ResultKey, coalescedFailure(Out.ErrorCode,
                                                       Out.ErrorMessage));
        Batch->Conn->send(formatBatchItemError(Batch->Id, I,
                                               Batch->Names[I],
                                               Out.ErrorCode,
                                               Out.ErrorMessage));
        finishBatchItem(Batch, I, Out.ErrorCode);
        return;
      }
      {
        InflightTable::Outcome FlightOut;
        FlightOut.Ok = true;
        FlightOut.ContextHit = Out.ContextHit;
        FlightOut.Stats = Out.Stats;
        FlightOut.Cached = Out.Cached;
        Inflight->complete(ResultKey, FlightOut);
      }
      if (T) {
        json::Value TraceJson = T->toJson(Done);
        Batch->Conn->send(formatBatchItemResult(
            Batch->Id, I, Batch->Names[I], Params.Mapper, Params.Backend,
            Out.Stats, Out.ContextHit, /*ResultCacheHit=*/false,
            Out.Cached->RoutedQasm, Params.IncludeQasm, &TraceJson));
      } else {
        Batch->Conn->send(formatBatchItemResult(
            Batch->Id, I, Batch->Names[I], Params.Mapper, Params.Backend,
            Out.Stats, Out.ContextHit, /*ResultCacheHit=*/false,
            Out.Cached->RoutedQasm, Params.IncludeQasm));
      }
      finishBatchItem(Batch, I, "ok");
    };
    return Job;
  };

  for (size_t I = 0; I < Total; ++I) {
    Triage Item = triage(Req.Items[I].Qasm, *Backend, Params, nullptr);
    if (Item.ErrorCode || Item.Cached) {
      Inline.emplace_back(I, std::move(Item));
      continue;
    }
    // Leading is claimed *now*, with a fresh pre-made ticket, so that a
    // within-batch duplicate triaged later sees the flight and coalesces
    // instead of routing twice. The flights are unwound (completeByLeader)
    // if the submission below is rejected.
    auto Ticket = std::make_shared<JobTicket>();
    if (Inflight->lead(Item.ResultKey, Ticket)) {
      Jobs.push_back(MakeLeaderJob(I, Item));
      JobIndex.push_back(I);
      LeaderTickets.push_back(std::move(Ticket));
    } else {
      Candidates.push_back({I, std::move(Item), std::move(Ticket)});
    }
  }

  // Register before submission so a completing worker's releaseBatch()
  // always finds the entry; requests on this connection are read
  // serially, so no cancel can slip in between.
  {
    std::lock_guard<std::mutex> Lock(Conn->JobsMu);
    Conn->InFlightBatches[Req.Id] = Batch;
  }
  if (!Jobs.empty()) {
    std::vector<std::shared_ptr<JobTicket>> Tickets =
        Workers->trySubmitBatch(std::move(Jobs), LeaderTickets);
    if (Tickets.empty()) {
      // All-or-nothing rejection: nothing ran, nothing was sent — one
      // error response covers the whole batch. The flights claimed at
      // triage die with it: any *foreign* follower that coalesced onto
      // them meanwhile gets the rejection as a structured error (this
      // batch's own candidates have not attached yet, so no item frame
      // escapes).
      const char *Code =
          Stopping.load() ? errc::ShuttingDown : errc::QueueFull;
      std::string Message =
          Stopping.load()
              ? "server is shutting down"
              : formatString("scheduler queue lacks capacity for %zu "
                             "batch items, retry later",
                             JobIndex.size());
      for (const std::shared_ptr<JobTicket> &Ticket : LeaderTickets)
        Inflight->completeByLeader(Ticket, coalescedFailure(Code, Message));
      Conn->releaseBatch(Req.Id);
      sendError(*Conn, "batch", Req.Id, Code, Message);
      return;
    }
    for (size_t J = 0; J < Tickets.size(); ++J)
      Batch->Tickets.emplace_back(std::move(Tickets[J]), JobIndex[J]);
  }

  // The batch is committed: coalesce candidates may attach now. A
  // candidate whose flight resolved in the window since triage is served
  // from the result cache, or — when the flight failed and left no
  // result — routed individually after all.
  for (CoalesceCandidate &C : Candidates) {
    for (;;) {
      InflightTable::Follower F;
      F.Ticket = C.Ticket;
      F.Deadline = Deadline;
      F.Deliver = [this, Batch, I = C.Index, Mapper = Route.Mapper,
                   BackendName = Route.Backend,
                   IncludeQasm =
                       Route.IncludeQasm](const InflightTable::Outcome &O) {
        if (!O.Ok) {
          Batch->Conn->send(formatBatchItemError(
              Batch->Id, I, Batch->Names[I], O.ErrorCode, O.ErrorMessage));
          finishBatchItem(Batch, I, O.ErrorCode);
          return;
        }
        Batch->Conn->send(formatBatchItemResult(
            Batch->Id, I, Batch->Names[I], Mapper, BackendName, O.Stats,
            O.ContextHit, /*ResultCacheHit=*/false, O.Cached->RoutedQasm,
            IncludeQasm, /*TraceJson=*/nullptr, /*Coalesced=*/true));
        finishBatchItem(Batch, I, "ok");
      };
      if (Inflight->tryAttach(C.Item.ResultKey, std::move(F))) {
        {
          std::lock_guard<std::mutex> Lock(CounterMu);
          ++Counters.Coalesced;
        }
        Batch->Tickets.emplace_back(C.Ticket, C.Index);
        break;
      }
      if ((C.Item.Cached = lookupResult(C.Item.ResultKey))) {
        Inline.emplace_back(C.Index, std::move(C.Item));
        break;
      }
      if (Inflight->lead(C.Item.ResultKey, C.Ticket)) {
        if (!Workers->trySubmit(MakeLeaderJob(C.Index, C.Item), C.Ticket)) {
          const char *Code =
              Stopping.load() ? errc::ShuttingDown : errc::QueueFull;
          const char *Message = Stopping.load()
                                    ? "server is shutting down"
                                    : "scheduler queue is full, retry later";
          Inflight->completeByLeader(C.Ticket,
                                     coalescedFailure(Code, Message));
          Conn->send(formatBatchItemError(Req.Id, C.Index,
                                          Batch->Names[C.Index], Code,
                                          Message));
          finishBatchItem(Batch, C.Index, Code);
        } else {
          Batch->Tickets.emplace_back(C.Ticket, C.Index);
        }
        break;
      }
      // Another identical request took the lead in the window between
      // the failed attach and the failed lead; retry the attach.
    }
  }

  // Inline outcomes go out only now, after the all-or-nothing decision.
  // Workers may already be streaming their items — fine; the summary
  // still waits for these, because their countdown slots are ours.
  for (const auto &[Index, Item] : Inline) {
    if (Item.ErrorCode) {
      Conn->send(formatBatchItemError(Req.Id, Index, Batch->Names[Index],
                                      Item.ErrorCode, Item.ErrorMessage));
      finishBatchItem(Batch, Index, Item.ErrorCode);
      continue;
    }
    Conn->send(formatBatchItemResult(
        Req.Id, Index, Batch->Names[Index], Route.Mapper, Route.Backend,
        statsFromCached(*Item.Cached), /*ContextCacheHit=*/false,
        /*ResultCacheHit=*/true, Item.Cached->RoutedQasm, Route.IncludeQasm));
    finishBatchItem(Batch, Index, "ok");
  }
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

json::Value Server::statsJson() const {
  json::Value Doc = json::Value::object();

  json::Value ServerObj = json::Value::object();
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ServerObj.set("connections", Counters.Connections);
    ServerObj.set("requests", Counters.Requests);
    ServerObj.set("route_requests", Counters.RouteRequests);
    ServerObj.set("cancel_requests", Counters.CancelRequests);
    ServerObj.set("batch_requests", Counters.BatchRequests);
    ServerObj.set("batch_items", Counters.BatchItems);
    ServerObj.set("errors", Counters.Errors);
    ServerObj.set("affine_replays", Counters.AffineReplays);
    ServerObj.set("affine_fallbacks", Counters.AffineFallbacks);
    ServerObj.set("coalesced", Counters.Coalesced);
  }
  ServerObj.set("uptime_seconds", Uptime.elapsedSeconds());
  ServerObj.set("endpoint", boundAddress());
  ServerObj.set("protocol", ProtocolVersion);
  Doc.set("server", std::move(ServerObj));

  if (Workers) {
    SchedulerStats S = Workers->stats();
    json::Value Sched = json::Value::object();
    Sched.set("workers", S.Workers);
    Sched.set("queue_depth", S.QueueDepth);
    Sched.set("queue_capacity", Options.QueueCapacity);
    Sched.set("submitted", S.Submitted);
    Sched.set("completed", S.Completed);
    Sched.set("expired", S.Expired);
    Sched.set("rejected", S.Rejected);
    Sched.set("cancelled", S.Cancelled);
    Doc.set("scheduler", std::move(Sched));
  }

  Doc.set("context_cache",
          cacheStatsJson(Contexts.stats(), Options.ContextCacheBytes));
  Doc.set("result_cache",
          cacheStatsJson(Results.stats(), Options.ResultCacheBytes));
  Doc.set("alias_cache", cacheStatsJson(Aliases.stats(), AliasCacheBytes));
  if (Store) {
    StoreStats SS = Store->stats();
    json::Value St = json::Value::object();
    St.set("read_only", Store->readOnly());
    St.set("records", SS.Records);
    St.set("appended_records", SS.AppendedRecords);
    St.set("bytes", SS.Bytes);
    St.set("live_bytes", SS.LiveBytes);
    St.set("hits", SS.Hits);
    St.set("misses", SS.Misses);
    St.set("corrupt_skipped", SS.CorruptSkipped);
    St.set("truncated_bytes", SS.TruncatedBytes);
    St.set("compactions", SS.Compactions);
    St.set("write_errors", SS.WriteErrors);
    Doc.set("store", std::move(St));
  }
  Doc.set("latency", Histos.toJson());
  return Doc;
}

json::Value ServiceHistograms::toJson() const {
  json::Value Obj = json::Value::object();
  Obj.set("route", Route.toJson());
  Obj.set("batch_item", BatchItem.toJson());
  Obj.set("queue_wait", QueueWait.toJson());
  Obj.set("context_build", ContextBuild.toJson());
  Obj.set("initial_mapping", InitialMapping.toJson());
  Obj.set("routing_loop", RoutingLoop.toJson());
  Obj.set("verify", Verify.toJson());
  return Obj;
}

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> Lock(CounterMu);
  return Counters;
}
