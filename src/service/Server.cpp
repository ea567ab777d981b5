//===- service/Server.cpp - qlosured Unix-socket server ------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "baselines/RouterRegistry.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "route/Fidelity.h"
#include "route/InitialMapping.h"
#include "route/Verify.h"
#include "service/Metrics.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"

#include <algorithm>

using namespace qlosure;
using namespace qlosure::service;

namespace {

/// Byte budget of the raw-text alias cache. An alias costs ~200 bytes
/// and pays only while its result is cached, so this holds ~20k texts:
/// more than the default result cache keeps for all but the smallest
/// circuits.
constexpr size_t AliasCacheBytes = 4ull << 20;

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

InflightTable::Outcome failed(const char *Code, std::string Message) {
  InflightTable::Outcome O;
  O.ErrorCode = Code;
  O.ErrorMessage = std::move(Message);
  return O;
}

/// A leader-failure outcome for the followers coalesced onto it: the
/// leader's own error code, with the message marking that the failure
/// was inherited (docs/PROTOCOL.md documents the semantics).
InflightTable::Outcome coalescedFailure(const InflightTable::Outcome &O) {
  return failed(O.ErrorCode, formatString("coalesced leader failed: %s",
                                          O.ErrorMessage.c_str()));
}

/// The outcome of a route whose token fired.
InflightTable::Outcome cancelledOutcome(const CancellationToken &Token) {
  if (Token.reason() == CancellationToken::Reason::DeadlineExceeded)
    return failed(errc::DeadlineExceeded, "deadline expired mid-route");
  return failed(errc::Cancelled, "request cancelled");
}

/// Why the scheduler refused a submission: one job, or the \p BatchJobs
/// jobs of a whole batch.
InflightTable::Outcome rejected(bool Stopping, size_t BatchJobs) {
  if (Stopping)
    return failed(errc::ShuttingDown, "server is shutting down");
  return failed(errc::QueueFull,
                BatchJobs ? formatString("scheduler queue lacks capacity for "
                                         "%zu batch items, retry later",
                                         BatchJobs)
                          : "scheduler queue is full, retry later");
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
// Connection and Session
//===----------------------------------------------------------------------===//

/// The core's writer plus this connection's in-flight sessions by id (one
/// namespace: a live batch id cannot be reused by a route and vice
/// versa). Only the connection thread inserts (ids are connection-scoped
/// and requests on one connection are read serially); completions release
/// from any thread, so the mutex arbitrates.
struct Server::Connection : LineConnection {
  using LineConnection::LineConnection;

  std::mutex JobsMu;
  std::map<std::string, std::shared_ptr<Session>> InFlight;

  std::shared_ptr<Session> find(const std::string &Id) {
    std::lock_guard<std::mutex> Lock(JobsMu);
    auto It = InFlight.find(Id);
    return It == InFlight.end() ? nullptr : It->second;
  }

  /// Every session frees its id here, *before* its final frame is
  /// written, so a client that has read the final response may
  /// immediately reuse the id.
  void release(const std::string &Id) {
    if (Id.empty())
      return;
    std::lock_guard<std::mutex> Lock(JobsMu);
    InFlight.erase(Id);
  }
};

/// Shared by the connection thread (triage, inline answers, cancels) and
/// the workers running the session's items. Per-item slots are written by
/// exactly one thread each (whoever completes that item), and the
/// Remaining countdown sequences those writes before the summary
/// sender's reads — no per-item locking needed.
struct Server::Session {
  std::shared_ptr<Connection> Conn;
  std::string Id;
  /// A `route`: one item, answered with a route frame instead of a
  /// `batch_item` frame and a summary.
  bool IsRoute = false;
  /// The request's parameters minus its QASM.
  RouteRequest Params;
  std::shared_ptr<const PooledBackend> Backend;
  std::chrono::steady_clock::time_point Deadline;
  /// Arrival: the epoch of every item trace.
  Trace::Clock::time_point Start;
  /// Hand-off to the scheduler, where queue wait begins. Written before
  /// any submission, which publishes it to the workers.
  Trace::Clock::time_point SubmitTime;
  /// Items still unfinished; the decrement that reaches zero owns
  /// releasing a batch's id and sending its summary.
  std::atomic<size_t> Remaining{0};
  /// Per item, in request order: the client label echoed in frames, and
  /// the terse outcome ("ok" or an error code) the summary reports.
  std::vector<std::string> Names;
  std::vector<std::string> Status;
  /// (ticket, item index) of every item that reached the scheduler or a
  /// flight. Only the connection thread touches it (submission, cancel
  /// and the disconnect sweep all run there), so unsynchronized.
  std::vector<std::pair<std::shared_ptr<JobTicket>, size_t>> Tickets;
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

Server::~Server() { stop(); }

Status Server::start() {
  if (started())
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

  Inflight = std::make_unique<InflightTable>();
  SchedulerOptions SchedOpts;
  SchedOpts.Workers = Options.Workers;
  SchedOpts.QueueCapacity = Options.QueueCapacity;
  Workers = std::make_unique<Scheduler>(SchedOpts);
  Uptime.reset();
  return serve(Options.Listen, Options.MaxRequestBytes);
}

void Server::drain() {
  // Drain the scheduler while every connection's write side is still
  // intact: each pending route reaches its completion path and its final
  // response actually reaches the client — the exactly-one-final-response
  // guarantee holds across shutdown. New submissions are already
  // rejected (stopping() answers shutting_down).
  Workers->shutdown();
  // Every leader has now completed (drained jobs complete their flights
  // on the way out), so the coalescing table is normally empty; drain
  // the stragglers with a structured error while the writers still work
  // — no follower is ever left without its final response.
  Inflight->drain(failed(errc::ShuttingDown, "server is shutting down"));
  if (Store)
    Store->flush();
}

std::shared_ptr<LineConnection> Server::accepted(int Fd) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Connections;
  }
  return std::make_shared<Connection>(Fd);
}

void Server::disconnected(const std::shared_ptr<LineConnection> &Base) {
  auto &Conn = static_cast<Connection &>(*Base);
  std::vector<std::shared_ptr<Session>> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Conn.JobsMu);
    for (const auto &Entry : Conn.InFlight)
      Orphans.push_back(Entry.second);
  }
  // A dropped pipelined connection could otherwise pin the whole pool on
  // dead work. The frames degrade to no-ops on the closed writer; a
  // leader's followers on other connections still get their answer.
  for (const std::shared_ptr<Session> &S : Orphans)
    cancelSession(*S, /*Dropped=*/true);
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

void Server::sendError(LineConnection &Conn, const char *Op,
                       const std::string &Id, const char *Code,
                       const std::string &Message) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Errors;
  }
  Conn.send(formatErrorResponse(Op, Id, Code, Message));
}

void Server::handleLine(const std::shared_ptr<LineConnection> &Base,
                        const std::string &Line) {
  auto Conn = std::static_pointer_cast<Connection>(Base);
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
    // The ack is written before the stop request, or teardown could
    // sever the connection ahead of it.
    Conn->send(formatShutdownResponse(Req.Id));
    requestStop();
    return;
  case Op::Cancel:
    handleCancel(*Conn, Req);
    return;
  case Op::Route:
  case Op::Batch:
    handleRequest(Conn, Req);
    return;
  }
  sendError(*Conn, "unknown", Req.Id, errc::BadRequest, "unhandled op");
}

void Server::handleCancel(Connection &Conn, const Request &Req) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.CancelRequests;
  }
  // An unknown or finished id is an idempotent no-op. A batch's summary
  // still arrives last through its countdown, tallying the mix of
  // completed and cancelled items.
  std::shared_ptr<Session> S = Conn.find(Req.Id);
  bool Live = S && cancelSession(*S, /*Dropped=*/false);
  Conn.send(formatCancelResponse(Req.Id, Live));
}

bool Server::cancelSession(Session &S, bool Dropped) {
  const char *Why = !S.IsRoute ? "item cancelled while queued"
                    : Dropped  ? "leader connection dropped"
                               : "request cancelled while queued";
  bool AnyLive = false;
  for (const auto &[Ticket, Index] : S.Tickets) {
    switch (Workers->cancel(Ticket)) {
    case JobTicket::State::Queued:
      // Claimed unrun (a queued job, or a follower not yet answered):
      // this thread owns reporting. An item leading a flight takes its
      // followers' answers with it, as a structured error; a follower
      // leads nothing, so the call is a no-op for it.
      AnyLive = true;
      Inflight->completeByLeader(
          Ticket, coalescedFailure(failed(errc::Cancelled, Why)));
      // A dropped route has no reader left for its final, so it is not
      // answered (or counted as an error); releasing its id still breaks
      // the Connection -> Session -> Connection cycle.
      if (Dropped && S.IsRoute)
        S.Conn->release(S.Id);
      else
        finishItem(S, Index, failed(errc::Cancelled, Why));
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
  if (!isBackendName(Name))
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
  if (stopping()) {
    sendError(Conn, Op, Req.Id, errc::ShuttingDown, "server is shutting down");
    return nullptr;
  }
  if (!Req.Id.empty() && Conn.find(Req.Id)) {
    sendError(Conn, Op, Req.Id, errc::BadRequest,
              formatString("id \"%s\" is already in flight on this "
                           "connection",
                           Req.Id.c_str()));
    return nullptr;
  }
  if (!isRouterName(Route.Mapper)) {
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

void Server::handleRequest(const std::shared_ptr<Connection> &Conn,
                           const Request &Req) {
  const bool IsRoute = Req.TheOp == Op::Route;
  const char *OpName = IsRoute ? "route" : "batch";
  const auto Start = Trace::Clock::now();
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    if (IsRoute) {
      ++Counters.RouteRequests;
    } else {
      ++Counters.BatchRequests;
      Counters.BatchItems += Req.Items.size();
    }
  }
  std::shared_ptr<const PooledBackend> Backend = admit(*Conn, OpName, Req);
  if (!Backend)
    return;

  const size_t Total = IsRoute ? 1 : Req.Items.size();
  auto S = std::make_shared<Session>();
  S->Conn = Conn;
  S->Id = Req.Id;
  S->IsRoute = IsRoute;
  S->Params = withoutQasm(Req.Route);
  // Progress streaming is a `route` feature: a batch already streams one
  // frame per item.
  S->Params.Progress = IsRoute && S->Params.Progress && !S->Id.empty();
  S->Backend = Backend;
  S->Deadline =
      requestDeadline(Req.Route.TimeoutMs, Options.DefaultTimeoutSeconds);
  S->Start = Start;
  S->Remaining.store(Total);
  S->Names.resize(Total);
  S->Status.resize(Total);
  for (size_t I = 0; I < Req.Items.size(); ++I)
    S->Names[I] = Req.Items[I].Name;

  // Triage every item before anything is enqueued or any frame is sent:
  // the submission below is all-or-nothing, and a rejected request must
  // emit no item frames at all.
  struct Pending {
    size_t Index;
    Triage Item;
    std::shared_ptr<Trace> T;
    std::shared_ptr<JobTicket> Ticket;
  };
  std::vector<Pending> Inline, Candidates;
  std::vector<SchedulerJob> Jobs;
  std::vector<std::shared_ptr<JobTicket>> Leaders; // Parallels Jobs.
  std::vector<size_t> JobIndex; // Jobs[J] routes item JobIndex[J].
  for (size_t I = 0; I < Total; ++I) {
    // A traced item carries one span recorder from arrival to its frame;
    // batch items correlate as "<trace id or batch id>-<index>".
    std::shared_ptr<Trace> T;
    if (S->Params.Trace) {
      std::string TraceId = S->Params.TraceId;
      if (!IsRoute)
        TraceId = formatString("%s-%zu",
                               (TraceId.empty() ? S->Id : TraceId).c_str(), I);
      T = std::make_shared<Trace>();
      T->reset(TraceId.empty() ? generateTraceId() : TraceId, Start);
    }
    Triage Item = triage(IsRoute ? Req.Route.Qasm : Req.Items[I].Qasm,
                         *Backend, S->Params, T.get());
    if (Item.ErrorCode || Item.Cached) {
      Inline.push_back({I, std::move(Item), std::move(T), nullptr});
      continue;
    }
    // Leading is claimed now, so that a duplicate triaged later sees the
    // flight and coalesces instead of routing twice. The flights are
    // failed if the submission below is rejected.
    auto Ticket = std::make_shared<JobTicket>();
    if (Inflight->lead(Item.ResultKey, Ticket)) {
      Jobs.push_back(makeJob(S, I, std::move(Item), std::move(T)));
      JobIndex.push_back(I);
      Leaders.push_back(std::move(Ticket));
    } else {
      // An identical request is in flight: a foreign one, or an earlier
      // item of this one. Attaching now could deliver this item's frame
      // before the submission decision, so it attaches after it.
      Candidates.push_back({I, std::move(Item), std::move(T),
                            std::move(Ticket)});
    }
  }

  // Registered before submission so a completing worker's release always
  // finds the entry; no cancel can slip in between, as this connection's
  // requests are read serially.
  if (!S->Id.empty()) {
    std::lock_guard<std::mutex> Lock(Conn->JobsMu);
    Conn->InFlight[S->Id] = S;
  }
  S->SubmitTime = Trace::Clock::now();
  if (!Jobs.empty()) {
    std::vector<std::shared_ptr<JobTicket>> Tickets =
        Workers->trySubmitBatch(std::move(Jobs), Leaders);
    if (Tickets.empty()) {
      // Nothing ran and nothing was sent: one error response covers the
      // whole request. The flights claimed at triage die with it, so a
      // foreign follower that attached meanwhile gets the rejection.
      Outcome Refusal = rejected(stopping(), IsRoute ? 0 : JobIndex.size());
      for (const std::shared_ptr<JobTicket> &Ticket : Leaders)
        Inflight->completeByLeader(Ticket, coalescedFailure(Refusal));
      Conn->release(S->Id);
      sendError(*Conn, OpName, S->Id, Refusal.ErrorCode,
                Refusal.ErrorMessage);
      return;
    }
    for (size_t J = 0; J < Tickets.size(); ++J)
      S->Tickets.emplace_back(std::move(Tickets[J]), JobIndex[J]);
  }

  // The request is committed: candidates attach now. One whose flight
  // resolved since triage is served from the result cache, or — when the
  // flight failed and left no result — routed after all. The follower's
  // ticket doubles as its claim token: its cancel and deadline work
  // through the same paths as a queued job's, without touching the
  // leader.
  for (Pending &C : Candidates) {
    for (;;) {
      InflightTable::Follower F;
      F.Ticket = C.Ticket;
      F.Deadline = S->Deadline;
      F.Deliver = [this, S, I = C.Index](const Outcome &O) {
        finishItem(*S, I, O, Answer::Coalesced);
      };
      if (Inflight->tryAttach(C.Item.ResultKey, std::move(F))) {
        {
          std::lock_guard<std::mutex> Lock(CounterMu);
          ++Counters.Coalesced;
        }
        S->Tickets.emplace_back(C.Ticket, C.Index);
        break;
      }
      if ((C.Item.Cached = lookupResult(C.Item.ResultKey))) {
        Inline.push_back(std::move(C));
        break;
      }
      if (Inflight->lead(C.Item.ResultKey, C.Ticket)) {
        if (Workers->trySubmit(makeJob(S, C.Index, C.Item, C.T), C.Ticket)) {
          S->Tickets.emplace_back(C.Ticket, C.Index);
        } else {
          Outcome Refusal = rejected(stopping(), 0);
          Inflight->completeByLeader(C.Ticket, coalescedFailure(Refusal));
          finishItem(*S, C.Index, Refusal);
        }
        break;
      }
      // Another identical request took the lead between the failed
      // attach and the failed lead; retry the attach.
    }
  }

  // Inline answers go out only now, after the all-or-nothing decision.
  // Workers may already be streaming items — fine; a batch summary still
  // waits for these, because their countdown slots are ours.
  for (Pending &P : Inline) {
    if (P.Item.ErrorCode) {
      finishItem(*S, P.Index,
                 failed(P.Item.ErrorCode, std::move(P.Item.ErrorMessage)));
      continue;
    }
    Outcome Hit;
    Hit.Ok = true;
    Hit.Stats = statsFromCached(*P.Item.Cached);
    Hit.Cached = std::move(P.Item.Cached);
    finishItem(*S, P.Index, Hit, Answer::CacheHit, P.T.get());
  }
}

SchedulerJob Server::makeJob(const std::shared_ptr<Session> &S,
                             size_t Index, Triage Item,
                             std::shared_ptr<Trace> T) {
  // Every outcome of the job lands here. Followers are delivered first:
  // the leader's possibly-slow writer must not delay their (other
  // connections') responses.
  auto Complete = [this, S, Index, Key = Item.ResultKey](const Outcome &O,
                                                         Trace *Tr) {
    Inflight->complete(Key, O.Ok ? O : coalescedFailure(O));
    finishItem(*S, Index, O, Answer::Routed, Tr);
  };
  SchedulerJob Job;
  Job.Deadline = S->Deadline;
  Job.OnExpired = [Complete, Noun = S->IsRoute ? "request" : "item"] {
    Complete(failed(errc::DeadlineExceeded,
                    formatString("deadline passed before a worker picked "
                                 "the %s up",
                                 Noun)),
             nullptr);
  };
  // The worker captures everything by value or shared ownership: the
  // triaged circuit, the session (connection writer, pooled backend, and
  // the request parameters minus the raw QASM source).
  Job.Run = [this, S, Item = std::move(Item), T = std::move(T),
             Complete](RoutingScratch &Scratch, CancellationToken &Cancel) {
    const auto Pickup = Trace::Clock::now();
    Histos.QueueWait.recordNs(spanNs(S->SubmitTime, Pickup));
    if (T)
      T->add("queue_wait", S->SubmitTime, Pickup);
    std::function<void()> BeforeRoute;
    if (S->Params.Progress) {
      // Stream ~20 progress events per route, floored so small circuits
      // do not flood the connection. Installed only right before the
      // main routing pass — after the bidirectional derive passes, which
      // route the circuit internally and would otherwise exhaust the
      // throttle (and mislead the client) before the real route begins.
      // The sink holds the connection, not the session: the session owns
      // the ticket that owns the sink.
      size_t Step = std::max<size_t>(Item.Logical->size() / 20, 256);
      BeforeRoute = [&Cancel, Conn = S->Conn, Id = S->Id, Step] {
        Cancel.enableProgress(
            [Conn, Id](size_t Done, size_t Total) {
              Conn->send(formatProgressEvent(Id, Done, Total));
            },
            Step);
      };
    }
    Outcome O = executeRoute(Item, *S->Backend, S->Params, Scratch, Cancel,
                             BeforeRoute, T.get());
    const auto Done = Trace::Clock::now();
    if (!S->IsRoute)
      Histos.BatchItem.recordNs(spanNs(Pickup, Done));
    double TotalMs = spanNs(S->Start, Done) / 1e6;
    if (Options.SlowRequestMs > 0 && TotalMs >= Options.SlowRequestMs)
      logSlowRequest(S->IsRoute ? "route" : "batch_item", S->Id, S->Params,
                     TotalMs, Options.SlowRequestMs, T.get(), Done);
    Complete(O, T.get());
  };
  return Job;
}

void Server::finishItem(Session &S, size_t Index, const Outcome &O,
                        Answer How, Trace *T) {
  const auto Now = Trace::Clock::now();
  // A coalesced answer is the leader's, so it carries no trace.
  json::Value TraceJson;
  const bool Traced = T && O.Ok && How != Answer::Coalesced;
  if (Traced) {
    if (How == Answer::CacheHit)
      T->addNs("result_cache_hit", T->sinceEpochNs(Now), 0);
    TraceJson = T->toJson(Now);
  }
  const bool Hit = How == Answer::CacheHit;
  const bool Coalesced = How == Answer::Coalesced;
  const RouteRequest &P = S.Params;
  if (S.IsRoute) {
    Histos.Route.recordNs(spanNs(S.Start, Now));
    S.Conn->release(S.Id);
    if (!O.Ok)
      sendError(*S.Conn, "route", S.Id, O.ErrorCode, O.ErrorMessage);
    else
      S.Conn->send(formatRouteResponse(
          S.Id, P.Mapper, P.Backend, O.Stats, O.ContextHit, Hit,
          O.Cached->RoutedQasm, P.IncludeQasm, Traced ? &TraceJson : nullptr,
          Coalesced));
    return;
  }
  S.Conn->send(
      O.Ok ? formatBatchItemResult(S.Id, Index, S.Names[Index], P.Mapper,
                                   P.Backend, O.Stats, O.ContextHit, Hit,
                                   O.Cached->RoutedQasm, P.IncludeQasm,
                                   Traced ? &TraceJson : nullptr, Coalesced)
           : formatBatchItemError(S.Id, Index, S.Names[Index], O.ErrorCode,
                                  O.ErrorMessage));
  S.Status[Index] = O.Ok ? "ok" : O.ErrorCode;
  // The fetch_sub sequences this thread's Status write (and its already-
  // sent item frame) before the summary sender's reads, and the writer
  // mutex orders the frames themselves — so the summary is always last.
  if (S.Remaining.fetch_sub(1) == 1) {
    S.Conn->release(S.Id);
    S.Conn->send(formatBatchSummaryResponse(S.Id, P.Mapper, P.Backend,
                                            S.Names, S.Status));
  }
}

Server::Outcome
Server::executeRoute(const Triage &Item, const PooledBackend &Backend,
                     const RouteRequest &Params, RoutingScratch &Scratch,
                     CancellationToken &Cancel,
                     const std::function<void()> &BeforeRoute, Trace *T) {
  if (Cancel.cancelled())
    return cancelledOutcome(Cancel);
  const Circuit &Logical = *Item.Logical;
  std::unique_ptr<Router> Mapper =
      makeServiceRouter(Params.Mapper, Params.ErrorAware, Params.Affine);
  CacheKey ContextKey{Item.CircuitFp, Backend.Fingerprint};
  Outcome Out;
  const auto CtxStart = Trace::Clock::now();
  int CtxSpan = T ? T->begin("context_build") : -1;
  auto Bundle = Contexts.getOrBuild(
      ContextKey,
      [&] { return CachedContext::build(Item.Logical, Backend.Graph, T); },
      &Out.ContextHit);
  if (T)
    T->end(CtxSpan);
  Histos.ContextBuild.recordNs(spanNs(CtxStart, Trace::Clock::now()));
  const RoutingContext &Ctx = Bundle->context();
  if (!Ctx.valid())
    return failed(errc::InvalidCircuit, Ctx.status().message());
  const auto InitStart = Trace::Clock::now();
  int InitSpan = T ? T->begin("initial_mapping") : -1;
  QubitMapping Initial =
      Params.Bidirectional
          ? deriveBidirectionalMapping(*Mapper, Ctx, 1, &Scratch, &Cancel)
          : Ctx.identityMapping();
  if (T)
    T->end(InitSpan);
  Histos.InitialMapping.recordNs(spanNs(InitStart, Trace::Clock::now()));
  if (Cancel.cancelled())
    return cancelledOutcome(Cancel);
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
  if (Result.Cancelled)
    return cancelledOutcome(Cancel);
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
  if (!Check.Ok)
    return failed(errc::VerifyFailed,
                  formatString("routing failed verification: %s",
                               Check.Message.c_str()));
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

  Out.Ok = true;
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
