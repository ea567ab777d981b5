//===- service/ShardRouter.cpp - Consistent-hash fleet router ------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ShardRouter.h"

#include "service/Client.h"
#include "service/Metrics.h"
#include "service/SocketIO.h"
#include "support/Fingerprint.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

//===----------------------------------------------------------------------===//
// HashRing
//===----------------------------------------------------------------------===//

void HashRing::build(const std::vector<std::string> &ShardAddresses,
                     unsigned VNodes) {
  NumShards = ShardAddresses.size();
  Ring.clear();
  Ring.reserve(NumShards * VNodes);
  for (size_t S = 0; S < NumShards; ++S) {
    // Ring points hash the shard's *address*, not its list position, so
    // reordering the shard list moves no keys.
    uint64_t Seed = fingerprintString(ShardAddresses[S]);
    for (unsigned V = 0; V < VNodes; ++V)
      Ring.emplace_back(hashCombine(Seed, V), static_cast<uint32_t>(S));
  }
  std::sort(Ring.begin(), Ring.end());
}

int HashRing::pick(uint64_t Key, const std::vector<char> &Alive) const {
  if (Ring.empty())
    return -1;
  auto It = std::lower_bound(
      Ring.begin(), Ring.end(), Key,
      [](const std::pair<uint64_t, uint32_t> &Point, uint64_t K) {
        return Point.first < K;
      });
  for (size_t Tried = 0; Tried < Ring.size(); ++Tried, ++It) {
    if (It == Ring.end())
      It = Ring.begin();
    uint32_t Shard = It->second;
    if (Shard < Alive.size() && Alive[Shard])
      return static_cast<int>(Shard);
  }
  return -1;
}

//===----------------------------------------------------------------------===//
// Connection: client writer + per-shard upstreams + in-flight table
//===----------------------------------------------------------------------===//

namespace {

/// Per-shard fetch/ping I/O bound (connect + response) in seconds.
constexpr double ShardTimeoutSeconds = 5.0;

/// Frame triage for upstream traffic. Response objects are built with
/// "ok" first and event frames with "event" first (json::Value preserves
/// insertion order), so a prefix check settles every daemon-built frame;
/// the full parse is the fallback for anything unexpected.
bool isEventFrame(const std::string &Line) {
  if (Line.rfind("{\"event\":", 0) == 0)
    return true;
  if (Line.rfind("{\"ok\":", 0) == 0)
    return false;
  json::ParseResult Parsed = json::parse(Line);
  return Parsed.Ok && Parsed.V.isObject() &&
         Parsed.V.get("event") != nullptr;
}

int64_t nsBetween(std::chrono::steady_clock::time_point From,
                  std::chrono::steady_clock::time_point To) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
      .count();
}

/// One span record in the wire trace layout (support/Trace.h toJson).
void pushSpan(json::Value &Spans, const char *Name, int64_t StartNs,
              int64_t DurNs, int Depth) {
  json::Value S = json::Value::object();
  S.set("name", std::string(Name));
  S.set("start_us", static_cast<double>(StartNs / 1000));
  S.set("dur_us", static_cast<double>((DurNs < 0 ? 0 : DurNs) / 1000));
  S.set("depth", static_cast<double>(Depth));
  Spans.push(std::move(S));
}

} // namespace

struct RouterServer::Connection : LineConnection {
  Connection(int Fd, size_t NumShards)
      : LineConnection(Fd), Upstreams(NumShards) {}
  ~Connection() override {
    for (Upstream &Up : Upstreams)
      if (Up.Fd >= 0)
        ::close(Up.Fd);
  }

  /// One lazily-opened upstream per shard, owned by this client
  /// connection (per-connection upstreams keep the daemon's
  /// connection-scoped id namespace aligned with the client's).
  ///
  /// Locking: `Up` and `AnonOps` are guarded by the connection Mu. `Fd`
  /// is written under Mu *and* SendMu together and may be read under
  /// either — so the write path (SendMu) always sees the live socket
  /// and a reconnect can never close a descriptor out from under a
  /// concurrent sendAll.
  struct Upstream {
    int Fd = -1;
    bool Up = false;
    std::thread Forwarder;
    std::mutex SendMu;
    /// Op names of forwarded id-less requests, FIFO: uncorrelatable by
    /// design, these get `unavailable` frames if the upstream dies. Only
    /// the connection's reader thread queues them, one at a time.
    std::deque<std::string> AnonOps;
  };

  static constexpr size_t ParkedShard = ~size_t(0);

  /// One id-carrying request forwarded and not yet finally answered.
  /// Shard == ParkedShard while it waits in the retry queue.
  struct Tracked {
    size_t Shard = 0;
    std::string OpName;
    std::string Line;
    uint64_t Key = 0;
    unsigned Attempts = 0;
    /// Router-side trace state. TraceId non-empty marks a traced
    /// request; Arrival anchors every router span and is set for all
    /// tracked requests (it feeds the forward-latency histogram too).
    std::string TraceId;
    std::chrono::steady_clock::time_point Arrival{};
    /// Last successful handoff to a shard: upstream_wait starts here.
    std::chrono::steady_clock::time_point SentAt{};
    /// When the request was parked for a queue_full backoff (zero when
    /// not currently parked); total parked time accumulates in ParkedNs
    /// across retries.
    std::chrono::steady_clock::time_point ParkedAt{};
    int64_t ParkedNs = 0;
    /// Accumulated ring-lookup/registration/handoff time across every
    /// dispatch attempt.
    int64_t DispatchNs = 0;
  };

  std::mutex Mu; ///< Guards InFlight and the upstream Up/AnonOps state.
  std::map<std::string, Tracked> InFlight;
  std::vector<Upstream> Upstreams;
  /// Handles of forwarders whose upstream was replaced after death;
  /// joined at connection teardown.
  std::vector<std::thread> DeadForwarders;

  /// Set by the reader thread before it severs the upstreams, so the
  /// forwarders' death upcalls know this is teardown, not shard failure.
  std::atomic<bool> TearingDown{false};
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

RouterServer::RouterServer(RouterOptions Options)
    : Options(std::move(Options)) {}

RouterServer::~RouterServer() { stop(); }

Status RouterServer::start() {
  if (started())
    return Status::error("router already started");
  if (Options.Shards.empty())
    return Status::error("router needs at least one --shard address");
  for (const std::string &Addr : Options.Shards) {
    Endpoint Ep;
    if (Status S = parseEndpoint(Addr, Ep); !S.ok())
      return S;
  }

  if (!Options.MetricsListen.empty()) {
    Endpoint MetricsEp;
    Status S = parseEndpoint(Options.MetricsListen, MetricsEp);
    if (S.ok())
      S = MetricsAcceptor.listen(MetricsEp, 16);
    if (!S.ok())
      return S;
  }

  Ring.build(Options.Shards, std::max(1u, Options.VirtualNodes));
  // Optimistic until the first health pass: a request to a dead shard
  // fails fast and marks it down anyway.
  Alive.assign(Options.Shards.size(), 1);

  Uptime.reset();
  if (Status S = serve(Options.Listen, DefaultMaxRequestBytes); !S.ok()) {
    MetricsAcceptor.close();
    return S;
  }
  HealthThread = std::thread([this] { healthLoop(); });
  RetryThread = std::thread([this] { retryLoop(); });
  if (MetricsAcceptor.listening())
    MetricsThread = std::thread([this] { metricsHttpLoop(); });
  return Status::success();
}

void RouterServer::drain() {
  // The same wake-join-close order as the protocol listener.
  MetricsAcceptor.shutdown();
  if (MetricsThread.joinable())
    MetricsThread.join();
  MetricsAcceptor.close();

  RetryCv.notify_all();
  if (RetryThread.joinable())
    RetryThread.join();
  if (HealthThread.joinable())
    HealthThread.join();
}

std::string RouterServer::metricsBoundAddress() const {
  return MetricsAcceptor.listening() ? MetricsAcceptor.endpoint().str()
                                     : std::string();
}

std::vector<char> RouterServer::shardHealth() const {
  std::lock_guard<std::mutex> Lock(HealthMu);
  return Alive;
}

void RouterServer::markShardDown(size_t Shard) {
  std::lock_guard<std::mutex> Lock(HealthMu);
  if (Shard < Alive.size())
    Alive[Shard] = 0;
}

//===----------------------------------------------------------------------===//
// Client connections
//===----------------------------------------------------------------------===//

std::shared_ptr<LineConnection> RouterServer::accepted(int Fd) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Connections;
  }
  return std::make_shared<Connection>(Fd, Options.Shards.size());
}

void RouterServer::disconnected(const std::shared_ptr<LineConnection> &Base) {
  auto Conn = std::static_pointer_cast<Connection>(Base);
  Conn->TearingDown.store(true);

  // Sever the upstreams; their forwarders observe EOF, see TearingDown,
  // and exit without re-dispatching into a closed client.
  std::vector<std::thread> Forwarders;
  {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    for (Connection::Upstream &Up : Conn->Upstreams) {
      if (Up.Fd >= 0)
        ::shutdown(Up.Fd, SHUT_RDWR);
      if (Up.Forwarder.joinable())
        Forwarders.push_back(std::move(Up.Forwarder));
    }
    Forwarders.insert(Forwarders.end(),
                      std::make_move_iterator(Conn->DeadForwarders.begin()),
                      std::make_move_iterator(Conn->DeadForwarders.end()));
    Conn->DeadForwarders.clear();
  }
  for (std::thread &T : Forwarders)
    T.join();

  // Drop this connection's parked retries.
  std::lock_guard<std::mutex> Lock(RetryMu);
  RetryQueue.erase(std::remove_if(RetryQueue.begin(), RetryQueue.end(),
                                  [&](const PendingRetry &R) {
                                    auto Owner = R.Conn.lock();
                                    return !Owner || Owner == Conn;
                                  }),
                   RetryQueue.end());
}

//===----------------------------------------------------------------------===//
// Upstream management
//===----------------------------------------------------------------------===//

void RouterServer::spawnForwarder(const std::shared_ptr<Connection> &Conn,
                                  size_t Shard, int Fd) {
  // Caller holds Conn->Mu; the previous forwarder (if any) has already
  // been retired to DeadForwarders.
  Conn->Upstreams[Shard].Forwarder = std::thread([this, Conn, Shard, Fd] {
    std::string Pending;
    char Buffer[65536];
    while (true) {
      ssize_t N = recvSome(Fd, Buffer, sizeof(Buffer));
      if (N <= 0)
        break;
      Pending.append(Buffer, static_cast<size_t>(N));
      std::string Frame;
      while (popLine(Pending, Frame)) {
        if (Frame.empty())
          continue;
        if (isEventFrame(Frame))
          Conn->send(Frame); // progress/batch_item pass-through.
        else
          onShardFinal(Conn, Shard, Frame);
      }
    }
    onUpstreamDown(Conn, Shard);
  });
}

bool RouterServer::sendToShard(const std::shared_ptr<Connection> &Conn,
                               size_t Shard, const std::string &Line,
                               const std::string *AnonOp) {
  Connection::Upstream &Up = Conn->Upstreams[Shard];
  {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    // Teardown sets TearingDown *before* taking Mu to collect the
    // forwarder handles, so under Mu this check is authoritative: no new
    // forwarder can be spawned after the collection, which is what keeps
    // every thread joined at destruction.
    if (Conn->TearingDown.load())
      return false;
    if (!Up.Up) {
      Endpoint ShardEp;
      parseEndpoint(Options.Shards[Shard], ShardEp); // Validated in start().
      int NewFd = -1;
      if (!connectEndpoint(ShardEp, NewFd).ok())
        return false;
      // The previous forwarder (its upstream died — Up only goes false
      // in onUpstreamDown) has left its read loop; retire its handle
      // and swap the socket under both locks so no concurrent writer
      // can see a closed descriptor.
      if (Up.Forwarder.joinable())
        Conn->DeadForwarders.push_back(std::move(Up.Forwarder));
      {
        std::lock_guard<std::mutex> SendLock(Up.SendMu);
        if (Up.Fd >= 0)
          ::close(Up.Fd);
        Up.Fd = NewFd;
      }
      Up.Up = true;
      spawnForwarder(Conn, Shard, NewFd);
    }
    // An id-less final is matched to its request by order alone, so the
    // request joins the queue of the upstream that carries it before its
    // bytes go out: its final can never arrive first.
    if (AnonOp)
      Up.AnonOps.push_back(*AnonOp);
  }
  bool Sent;
  {
    std::lock_guard<std::mutex> SendLock(Up.SendMu);
    Sent = Up.Fd >= 0 && sendAll(Up.Fd, Line + "\n", /*MaxSeconds=*/30.0);
  }
  if (Sent || !AnonOp)
    return Sent;
  // Take the request back to spill it, unless the upstream's death has
  // already answered it (onUpstreamDown empties the queue). No request
  // was queued after ours, so ours is the last entry while it is queued.
  std::lock_guard<std::mutex> Lock(Conn->Mu);
  if (Up.AnonOps.empty())
    return true;
  Up.AnonOps.pop_back();
  return false;
}

void RouterServer::onShardFinal(const std::shared_ptr<Connection> &Conn,
                                size_t Shard, const std::string &Line) {
  // Correlation needs the real members, not the prefix heuristic.
  json::ParseResult Parsed = json::parse(Line);
  std::string Id, OpName;
  bool Ok = true;
  std::string ErrorCode;
  if (Parsed.Ok && Parsed.V.isObject()) {
    if (const json::Value *IdV = Parsed.V.get("id"); IdV && IdV->isString())
      Id = IdV->asString();
    if (const json::Value *OpV = Parsed.V.get("op"); OpV && OpV->isString())
      OpName = OpV->asString();
    if (const json::Value *OkV = Parsed.V.get("ok"); OkV && OkV->isBool())
      Ok = OkV->asBool();
    if (const json::Value *ErrV = Parsed.V.get("error");
        ErrV && ErrV->isObject())
      if (const json::Value *CodeV = ErrV->get("code");
          CodeV && CodeV->isString())
        ErrorCode = CodeV->asString();
  }

  if (Id.empty()) {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    Connection::Upstream &Up = Conn->Upstreams[Shard];
    if (!Up.AnonOps.empty())
      Up.AnonOps.pop_front();
  } else {
    bool ScheduleRetry = false;
    bool Finished = false;
    Connection::Tracked Entry;
    uint64_t Key = 0;
    std::string ReqLine;
    unsigned Attempts = 0;
    {
      std::lock_guard<std::mutex> Lock(Conn->Mu);
      auto It = Conn->InFlight.find(Id);
      if (It != Conn->InFlight.end() && It->second.OpName == OpName) {
        if (!Ok && ErrorCode == errc::QueueFull &&
            It->second.Attempts < Options.MaxRetries && !stopping()) {
          // Backpressure: park the request and try again later instead
          // of bouncing the rejection to the client.
          It->second.Shard = Connection::ParkedShard;
          ++It->second.Attempts;
          It->second.ParkedAt = std::chrono::steady_clock::now();
          ScheduleRetry = true;
          Key = It->second.Key;
          ReqLine = It->second.Line;
          Attempts = It->second.Attempts;
        } else {
          Finished = true;
          Entry = std::move(It->second);
          Conn->InFlight.erase(It);
        }
      }
      // Finals with an op mismatch (e.g. a cancel ack correlated by the
      // target's id) forward without touching the table.
    }
    if (ScheduleRetry) {
      {
        std::lock_guard<std::mutex> Lock(CounterMu);
        ++Counters.Retries;
      }
      BackoffPolicy Backoff;
      double DelayMs = Backoff.delayMs(
          Attempts - 1, hashCombine(Key, fingerprintString(Id)));
      {
        std::lock_guard<std::mutex> Lock(RetryMu);
        PendingRetry R;
        R.Due = std::chrono::steady_clock::now() +
                std::chrono::microseconds(
                    static_cast<int64_t>(DelayMs * 1000.0));
        R.Conn = Conn;
        R.Key = Key;
        R.OpName = OpName;
        R.Id = Id;
        R.Line = std::move(ReqLine);
        R.Attempts = Attempts;
        RetryQueue.push_back(std::move(R));
      }
      RetryCv.notify_all();
      return; // Swallowed; the client never sees the queue_full.
    }
    if (Finished && Entry.Arrival.time_since_epoch().count()) {
      const auto Now = std::chrono::steady_clock::now();
      int64_t TotalNs = nsBetween(Entry.Arrival, Now);
      ForwardLatency.recordNs(TotalNs);
      json::Value MergedTrace;
      bool HaveTrace = false;
      if (!Entry.TraceId.empty() && Parsed.Ok && Parsed.V.isObject()) {
        // Rebuild the client-visible trace: the router's own spans at
        // depth 0, with the daemon's spans (offsets relative to *its*
        // epoch, which begins when the shard read our forward) shifted
        // to nest inside upstream_wait one level deeper. The clocks are
        // the same host family but unsynchronized processes; anchoring
        // the daemon's epoch at our handoff time keeps every offset
        // consistent to within the socket handoff latency.
        MergedTrace = json::Value::object();
        MergedTrace.set("trace_id", Entry.TraceId);
        json::Value Spans = json::Value::array();
        pushSpan(Spans, "ring_lookup", 0, Entry.DispatchNs, 0);
        if (Entry.ParkedNs > 0)
          pushSpan(Spans, "parked_retry", Entry.DispatchNs, Entry.ParkedNs,
                   0);
        int64_t WaitStart =
            Entry.SentAt.time_since_epoch().count()
                ? nsBetween(Entry.Arrival, Entry.SentAt)
                : 0;
        pushSpan(Spans, "upstream_wait", WaitStart,
                 TotalNs - WaitStart, 0);
        if (const json::Value *ShardTrace = Parsed.V.get("trace"))
          if (const json::Value *ShardSpans = ShardTrace->get("spans");
              ShardSpans && ShardSpans->isArray())
            for (const json::Value &S : ShardSpans->items()) {
              if (!S.isObject())
                continue;
              json::Value Shifted = S;
              if (const json::Value *StartV = S.get("start_us");
                  StartV && StartV->isNumber())
                Shifted.set("start_us",
                            StartV->asNumber() + WaitStart / 1000);
              if (const json::Value *DepthV = S.get("depth");
                  DepthV && DepthV->isNumber())
                Shifted.set("depth", DepthV->asNumber() + 1);
              Spans.push(std::move(Shifted));
            }
        MergedTrace.set("spans", std::move(Spans));
        HaveTrace = true;
      }
      if (Options.SlowRequestMs > 0 &&
          TotalNs / 1e6 >= Options.SlowRequestMs &&
          log::enabled(log::Level::Warn)) {
        log::Event E(log::Level::Warn, "slow_request");
        E.str("op", OpName);
        E.str("id", Id);
        E.num("total_ms", TotalNs / 1e6);
        E.num("threshold_ms", Options.SlowRequestMs);
        E.num("shard", static_cast<double>(Shard));
        if (HaveTrace) {
          E.str("trace_id", Entry.TraceId);
          E.json("trace", MergedTrace);
        }
      }
      if (HaveTrace) {
        Parsed.V.set("trace", std::move(MergedTrace));
        Conn->send(Parsed.V.dump());
        return;
      }
    }
  }
  Conn->send(Line);
}

void RouterServer::onUpstreamDown(const std::shared_ptr<Connection> &Conn,
                                  size_t Shard) {
  std::vector<std::string> AnonOps;
  std::vector<std::pair<std::string, Connection::Tracked>> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    Connection::Upstream &Up = Conn->Upstreams[Shard];
    Up.Up = false;
    AnonOps.assign(Up.AnonOps.begin(), Up.AnonOps.end());
    Up.AnonOps.clear();
    for (auto It = Conn->InFlight.begin(); It != Conn->InFlight.end();) {
      if (It->second.Shard == Shard) {
        Orphans.emplace_back(It->first, std::move(It->second));
        It = Conn->InFlight.erase(It);
      } else {
        ++It;
      }
    }
  }
  if (Conn->TearingDown.load() || stopping())
    return; // Teardown severed the upstream; nothing to save.

  markShardDown(Shard);
  for (const std::string &OpName : AnonOps) {
    {
      std::lock_guard<std::mutex> Lock(CounterMu);
      ++Counters.Unavailable;
    }
    Conn->send(formatErrorResponse(OpName.c_str(), "", errc::Unavailable,
                                   "shard connection lost mid-request"));
  }
  for (auto &[Id, Entry] : Orphans) {
    {
      std::lock_guard<std::mutex> Lock(CounterMu);
      ++Counters.Redispatched;
    }
    // Safe to re-run elsewhere: routing is deterministic and
    // side-effect-free, and the dead shard can no longer answer.
    dispatch(Conn, Entry.Key, Entry.OpName, Id, Entry.Line, Entry.Attempts);
  }
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

void RouterServer::dispatch(const std::shared_ptr<Connection> &Conn,
                            uint64_t Key, const std::string &OpName,
                            const std::string &Id, const std::string &Line,
                            unsigned Attempts) {
  if (Conn->TearingDown.load() || !Conn->alive())
    return; // The client left; don't touch shard health on its behalf.
  const auto DispatchStart = std::chrono::steady_clock::now();
  // Trace/latency state survives spills (the entry is erased and
  // re-registered per attempt) and re-dispatches (the entry carries it
  // from the previous attempt): read it once up front. A parked request
  // being re-dispatched banks its park time here.
  std::string TraceId;
  std::chrono::steady_clock::time_point Arrival = DispatchStart;
  int64_t ParkedNs = 0;
  int64_t DispatchNs = 0;
  if (!Id.empty()) {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    auto It = Conn->InFlight.find(Id);
    if (It != Conn->InFlight.end()) {
      TraceId = It->second.TraceId;
      if (It->second.Arrival.time_since_epoch().count())
        Arrival = It->second.Arrival;
      ParkedNs = It->second.ParkedNs;
      DispatchNs = It->second.DispatchNs;
      if (It->second.ParkedAt.time_since_epoch().count()) {
        ParkedNs += nsBetween(It->second.ParkedAt, DispatchStart);
        It->second.ParkedAt = {};
        It->second.ParkedNs = ParkedNs;
      }
    }
  }
  std::vector<char> Health = shardHealth();
  for (size_t Spill = 0; Spill <= Options.Shards.size(); ++Spill) {
    int Picked = Ring.pick(Key, Health);
    if (Picked < 0)
      break;
    size_t Shard = static_cast<size_t>(Picked);
    // Register (or re-point) the tracked entry *before* the bytes go
    // out, so the final response can never race an absent entry;
    // sendToShard queues an id-less request the same way.
    if (!Id.empty()) {
      std::lock_guard<std::mutex> Lock(Conn->Mu);
      Connection::Tracked &Entry = Conn->InFlight[Id];
      Entry.Shard = Shard;
      Entry.OpName = OpName;
      Entry.Line = Line;
      Entry.Key = Key;
      Entry.Attempts = Attempts;
      Entry.TraceId = TraceId;
      Entry.Arrival = Arrival;
      Entry.ParkedNs = ParkedNs;
      Entry.DispatchNs = DispatchNs;
    }
    if (sendToShard(Conn, Shard, Line, Id.empty() ? &OpName : nullptr)) {
      if (!Id.empty()) {
        const auto Sent = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> Lock(Conn->Mu);
        auto It = Conn->InFlight.find(Id);
        if (It != Conn->InFlight.end() && It->second.Shard == Shard) {
          It->second.SentAt = Sent;
          It->second.DispatchNs =
              DispatchNs + nsBetween(DispatchStart, Sent);
        }
      }
      std::lock_guard<std::mutex> Lock(CounterMu);
      ++Counters.Forwarded;
      return;
    }
    // Could not reach the shard: unregister, mark it down, and spill to
    // the ring successor.
    if (!Id.empty()) {
      std::lock_guard<std::mutex> Lock(Conn->Mu);
      auto It = Conn->InFlight.find(Id);
      if (It != Conn->InFlight.end() && It->second.Shard == Shard)
        Conn->InFlight.erase(It);
    }
    markShardDown(Shard);
    Health[Shard] = 0;
  }
  // The unavailable frame is this request's final: make sure no stale
  // entry outlives it (handleLine pre-registers traced requests).
  if (!Id.empty()) {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    Conn->InFlight.erase(Id);
  }
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Unavailable;
  }
  sendError(*Conn, OpName.c_str(), Id, errc::Unavailable,
            "no live shard can serve the request");
}

void RouterServer::handleCancel(const std::shared_ptr<Connection> &Conn,
                                const Request &Req) {
  size_t Shard = Connection::ParkedShard;
  std::string OpName;
  bool Known = false;
  {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    auto It = Conn->InFlight.find(Req.Id);
    if (It != Conn->InFlight.end()) {
      Known = true;
      Shard = It->second.Shard;
      OpName = It->second.OpName;
      if (Shard == Connection::ParkedShard)
        Conn->InFlight.erase(It); // Cancelled straight out of the park.
    }
  }
  if (!Known) {
    // Unknown or already finished: idempotent no-op ack, mirroring the
    // daemon's own behavior.
    Conn->send(formatCancelResponse(Req.Id, false));
    return;
  }
  if (Shard == Connection::ParkedShard) {
    // The request was waiting out a queue_full backoff: it never
    // reached a shard, so the router owns both frames.
    {
      std::lock_guard<std::mutex> Lock(RetryMu);
      RetryQueue.erase(
          std::remove_if(RetryQueue.begin(), RetryQueue.end(),
                         [&](const PendingRetry &R) {
                           auto Owner = R.Conn.lock();
                           return Owner == Conn && R.Id == Req.Id;
                         }),
          RetryQueue.end());
    }
    Conn->send(formatCancelResponse(Req.Id, true));
    Conn->send(formatErrorResponse(OpName.c_str(), Req.Id, errc::Cancelled,
                                   "request cancelled while awaiting retry"));
    return;
  }
  // Owned by a live shard: forward; both the ack and the target's final
  // flow back through the normal forwarding path.
  json::Value CancelObj = json::Value::object();
  CancelObj.set("op", "cancel");
  CancelObj.set("id", Req.Id);
  if (!sendToShard(Conn, Shard, CancelObj.dump()))
    Conn->send(formatCancelResponse(Req.Id, false));
}

void RouterServer::sendError(LineConnection &Conn, const char *Op,
                             const std::string &Id, const char *Code,
                             const std::string &Message) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Errors;
  }
  Conn.send(formatErrorResponse(Op, Id, Code, Message));
}

void RouterServer::handleLine(const std::shared_ptr<LineConnection> &Base,
                              const std::string &Line) {
  auto Conn = std::static_pointer_cast<Connection>(Base);
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Requests;
  }
  RequestParse Parsed = parseRequest(Line);
  if (!Parsed.Ok) {
    sendError(*Conn, Parsed.OpName.empty() ? "unknown" : Parsed.OpName.c_str(),
              Parsed.Req.Id, Parsed.ErrorCode.c_str(), Parsed.ErrorMessage);
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
    Conn->send(formatMetricsResponse(Req.Id, metricsText()));
    return;
  case Op::Shutdown:
    // Stops the router alone: the shards are independent daemons with
    // their own operators. The ack is written before the stop request,
    // or teardown could sever the connection ahead of it.
    Conn->send(formatShutdownResponse(Req.Id));
    requestStop();
    return;
  case Op::Cancel:
    handleCancel(Conn, Req);
    return;
  case Op::Route:
  case Op::Batch:
    break;
  }

  if (stopping()) {
    sendError(*Conn, Parsed.OpName.c_str(), Req.Id, errc::ShuttingDown,
              "router is shutting down");
    return;
  }
  if (!Req.Id.empty()) {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    if (Conn->InFlight.count(Req.Id)) {
      Conn->send(formatErrorResponse(
          Parsed.OpName.c_str(), Req.Id, errc::BadRequest,
          formatString("id \"%s\" is already in flight on this connection",
                       Req.Id.c_str())));
      return;
    }
  }

  // A traced forward needs a trace id the shard will echo back: adopt
  // the client's, or mint one and inject it into the forwarded line (a
  // parse/set/dump round-trip preserves unknown members, so the shard
  // sees an otherwise-identical request). The InFlight entry is
  // pre-registered here — before dispatch — to pin Arrival at true
  // request arrival; dispatch preserves it across spill re-registration.
  std::string SendLine = Line;
  if (Req.Route.Trace && !Req.Id.empty()) {
    std::string TraceId = Req.Route.TraceId;
    if (TraceId.empty()) {
      TraceId = generateTraceId();
      if (json::ParseResult Raw = json::parse(Line);
          Raw.Ok && Raw.V.isObject()) {
        Raw.V.set("trace_id", TraceId);
        SendLine = Raw.V.dump();
      }
    }
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    Connection::Tracked &Entry = Conn->InFlight[Req.Id];
    Entry.TraceId = TraceId;
    Entry.Arrival = std::chrono::steady_clock::now();
  }
  dispatch(Conn, shardKeyForRequest(Req), Parsed.OpName, Req.Id, SendLine,
           /*Attempts=*/0);
}

//===----------------------------------------------------------------------===//
// Health, retries
//===----------------------------------------------------------------------===//

void RouterServer::healthLoop() {
  const size_t N = Options.Shards.size();
  std::vector<unsigned> Failures(N, 0);
  std::vector<std::chrono::steady_clock::time_point> NextCheck(
      N, std::chrono::steady_clock::now());
  BackoffPolicy Backoff;
  Backoff.InitialMs = Options.HealthIntervalMs;
  Backoff.MaxMs = std::max<double>(Options.HealthIntervalMs * 8.0, 2000.0);

  while (!stopping()) {
    auto Now = std::chrono::steady_clock::now();
    for (size_t S = 0; S < N && !stopping(); ++S) {
      if (Now < NextCheck[S])
        continue;
      bool Healthy = false;
      {
        Client Probe;
        if (Probe.connect(Options.Shards[S]).ok()) {
          Probe.setIoTimeout(ShardTimeoutSeconds);
          std::string Response;
          if (Probe.request("{\"op\":\"ping\"}", Response).ok())
            Healthy = Response.rfind("{\"ok\":true", 0) == 0;
        }
      }
      {
        std::lock_guard<std::mutex> Lock(HealthMu);
        Alive[S] = Healthy ? 1 : 0;
      }
      if (Healthy) {
        Failures[S] = 0;
        NextCheck[S] =
            Now + std::chrono::milliseconds(Options.HealthIntervalMs);
      } else {
        // Down shards recheck on the shared backoff policy: a daemon
        // flapping at startup is not hammered, but a recovered one is
        // noticed within the policy's MaxMs.
        ++Failures[S];
        NextCheck[S] =
            Now + std::chrono::microseconds(static_cast<int64_t>(
                      Backoff.delayMs(Failures[S],
                                      fingerprintString(Options.Shards[S])) *
                      1000.0));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::max(1u, std::min(50u, Options.HealthIntervalMs / 4))));
  }
}

void RouterServer::retryLoop() {
  std::unique_lock<std::mutex> Lock(RetryMu);
  while (!stopping()) {
    if (RetryQueue.empty()) {
      RetryCv.wait_for(Lock, std::chrono::milliseconds(200));
      continue;
    }
    auto Soonest = std::min_element(
        RetryQueue.begin(), RetryQueue.end(),
        [](const PendingRetry &A, const PendingRetry &B) {
          return A.Due < B.Due;
        });
    auto Now = std::chrono::steady_clock::now();
    if (Soonest->Due > Now) {
      // By value: wait_until reads its deadline again after waking, when
      // a push while the lock was released may have moved the queue.
      const auto Due = Soonest->Due;
      RetryCv.wait_until(Lock, Due);
      continue;
    }
    PendingRetry R = std::move(*Soonest);
    RetryQueue.erase(Soonest);
    Lock.unlock();
    if (std::shared_ptr<Connection> Conn = R.Conn.lock();
        Conn && Conn->alive() && !stopping()) {
      // Still parked? A cancel may have raced the timer.
      bool StillWanted = false;
      {
        std::lock_guard<std::mutex> CLock(Conn->Mu);
        auto It = Conn->InFlight.find(R.Id);
        StillWanted = It != Conn->InFlight.end() &&
                      It->second.Shard == Connection::ParkedShard;
      }
      if (StillWanted)
        dispatch(Conn, R.Key, R.OpName, R.Id, R.Line, R.Attempts);
    }
    Lock.lock();
  }
}

//===----------------------------------------------------------------------===//
// Stats + metrics surfaces
//===----------------------------------------------------------------------===//

std::vector<std::pair<bool, json::Value>> RouterServer::collectShardStats() {
  std::vector<std::pair<bool, json::Value>> Out(Options.Shards.size());
  std::vector<char> Health = shardHealth();
  for (size_t S = 0; S < Options.Shards.size(); ++S) {
    Out[S].first = false;
    if (!Health[S])
      continue;
    Client Probe;
    if (!Probe.connect(Options.Shards[S]).ok()) {
      markShardDown(S);
      continue;
    }
    Probe.setIoTimeout(ShardTimeoutSeconds);
    std::string Response;
    if (!Probe.request("{\"op\":\"stats\"}", Response).ok()) {
      markShardDown(S);
      continue;
    }
    json::ParseResult Parsed = json::parse(Response);
    if (!Parsed.Ok || !Parsed.V.isObject())
      continue;
    // Strip the response envelope; keep the stats payload members.
    json::Value Doc = json::Value::object();
    for (const auto &Member : Parsed.V.members())
      if (Member.first != "ok" && Member.first != "op" &&
          Member.first != "id")
        Doc.set(Member.first, Member.second);
    Out[S] = {true, std::move(Doc)};
  }
  return Out;
}

json::Value RouterServer::statsJson() {
  std::vector<std::pair<bool, json::Value>> PerShard = collectShardStats();
  std::vector<char> Health = shardHealth();

  json::Value Doc = json::Value::object();
  json::Value RouterObj = json::Value::object();
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    RouterObj.set("connections", Counters.Connections);
    RouterObj.set("requests", Counters.Requests);
    RouterObj.set("forwarded", Counters.Forwarded);
    RouterObj.set("retries", Counters.Retries);
    RouterObj.set("redispatched", Counters.Redispatched);
    RouterObj.set("unavailable", Counters.Unavailable);
    RouterObj.set("errors", Counters.Errors);
  }
  json::Value Latency = json::Value::object();
  Latency.set("forward", ForwardLatency.toJson());
  RouterObj.set("latency", std::move(Latency));
  size_t UpCount = 0;
  for (char A : Health)
    UpCount += A ? 1 : 0;
  RouterObj.set("shards_total", Options.Shards.size());
  RouterObj.set("shards_up", UpCount);
  RouterObj.set("uptime_seconds", Uptime.elapsedSeconds());
  RouterObj.set("endpoint", boundAddress());
  RouterObj.set("protocol", ProtocolVersion);
  Doc.set("router", std::move(RouterObj));

  std::vector<json::Value> LiveDocs;
  for (const auto &[Fetched, ShardDoc] : PerShard)
    if (Fetched)
      LiveDocs.push_back(ShardDoc);
  json::Value Aggregate = mergeStatsDocs(LiveDocs);
  // Numeric merging sums everything, including the per-daemon protocol
  // constant; restore the members that identify rather than count.
  if (const json::Value *ServerObj = Aggregate.get("server")) {
    json::Value Fixed = *ServerObj;
    Fixed.set("protocol", ProtocolVersion);
    Fixed.set("endpoint", boundAddress());
    Aggregate.set("server", std::move(Fixed));
  }
  Doc.set("aggregate", std::move(Aggregate));

  json::Value Shards = json::Value::array();
  for (size_t S = 0; S < Options.Shards.size(); ++S) {
    json::Value Entry = json::Value::object();
    Entry.set("index", S);
    Entry.set("address", Options.Shards[S]);
    Entry.set("up", PerShard[S].first);
    if (PerShard[S].first)
      Entry.set("stats", PerShard[S].second);
    Shards.push(std::move(Entry));
  }
  Doc.set("shards", std::move(Shards));
  return Doc;
}

std::string RouterServer::metricsText() {
  json::Value Doc = statsJson();
  std::string Out;
  // The "shards" array is skipped by the walker (arrays identify, not
  // measure); router_* and aggregate_* cover every numeric counter.
  appendPrometheusText(Out, Doc, "qlosure");
  if (const json::Value *Shards = Doc.get("shards"))
    for (const json::Value &Entry : Shards->items()) {
      const json::Value *Index = Entry.get("index");
      const json::Value *Address = Entry.get("address");
      const json::Value *UpV = Entry.get("up");
      if (!Index || !Address || !UpV)
        continue;
      std::string EscapedAddr = prometheusLabelValue(Address->asString());
      appendPrometheusText(
          Out, json::Value(UpV->asBool()), "qlosure_shard_up",
          formatString("shard=\"%lld\",address=\"%s\"",
                       static_cast<long long>(Index->asNumber()),
                       EscapedAddr.c_str()));
    }
  return Out;
}

//===----------------------------------------------------------------------===//
// Plain-HTTP /metrics responder
//===----------------------------------------------------------------------===//

void RouterServer::metricsHttpLoop() {
  while (!stopping()) {
    int Fd = MetricsAcceptor.acceptConnection();
    if (Fd < 0)
      return;
    // Scrapes are tiny and rare; serve them serially with bounded I/O.
    timeval Timeout{};
    Timeout.tv_sec = 5;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
    // Read the complete request head: scrapers send several header
    // lines (possibly across segments), and bytes left unread at close
    // time would turn the close into an RST, truncating the body on the
    // scraper's side.
    std::string Head;
    char Buffer[4096];
    while (Head.find("\r\n\r\n") == std::string::npos && Head.size() < 65536) {
      ssize_t N = recvSome(Fd, Buffer, sizeof(Buffer));
      if (N <= 0)
        break;
      Head.append(Buffer, static_cast<size_t>(N));
    }
    size_t LineEnd = Head.find("\r\n");
    std::string RequestLine =
        LineEnd == std::string::npos ? Head : Head.substr(0, LineEnd);
    std::string Response;
    if (RequestLine.rfind("GET /metrics", 0) == 0 ||
        RequestLine.rfind("GET / ", 0) == 0) {
      std::string Body = metricsText();
      Response = formatString("HTTP/1.0 200 OK\r\n"
                              "Content-Type: text/plain; version=0.0.4\r\n"
                              "Content-Length: %zu\r\n"
                              "Connection: close\r\n\r\n",
                              Body.size());
      Response += Body;
    } else {
      Response = "HTTP/1.0 404 Not Found\r\n"
                 "Content-Length: 0\r\nConnection: close\r\n\r\n";
    }
    sendAll(Fd, Response, /*MaxSeconds=*/10.0);
    // Lingering close: announce EOF, then wait (bounded by SO_RCVTIMEO)
    // for the peer's own EOF before closing, so the kernel never turns
    // our close into an RST that races the in-flight body.
    ::shutdown(Fd, SHUT_WR);
    while (recvSome(Fd, Buffer, sizeof(Buffer)) > 0)
      ;
    ::close(Fd);
  }
}
