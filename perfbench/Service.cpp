//===- perfbench/Service.cpp - In-process daemon and closed loop ---------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Service.h"

#include "Common.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

using namespace qlosure;
using namespace qlosure::service;

namespace perfbench {

namespace {

/// Upper bound on any one request; a stuck daemon fails the request
/// instead of hanging the benchmark.
constexpr double IoTimeoutSeconds = 60;

Status connectClient(Client &Conn, const std::string &Address) {
  if (Status S = Conn.connect(Address, /*RetrySeconds=*/5); !S.ok())
    return S;
  return Conn.setIoTimeout(IoTimeoutSeconds);
}

/// Runs \p Body(ClientIndex) on \p N threads and joins them.
template <typename Fn> void onThreads(unsigned N, Fn Body) {
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back(Body, I);
  for (std::thread &T : Threads)
    T.join();
}

double number(const json::Value &Doc, const char *Section, const char *Key) {
  const json::Value *S = Doc.get(Section);
  const json::Value *V = S ? S->get(Key) : nullptr;
  return V ? V->asNumber() : 0;
}

} // namespace

Status Fleet::start(unsigned Workers) {
  ServerOptions Opts;
  Opts.Listen = "tcp:127.0.0.1:0";
  Opts.Workers = Workers;
  Daemon = std::make_unique<Server>(Opts);
  if (Status S = Daemon->start(); !S.ok())
    return S;
  RouterOptions ROpts;
  ROpts.Listen = "tcp:127.0.0.1:0";
  ROpts.Shards = {Daemon->boundAddress()};
  Front = std::make_unique<RouterServer>(ROpts);
  return Front->start();
}

void Fleet::stop() {
  if (Front)
    Front->stop();
  if (Daemon)
    Daemon->stop();
  Front.reset();
  Daemon.reset();
}

Status exchange(Client &Conn, const Request &R,
                std::vector<std::string> &Frames) {
  Frames.clear();
  if (Status S = Conn.sendLine(R.Line); !S.ok())
    return S;
  std::string Final;
  Status S = Conn.recvResponseFor(
      R.Id, Final,
      [&Frames](const std::string &Event) { Frames.push_back(Event); }, R.Op);
  if (!S.ok())
    return S;
  Frames.push_back(std::move(Final));
  return Status::success();
}

Status routeReference(const Workload &W, const std::string &Address,
                      ReferenceAnswers &Out) {
  const size_t N = W.Reference.size();
  Out.Frames.assign(N, {});
  Out.HitLines.assign(W.RepeatsReference ? N : 0, std::string());
  std::atomic<size_t> Next{0};
  std::mutex ErrorMu;
  Status Failure = Status::success();
  auto fail = [&](const Status &S) {
    std::lock_guard<std::mutex> Lock(ErrorMu);
    Failure = S;
  };
  onThreads(W.Clients, [&](unsigned) {
    Client Conn;
    if (Status S = connectClient(Conn, Address); !S.ok())
      return fail(S);
    for (size_t I = Next++; I < N; I = Next++)
      if (Status S = exchange(Conn, W.Reference[I], Out.Frames[I]); !S.ok())
        return fail(S);
  });
  if (!Failure.ok() || !W.RepeatsReference)
    return Failure;
  Client Conn;
  if (Status S = connectClient(Conn, Address); !S.ok())
    return S;
  std::vector<std::string> Frames;
  for (size_t I = 0; I < N; ++I) {
    if (Status S = exchange(Conn, W.Reference[I], Frames); !S.ok())
      return S;
    Out.HitLines[I] = Frames.back();
  }
  return Status::success();
}

LoopResult runClosedLoop(const Workload &W, const CouplingGraph &Hw,
                         const std::string &Address, double Seconds,
                         const ReferenceAnswers &Ref,
                         const std::vector<std::vector<Routed>> &RefRouted) {
  struct Answered {
    size_t Index;
    double LatencyMs;
    std::vector<std::string> Frames; ///< Kept until checked.
  };
  LoopResult Out;
  std::mutex Mu; // Guards Out and Pending while the clients run.
  std::vector<Answered> Pending;
  std::atomic<size_t> Next{0};
  const auto Start = Clock::now();
  const auto Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));

  onThreads(W.Clients, [&](unsigned) {
    Client Conn;
    Status Connected = connectClient(Conn, Address);
    std::vector<std::string> Frames;
    while (Clock::now() < Deadline) {
      size_t I = Next++;
      Request R = W.timed(I);
      const auto Sent = Clock::now();
      Status S = Connected.ok() ? exchange(Conn, R, Frames) : Connected;
      double Ms = msBetween(Sent, Clock::now());
      std::lock_guard<std::mutex> Lock(Mu);
      ++Out.Attempted;
      if (!S.ok()) {
        ++Out.Failed;
        Out.Errors.push_back(R.Id + ": " + S.message());
        return; // The connection state is unknown; stop this client.
      }
      if (W.RepeatsReference) {
        // A hit must replay the checked reference answer byte for byte.
        if (Frames.size() != 1 || Frames[0] != Ref.HitLines[R.Combo]) {
          ++Out.Failed;
          Out.Errors.push_back(R.Id + ": hit differs from the reference");
          continue;
        }
        Out.LatenciesMs.push_back(Ms);
        Out.Routes += R.Items.size();
        continue;
      }
      Pending.push_back({I, Ms, std::move(Frames)});
    }
  });
  Out.Seconds = msBetween(Start, Clock::now()) / 1000.0;

  // Check the stored answers now that nothing is timed, on a few threads.
  std::atomic<size_t> NextCheck{0};
  unsigned Checkers =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  onThreads(Checkers, [&](unsigned) {
    std::vector<Routed> Got;
    for (size_t P = NextCheck++; P < Pending.size(); P = NextCheck++) {
      Answered &A = Pending[P];
      Request R = W.timed(A.Index);
      std::string Error = checkResponse(W, Hw, R, A.Frames, Got);
      for (size_t I = 0; Error.empty() && I < Got.size(); ++I)
        if (Got[I].Swaps != RefRouted[R.Combo][I].Swaps)
          Error = formatString("%s item %zu: %zu swaps, its base routed "
                               "with %zu",
                               R.Id.c_str(), I, Got[I].Swaps,
                               RefRouted[R.Combo][I].Swaps);
      std::vector<std::string>().swap(A.Frames);
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Error.empty()) {
        ++Out.Failed;
        Out.Errors.push_back(Error);
        continue;
      }
      Out.LatenciesMs.push_back(A.LatencyMs);
      Out.Routes += R.Items.size();
    }
  });
  return Out;
}

DaemonStats DaemonStats::since(const DaemonStats &Before) const {
  DaemonStats D = *this;
  D.ResultHits -= Before.ResultHits;
  D.ResultMisses -= Before.ResultMisses;
  D.ContextHits -= Before.ContextHits;
  D.ContextMisses -= Before.ContextMisses;
  D.Submitted -= Before.Submitted;
  D.Coalesced -= Before.Coalesced;
  for (size_t I = 0;
       I < D.QueueWaitBuckets.size() && I < Before.QueueWaitBuckets.size();
       ++I)
    D.QueueWaitBuckets[I] -= Before.QueueWaitBuckets[I];
  return D;
}

double DaemonStats::queueWaitP50Ms() const {
  double Total = 0;
  for (double C : QueueWaitBuckets)
    Total += C;
  if (Total <= 0)
    return 0;
  // Bucket k holds waits in (2^(k-1), 2^k] microseconds; bucket 0 starts
  // at zero.
  double Want = Total / 2, Seen = 0;
  for (size_t K = 0; K < QueueWaitBuckets.size(); ++K) {
    double C = QueueWaitBuckets[K];
    if (C > 0 && Seen + C >= Want) {
      double Lo = K == 0 ? 0 : double(uint64_t(1) << (K - 1));
      double Hi = double(uint64_t(1) << K);
      return (Lo + (Hi - Lo) * (Want - Seen) / C) / 1000.0;
    }
    Seen += C;
  }
  return 0;
}

Status fetchStats(const std::string &Address, DaemonStats &Out) {
  Client Conn;
  if (Status S = connectClient(Conn, Address); !S.ok())
    return S;
  std::string Line;
  if (Status S = Conn.request("{\"op\":\"stats\"}", Line); !S.ok())
    return S;
  json::ParseResult Doc = json::parse(Line);
  if (!Doc.Ok)
    return Status::error("unparsable stats response");
  Out = DaemonStats();
  Out.ResultHits = number(Doc.V, "result_cache", "hits");
  Out.ResultMisses = number(Doc.V, "result_cache", "misses");
  Out.ContextHits = number(Doc.V, "context_cache", "hits");
  Out.ContextMisses = number(Doc.V, "context_cache", "misses");
  Out.Submitted = number(Doc.V, "scheduler", "submitted");
  Out.Coalesced = number(Doc.V, "server", "coalesced");
  const json::Value *Latency = Doc.V.get("latency");
  const json::Value *Wait = Latency ? Latency->get("queue_wait") : nullptr;
  const json::Value *Buckets = Wait ? Wait->get("bucket_counts") : nullptr;
  if (Buckets)
    for (const json::Value &B : Buckets->items())
      Out.QueueWaitBuckets.push_back(B.asNumber());
  return Status::success();
}

} // namespace perfbench
