//===- service/InflightTable.h - Request coalescing --------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-flight coalescing for routed requests: routed results are
/// deterministic and content-keyed, so when an identical request (same
/// CacheKey — circuit x backend x mapper-config fingerprints) arrives
/// while one is already routing, running it again buys nothing. The
/// first request *leads*: it owns the scheduler job. Every later
/// identical request *follows*: it registers a delivery callback on the
/// leader's flight and is answered from the leader's outcome — one
/// route, N identical responses.
///
/// Followers keep their own identity. Each follower has its own
/// JobTicket (registered in its connection's in-flight table like any
/// route), its own deadline, and its own delivery callback. The ticket's
/// Queued -> CancelledWhileQueued CAS — which Scheduler::cancel performs
/// on a never-enqueued ticket without touching the queue — doubles as
/// the flight's one-winner claim: exactly one of {leader delivery,
/// client cancel, deadline reaper, teardown drain} claims each follower,
/// so every follower gets exactly one final response. A follower's
/// cancel or expiry never touches the leader; the leader's failure
/// (error, cancel, expiry) propagates to the remaining followers as a
/// structured error.
///
/// Lifecycle of a flight: created by lead() for its key, which a request
/// claims at triage; identical requests join it with tryAttach() once
/// their own submission is decided. Completed exactly once — by the
/// leader's completion path (complete()), by whoever claimed the leader's
/// ticket away from the queue (completeByLeader()), or by teardown
/// (drain()). Completion removes the flight under the table lock and
/// invokes the follower callbacks *outside* it (they write to sockets
/// and may block for the send-timeout bound; holding the lock across
/// that would serialize the service on one slow peer).
///
/// An internal reaper thread enforces follower deadlines: a follower
/// whose deadline passes while coalesced is claimed and delivered
/// deadline_exceeded, leaving the flight (and leader) running.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_INFLIGHTTABLE_H
#define QLOSURE_SERVICE_INFLIGHTTABLE_H

#include "service/ContextCache.h"
#include "service/Protocol.h"
#include "service/Scheduler.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace qlosure {
namespace service {

/// The coalescing table.
class InflightTable {
public:
  /// A flight's terminal outcome, broadcast to every unclaimed follower.
  struct Outcome {
    bool Ok = false;
    /// Stable errc code when !Ok (points at a string literal).
    const char *ErrorCode = nullptr;
    std::string ErrorMessage;
    bool ContextHit = false;
    RouteStats Stats;
    std::shared_ptr<const CachedResult> Cached; ///< Set when Ok.
  };

  /// One coalesced request. Ticket must be fresh (never scheduled): it
  /// is the claim token. Deliver is invoked at most once, by whichever
  /// resolution path wins the claim — with the leader's outcome or a
  /// deadline_exceeded/shutting_down error.
  struct Follower {
    std::shared_ptr<JobTicket> Ticket;
    std::chrono::steady_clock::time_point Deadline =
        std::chrono::steady_clock::time_point::max();
    std::function<void(const Outcome &)> Deliver;
  };

  InflightTable();
  ~InflightTable();

  InflightTable(const InflightTable &) = delete;
  InflightTable &operator=(const InflightTable &) = delete;

  /// Joins an existing flight only (never creates one): \p F.Deliver
  /// will answer the request. Returns false when no flight exists.
  bool tryAttach(const CacheKey &Key, Follower F);

  /// Creates a flight led by \p LeaderTicket only when none exists for
  /// \p Key (never attaches anything). Returns whether the flight was
  /// created; the caller then schedules the route and later complete()s
  /// the flight. A request that loses the lead attaches — or is resolved
  /// otherwise — only after its own all-or-nothing submission decision,
  /// so a rejected request never has a frame delivered.
  bool lead(const CacheKey &Key, const std::shared_ptr<JobTicket> &LeaderTicket);

  /// Completes \p Key's flight: removes it and delivers \p O to every
  /// follower not already claimed by cancel/expiry. No-op when no such
  /// flight exists. Called from the leader's completion path.
  void complete(const CacheKey &Key, const Outcome &O);

  /// Completes the flight led by \p Ticket, for resolution paths that
  /// hold only the ticket (a queued leader claimed away by cancel, or an
  /// orphaned connection's sweep). No-op when \p Ticket leads nothing.
  void completeByLeader(const std::shared_ptr<JobTicket> &Ticket,
                        const Outcome &O);

  /// Teardown: completes every remaining flight with \p O. The scheduler
  /// has already drained at this point, so normally there is nothing
  /// left; this is the safety net that keeps the exactly-one-response
  /// invariant across shutdown.
  void drain(const Outcome &O);

private:
  struct Flight {
    std::shared_ptr<JobTicket> Leader;
    std::vector<Follower> Followers;
  };

  void reaperLoop();
  /// Extracts and delivers, claiming each follower. \p O by value: drain
  /// iterates while delivering.
  static void deliverAll(std::vector<Follower> Followers, const Outcome &O);

  std::mutex Mu;
  std::condition_variable ReaperCv;
  std::unordered_map<CacheKey, Flight, CacheKeyHasher> Flights;
  bool Stopping = false;
  std::thread Reaper;
};

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_INFLIGHTTABLE_H
