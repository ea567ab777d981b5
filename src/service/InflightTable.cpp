//===- service/InflightTable.cpp - Request coalescing --------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/InflightTable.h"

#include <algorithm>

using namespace qlosure;
using namespace qlosure::service;

InflightTable::InflightTable() {
  Reaper = std::thread([this] { reaperLoop(); });
}

InflightTable::~InflightTable() {
  // Whatever survives here gets the shutdown error — the table must
  // never strand a follower without its one final response.
  Outcome Shutdown;
  Shutdown.ErrorCode = errc::ShuttingDown;
  Shutdown.ErrorMessage = "server is shutting down";
  drain(Shutdown);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  ReaperCv.notify_all();
  if (Reaper.joinable())
    Reaper.join();
}

bool InflightTable::tryAttach(const CacheKey &Key, Follower F) {
  bool Armed = F.Deadline != std::chrono::steady_clock::time_point::max();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Flights.find(Key);
    if (It == Flights.end())
      return false;
    It->second.Followers.push_back(std::move(F));
  }
  if (Armed)
    ReaperCv.notify_all();
  return true;
}

bool InflightTable::lead(const CacheKey &Key,
                         const std::shared_ptr<JobTicket> &LeaderTicket) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto [It, Created] = Flights.try_emplace(Key);
  if (Created)
    It->second.Leader = LeaderTicket;
  return Created;
}

void InflightTable::deliverAll(std::vector<Follower> Followers,
                               const Outcome &O) {
  for (Follower &F : Followers) {
    // The Queued -> CancelledWhileQueued CAS is the one-winner claim: a
    // follower already cancelled by its client or expired by the reaper
    // answered through that path and must not be answered again.
    if (F.Ticket && F.Ticket->cancel() == JobTicket::State::Queued)
      F.Deliver(O);
  }
}

void InflightTable::complete(const CacheKey &Key, const Outcome &O) {
  std::vector<Follower> Claimed;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Flights.find(Key);
    if (It == Flights.end())
      return;
    Claimed = std::move(It->second.Followers);
    Flights.erase(It);
  }
  deliverAll(std::move(Claimed), O);
}

void InflightTable::completeByLeader(const std::shared_ptr<JobTicket> &Ticket,
                                     const Outcome &O) {
  std::vector<Follower> Claimed;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = std::find_if(Flights.begin(), Flights.end(),
                           [&](const auto &Entry) {
                             return Entry.second.Leader == Ticket;
                           });
    if (It == Flights.end())
      return;
    Claimed = std::move(It->second.Followers);
    Flights.erase(It);
  }
  deliverAll(std::move(Claimed), O);
}

void InflightTable::drain(const Outcome &O) {
  std::vector<Follower> Claimed;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (auto &Entry : Flights)
      for (Follower &F : Entry.second.Followers)
        Claimed.push_back(std::move(F));
    Flights.clear();
  }
  deliverAll(std::move(Claimed), O);
}

void InflightTable::reaperLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (!Stopping) {
    // Sleep until the earliest armed follower deadline (or a new armed
    // follower arrives, or teardown).
    auto Earliest = std::chrono::steady_clock::time_point::max();
    for (const auto &Entry : Flights)
      for (const Follower &F : Entry.second.Followers)
        Earliest = std::min(Earliest, F.Deadline);
    if (Earliest == std::chrono::steady_clock::time_point::max())
      ReaperCv.wait(Lock);
    else
      ReaperCv.wait_until(Lock, Earliest);
    if (Stopping)
      break;
    // Pull every expired follower out of its flight; claim and answer
    // outside the lock. The flight itself (and its leader) stays live.
    auto Now = std::chrono::steady_clock::now();
    std::vector<Follower> Expired;
    for (auto &Entry : Flights) {
      auto &Followers = Entry.second.Followers;
      for (size_t I = 0; I < Followers.size();) {
        if (Followers[I].Deadline <= Now) {
          Expired.push_back(std::move(Followers[I]));
          Followers[I] = std::move(Followers.back());
          Followers.pop_back();
        } else {
          ++I;
        }
      }
    }
    if (Expired.empty())
      continue;
    Lock.unlock();
    Outcome Deadline;
    Deadline.ErrorCode = errc::DeadlineExceeded;
    Deadline.ErrorMessage =
        "deadline expired while coalesced with an identical in-flight "
        "request";
    deliverAll(std::move(Expired), Deadline);
    Lock.lock();
  }
}
