//===- service/Scheduler.cpp - Bounded job queue + worker pool -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Scheduler.h"

#include <algorithm>

using namespace qlosure;
using namespace qlosure::service;

Scheduler::Scheduler(SchedulerOptions Options)
    : Capacity(std::max<size_t>(Options.QueueCapacity, 1)) {
  unsigned Workers = Options.Workers;
  if (Workers == 0)
    Workers = std::max(1u, std::thread::hardware_concurrency());
  Pool.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Pool.emplace_back([this] { workerLoop(); });
}

Scheduler::~Scheduler() { shutdown(); }

std::shared_ptr<JobTicket>
Scheduler::trySubmit(SchedulerJob Job, std::shared_ptr<JobTicket> Ticket) {
  if (!Ticket)
    Ticket = std::make_shared<JobTicket>();
  // Arm the deadline before the job is visible to any worker or
  // canceller; the queue mutex publishes it.
  Ticket->Token.setDeadline(Job.Deadline);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (ShuttingDown || Queue.size() >= Capacity) {
      ++Rejected;
      return nullptr;
    }
    Queue.push_back(QueuedJob{std::move(Job), Ticket});
    ++Submitted;
  }
  QueueCv.notify_one();
  return Ticket;
}

std::vector<std::shared_ptr<JobTicket>>
Scheduler::trySubmitBatch(std::vector<SchedulerJob> Jobs,
                          std::vector<std::shared_ptr<JobTicket>> Tickets) {
  if (Jobs.empty())
    return {};
  if (Tickets.empty()) {
    Tickets.reserve(Jobs.size());
    for (size_t I = 0; I < Jobs.size(); ++I)
      Tickets.push_back(std::make_shared<JobTicket>());
  }
  for (size_t I = 0; I < Jobs.size(); ++I)
    Tickets[I]->Token.setDeadline(Jobs[I].Deadline);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (ShuttingDown || Queue.size() + Jobs.size() > Capacity) {
      Rejected += Jobs.size();
      return {};
    }
    for (size_t I = 0; I < Jobs.size(); ++I)
      Queue.push_back(QueuedJob{std::move(Jobs[I]), Tickets[I]});
    Submitted += Jobs.size();
  }
  // One job needs one worker: waking the whole idle pool would only
  // have the rest go back to sleep.
  if (Tickets.size() == 1)
    QueueCv.notify_one();
  else
    QueueCv.notify_all();
  return Tickets;
}

JobTicket::State Scheduler::cancel(const std::shared_ptr<JobTicket> &Ticket) {
  if (!Ticket)
    return JobTicket::State::Done; // Rejected submissions have no job.
  JobTicket::State Prev = Ticket->cancel();
  if (Prev != JobTicket::State::Queued)
    return Prev;
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto It = Queue.begin(); It != Queue.end(); ++It) {
    if (It->Ticket == Ticket) {
      Queue.erase(It);
      ++Cancelled;
      return Prev;
    }
  }
  // A worker popped the entry before we took the lock; its discard path
  // (the failed Running claim) accounts for the job instead.
  return Prev;
}

void Scheduler::shutdown() {
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShuttingDown = true;
    ToJoin.swap(Pool);
  }
  QueueCv.notify_all();
  for (std::thread &Worker : ToJoin)
    if (Worker.joinable())
      Worker.join();
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  SchedulerStats S;
  S.Submitted = Submitted;
  S.Completed = Completed;
  S.Expired = Expired;
  S.Rejected = Rejected;
  S.Cancelled = Cancelled;
  S.QueueDepth = Queue.size();
  S.Workers = static_cast<unsigned>(Pool.size());
  return S;
}

void Scheduler::workerLoop() {
  // One scratch per worker for the worker's whole lifetime: every routing
  // job this thread ever runs reuses the same warm kernel buffers (the
  // BatchRunner discipline; see RoutingScratch.h).
  RoutingScratch Scratch;
  while (true) {
    QueuedJob Entry;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      QueueCv.wait(Lock, [this] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty())
        return; // Shutting down and drained.
      Entry = std::move(Queue.front());
      Queue.pop_front();
    }
    // Claim the job. Losing this race means a canceller unqueued it (and
    // owns reporting): discard silently.
    uint8_t Expected = static_cast<uint8_t>(JobTicket::State::Queued);
    if (!Entry.Ticket->St.compare_exchange_strong(
            Expected, static_cast<uint8_t>(JobTicket::State::Running))) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Cancelled;
      continue;
    }
    bool IsExpired = std::chrono::steady_clock::now() >= Entry.Job.Deadline;
    if (IsExpired) {
      if (Entry.Job.OnExpired)
        Entry.Job.OnExpired();
    } else if (Entry.Job.Run) {
      Entry.Job.Run(Scratch, Entry.Ticket->Token);
    }
    Entry.Ticket->St.store(static_cast<uint8_t>(JobTicket::State::Done));
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (IsExpired)
        ++Expired;
      else
        ++Completed;
    }
  }
}
