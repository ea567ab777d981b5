//===- service/ConnectionServer.cpp - Shared connection core ------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ConnectionServer.h"

#include "service/Protocol.h"
#include "service/SocketIO.h"

#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

LineConnection::~LineConnection() { ::close(Fd); }

bool LineConnection::send(const std::string &Line) {
  std::lock_guard<std::mutex> Lock(WriteMu);
  if (Closed)
    return false;
  if (!sendAll(Fd, Line + "\n", /*MaxSeconds=*/30.0)) {
    Closed = true;
    return false;
  }
  return true;
}

bool LineConnection::alive() {
  std::lock_guard<std::mutex> Lock(WriteMu);
  return !Closed;
}

void LineConnection::markClosed() {
  std::lock_guard<std::mutex> Lock(WriteMu);
  Closed = true;
}

Status ConnectionServer::serve(const std::string &ListenSpec,
                               size_t MaxLine) {
  Endpoint Ep;
  if (Status S = parseEndpoint(ListenSpec, Ep); !S.ok())
    return S;
  if (Status S = Acceptor.listen(Ep, 64); !S.ok())
    return S;
  MaxLineBytes = MaxLine;
  Started = true;
  AcceptThread = std::thread([this] { acceptLoop(); });
  return Status::success();
}

void ConnectionServer::requestStop() {
  {
    std::lock_guard<std::mutex> Lock(StopMu);
    StopRequested = true;
  }
  StopCv.notify_all();
}

void ConnectionServer::wait(const std::function<bool()> &ExternalStop) {
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

void ConnectionServer::stop() {
  requestStop();
  wait();
}

void ConnectionServer::teardown() {
  std::lock_guard<std::mutex> TeardownLock(TeardownMu);
  if (TornDown)
    return;
  TornDown = true;
  Stopping.store(true);

  Acceptor.shutdown();
  if (AcceptThread.joinable())
    AcceptThread.join();
  Acceptor.close();

  drain();

  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (const std::shared_ptr<LineConnection> &Conn : Conns)
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

void ConnectionServer::acceptLoop() {
  while (!Stopping.load()) {
    int Fd = Acceptor.acceptConnection();
    if (Fd < 0)
      return; // Woken by teardown, or a fatal accept error.
    if (Stopping.load()) {
      ::close(Fd);
      return;
    }
    timeval SendTimeout{};
    SendTimeout.tv_sec = 10;
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                 sizeof(SendTimeout));
    std::shared_ptr<LineConnection> Conn = accepted(Fd);
    std::lock_guard<std::mutex> Lock(ConnMu);
    // Reap readers that finished since the last accept: they have already
    // vacated their slot, so join returns promptly.
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
          std::thread([this, Conn, Slot] { readLoop(Conn, Slot); });
    } else {
      Slot = Conns.size();
      Conns.push_back(Conn);
      ConnThreads.emplace_back([this, Conn, Slot] { readLoop(Conn, Slot); });
    }
  }
}

void ConnectionServer::readLoop(std::shared_ptr<LineConnection> Conn,
                                size_t Slot) {
  std::string Pending;
  char Buffer[65536];
  bool Alive = true;
  while (Alive) {
    ssize_t N = recvSome(Conn->Fd, Buffer, sizeof(Buffer));
    if (N <= 0)
      break;
    Pending.append(Buffer, static_cast<size_t>(N));
    // Complete lines were all popped after the previous read, so a read
    // without a newline leaves Pending one unfinished line.
    if (!std::memchr(Buffer, '\n', static_cast<size_t>(N))) {
      if (Pending.size() <= MaxLineBytes)
        continue;
      sendError(*Conn, "unknown", "", errc::BadRequest,
                "request line too large");
      break;
    }
    std::string Line;
    while (Alive && popLine(Pending, Line)) {
      if (Line.empty())
        continue;
      handleLine(Conn, Line);
      Alive = Conn->alive();
    }
  }
  Conn->markClosed();
  disconnected(Conn);
  // Vacate the slot under the lock teardown() iterates under, then report
  // it finished so the accept loop joins this thread and recycles it.
  std::lock_guard<std::mutex> Lock(ConnMu);
  Conns[Slot] = nullptr;
  FinishedSlots.push_back(Slot);
}
