//===- service/ConnectionServer.h - Shared connection core -------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The connection core both daemons are built on (service/Server.h,
/// service/ShardRouter.h): the listener and its accept thread, one reader
/// thread per connection with the request-line bound, the latched writer
/// every response goes through, and the requestStop/wait/stop lifecycle.
/// A daemon supplies only its per-connection state (a LineConnection
/// subclass) and its hooks: the line handler, the error writer (so it can
/// count errors), the disconnect hook and the drain hook.
///
/// Flow control: accepted sockets get a 10 s SO_SNDTIMEO and every frame a
/// 30 s cumulative bound, so a peer that stops reading — or drips bytes
/// to reset per-call timers — while responses are owed is declared dead
/// and its connection latched closed. A wedged client delays a writer by
/// tens of seconds at most, never pins it.
///
/// Request lines longer than the bound get a `bad_request` "request line
/// too large" error and the connection is closed: the stream cannot be
/// trusted to resynchronize.
///
/// Teardown order: stop accepting — wake the accept thread with
/// Listener::shutdown(), join it, and only then close and unlink the
/// listener, so no thread ever reads a descriptor another is closing —
/// then run the owner's drain hook while every connection can still be
/// written, then sever the connections and join their readers.
///
/// Connection bookkeeping: finished readers report their slot; the accept
/// loop joins them and recycles the slot, so a long-lived daemon serving
/// many short-lived connections holds O(max concurrent), not O(total),
/// thread stacks.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_CONNECTIONSERVER_H
#define QLOSURE_SERVICE_CONNECTIONSERVER_H

#include "service/Transport.h"
#include "support/Error.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qlosure {
namespace service {

/// Default bound on one request line, in bytes.
constexpr size_t DefaultMaxRequestBytes = 64ull << 20;

/// One accepted protocol connection: the socket and its latched writer.
/// Shared between the connection's reader thread and every thread that
/// answers on it; the fd closes with the last reference, so a late writer
/// can never write into a recycled descriptor.
class LineConnection {
public:
  explicit LineConnection(int Fd) : Fd(Fd) {}
  virtual ~LineConnection();

  LineConnection(const LineConnection &) = delete;
  LineConnection &operator=(const LineConnection &) = delete;

  const int Fd;

  /// Writes one frame (newline appended). Frames never interleave bytes.
  /// Returns false once the peer is gone or the reader exited; failures
  /// latch, so late completions degrade to cheap no-ops.
  bool send(const std::string &Line);
  bool alive();
  /// No further frames go out.
  void markClosed();

private:
  std::mutex WriteMu;
  bool Closed = false;
};

/// The accept/read/write/teardown machinery of a line-protocol daemon.
class ConnectionServer {
public:
  ConnectionServer(const ConnectionServer &) = delete;
  ConnectionServer &operator=(const ConnectionServer &) = delete;

  /// Blocks until stop is requested (requestStop(), or \p ExternalStop
  /// returning true — polled a few times per second so a signal handler
  /// only needs to flip a flag), then tears down (see the file comment).
  void wait(const std::function<bool()> &ExternalStop = nullptr);

  /// Requests asynchronous stop; wait() performs the actual teardown.
  void requestStop();

  /// requestStop() + the teardown wait() would do. Safe to call from any
  /// thread except a connection handler.
  void stop();

  /// The canonical bound address ("unix:/path" / "tcp:host:port" with the
  /// resolved port) — what clients connect to. Valid once serving.
  std::string boundAddress() const { return Acceptor.endpoint().str(); }

protected:
  ConnectionServer() = default;
  /// Derived destructors must call stop() first: teardown runs their
  /// hooks.
  virtual ~ConnectionServer() = default;

  /// Binds \p ListenSpec and starts the accept thread; request lines
  /// longer than \p MaxLineBytes are refused. Everything the hooks use
  /// must be ready before this is called.
  Status serve(const std::string &ListenSpec, size_t MaxLineBytes);

  bool started() const { return Started; }
  bool stopping() const { return Stopping.load(); }

  /// Wraps an accepted socket in the daemon's per-connection state.
  virtual std::shared_ptr<LineConnection> accepted(int Fd) = 0;
  /// Handles one request line, on the connection's reader thread.
  virtual void handleLine(const std::shared_ptr<LineConnection> &Conn,
                          const std::string &Line) = 0;
  /// Writes an error response (callable from any thread).
  virtual void sendError(LineConnection &Conn, const char *Op,
                         const std::string &Id, const char *Code,
                         const std::string &Message) = 0;
  /// The reader of \p Conn exited and its writer is closed: abandon the
  /// connection's outstanding work.
  virtual void disconnected(const std::shared_ptr<LineConnection> &Conn) = 0;
  /// Teardown step run after accepting stopped and before connections are
  /// severed.
  virtual void drain() = 0;

private:
  void acceptLoop();
  void readLoop(std::shared_ptr<LineConnection> Conn, size_t Slot);
  void teardown();

  Listener Acceptor;
  size_t MaxLineBytes = DefaultMaxRequestBytes;
  std::thread AcceptThread;

  /// ConnThreads[I] reads Conns[I]. Conns[I] may outlive its slot: work
  /// in flight holds its own references.
  std::mutex ConnMu;
  std::vector<std::thread> ConnThreads;
  std::vector<std::shared_ptr<LineConnection>> Conns;
  std::vector<size_t> FinishedSlots;
  std::vector<size_t> FreeSlots;

  std::mutex StopMu;
  std::condition_variable StopCv;
  bool StopRequested = false;
  std::atomic<bool> Stopping{false};
  bool Started = false;
  /// Serializes teardown(): concurrent callers (a wait()er and the
  /// destructor) must both block until teardown completed.
  std::mutex TeardownMu;
  bool TornDown = false;
};

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_CONNECTIONSERVER_H
