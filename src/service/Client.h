//===- service/Client.h - Blocking qlosured client ---------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal blocking client for the qlosured protocol v2 over either
/// transport (unix-domain or TCP),
/// shared by tools/qlosure-client, the service integration tests, and the
/// perfbench load generator: connect (optionally retrying until the
/// daemon is up), send request lines, read frames.
///
/// Since protocol v2 responses arrive out of order and event frames may
/// interleave, so the client demultiplexes: recvResponseFor() reads
/// frames until the final response matching a wanted (op, id) appears,
/// handing event frames to a callback and stashing other requests'
/// finals for their own recvResponseFor() calls. The v1-style
/// request()/recvLine() remain for lockstep callers (a connection with
/// one outstanding request never observes reordering).
///
/// No background threads, no locks — one instance per connection, usable
/// from any thread but not from several at once.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_CLIENT_H
#define QLOSURE_SERVICE_CLIENT_H

#include "support/Error.h"

#include <deque>
#include <functional>
#include <string>

namespace qlosure {
namespace service {

/// One client connection.
class Client {
public:
  /// Invoked by recvResponseFor() with the raw line of each event frame.
  using EventFn = std::function<void(const std::string &Line)>;

  Client() = default;
  ~Client() { close(); }

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  Client(Client &&Other) noexcept
      : Fd(Other.Fd), Pending(std::move(Other.Pending)),
        Stash(std::move(Other.Stash)) {
    Other.Fd = -1;
  }

  /// Connects to the daemon at \p Address — "unix:/path", "tcp:host:port",
  /// or a bare socket path. When \p RetrySeconds > 0 a refused/missing
  /// endpoint is retried with bounded exponential backoff + jitter
  /// (BackoffPolicy defaults) until the deadline — the standard way to
  /// wait for a freshly exec'd daemon to bind.
  Status connect(const std::string &Address, double RetrySeconds = 0);

  bool connected() const { return Fd >= 0; }
  void close();

  /// Bounds every subsequent blocking send/recv on this connection to
  /// \p Seconds (SO_SNDTIMEO / SO_RCVTIMEO); a timed-out read surfaces
  /// as a recv error. What the router's health pings and stats fetches
  /// use so a wedged shard cannot pin them. <= 0 restores unbounded.
  Status setIoTimeout(double Seconds);

  /// Sends \p Line (newline appended).
  Status sendLine(const std::string &Line);

  /// Reads one raw newline-terminated frame into \p Line (newline
  /// stripped), event or final, skipping the stash. Fails when the
  /// daemon closes the connection first. Lockstep-era primitive; prefer
  /// recvResponseFor() on pipelined connections.
  Status recvLine(std::string &Line);

  /// Demultiplexing read: returns the next final response whose "id"
  /// equals \p Id and (unless \p OpFilter is empty) whose "op" equals
  /// \p OpFilter. An empty \p Id matches the first final response of any
  /// correlation. Event frames encountered on the way are passed to
  /// \p OnEvent (or dropped); finals for other (op, id) pairs are stashed
  /// and served to the recvResponseFor() call that wants them.
  Status recvResponseFor(const std::string &Id, std::string &Response,
                         const EventFn &OnEvent = {},
                         const std::string &OpFilter = {});

  /// sendLine + recvResponseFor with an empty id: the classic blocking
  /// round trip, tolerant of stray event frames.
  Status request(const std::string &Line, std::string &Response);

private:
  struct StashedFinal {
    std::string Id;
    std::string Op;
    std::string Line;
  };

  int Fd = -1;
  std::string Pending; ///< Bytes read past the last returned line.
  /// Final responses read while waiting for a different (op, id), in
  /// arrival order.
  std::deque<StashedFinal> Stash;
};

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_CLIENT_H
