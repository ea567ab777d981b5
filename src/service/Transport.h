//===- service/Transport.h - Transport-agnostic endpoints --------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport seam of the service layer: one address scheme, one
/// listener, one connect path — shared by the daemon (Server), the
/// blocking Client, the shard router, and the benches, so "which socket
/// family" is a parsed string, never a compile-time assumption.
///
/// Addresses:
///
///   unix:/path/to.sock     Unix-domain stream socket
///   tcp:host:port          TCP (host resolved via getaddrinfo; port 0
///                          binds an ephemeral port, readable back from
///                          Listener::endpoint() after listen())
///   /bare/path             backward-compatible shorthand for unix:
///
/// Both transports speak the identical newline-delimited protocol v2
/// through the SocketIO framing primitives (sendAll / recvSome /
/// popLine), which own the EINTR and partial-I/O discipline in one
/// place. TCP sockets get TCP_NODELAY on both ends — the protocol is
/// request/response lines, and Nagle would add 40 ms stalls to every
/// small frame.
///
/// Threading: a Listener is driven by one accept thread. Another thread
/// wakes it with shutdown(), which never touches the descriptor field;
/// close() runs only once the accept thread has returned, so no thread
/// reads a descriptor another is closing (or one the kernel has already
/// handed out again). connectEndpoint() and BackoffPolicy are
/// stateless/thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_TRANSPORT_H
#define QLOSURE_SERVICE_TRANSPORT_H

#include "support/Error.h"

#include <cstdint>
#include <string>

namespace qlosure {
namespace service {

/// A parsed service address.
struct Endpoint {
  enum class Kind : uint8_t { Unix, Tcp };
  Kind Transport = Kind::Unix;
  /// Unix: the socket filesystem path.
  std::string Path;
  /// TCP: host name or numeric address, and port (0 = ephemeral).
  std::string Host;
  uint16_t Port = 0;

  /// Canonical spelling: "unix:/path" or "tcp:host:port".
  std::string str() const;
};

/// Parses "unix:/path", "tcp:host:port", or a bare filesystem path
/// (treated as unix: for backward compatibility with pre-fleet tooling).
Status parseEndpoint(const std::string &Spec, Endpoint &Out);

/// Bounded exponential backoff with jitter, shared by Client's
/// connect-retry and the router's health-check reconnects. delayMs() is
/// pure: attempt 0 waits ~InitialMs, each further attempt doubles (by
/// Factor) up to MaxMs, and the result is scattered uniformly within
/// +-JitterFraction so a fleet of retrying clients never thunders in
/// lockstep. \p JitterSeed picks the point in the jitter window
/// deterministically (hash it from anything per-caller-unique).
struct BackoffPolicy {
  double InitialMs = 10.0;
  double MaxMs = 500.0;
  double Factor = 2.0;
  double JitterFraction = 0.5;

  double delayMs(unsigned Attempt, uint64_t JitterSeed) const;
};

/// A listening socket over either transport.
class Listener {
public:
  Listener() = default;
  ~Listener() { close(); }

  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;

  /// Binds and listens on \p Ep. For unix endpoints a stale socket file
  /// is replaced (a live daemon on the same path loses its clients —
  /// the operator's call, as before). For tcp, SO_REUSEADDR is set and
  /// port 0 resolves to the kernel-assigned port, visible in
  /// endpoint().
  Status listen(const Endpoint &Ep, int Backlog = 64);

  /// Blocking accept with EINTR retry; applies TCP_NODELAY to accepted
  /// TCP sockets. Returns -1 once the listener is shut down or closed (or
  /// on a fatal accept error).
  int acceptConnection();

  /// Wakes a thread blocked in acceptConnection() (it returns -1, as does
  /// every later call) without releasing the descriptor. Safe from any
  /// thread.
  void shutdown();

  /// Closes the listening socket and unlinks a unix socket file this
  /// listener created. No thread may be inside acceptConnection(): wake
  /// it with shutdown() and join it first.
  void close();

  bool listening() const { return Fd >= 0; }

  /// The bound address — for tcp with port 0, the resolved port.
  const Endpoint &endpoint() const { return Bound; }

private:
  int Fd = -1;
  Endpoint Bound;
};

/// Connects one stream socket to \p Ep (blocking, one attempt — retry
/// policy belongs to the caller; Client layers BackoffPolicy on top).
/// EINTR during connect() is completed via poll + SO_ERROR instead of
/// surfacing as a spurious failure. On success \p Fd holds the
/// connected socket (TCP_NODELAY set for tcp).
Status connectEndpoint(const Endpoint &Ep, int &Fd);

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_TRANSPORT_H
