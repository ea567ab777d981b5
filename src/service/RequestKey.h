//===- service/RequestKey.h - Cache, alias and shard keys --------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every key the service derives from a request, in one place, so the
/// router and the daemon key one request one way:
///
///  * The **raw text fingerprint** hashes a circuit's exact QASM bytes,
///    without importing them. The router places requests on its ring by
///    it (shardKeyForRequest), and the daemon keys its alias tier by it.
///
///  * The **result key** combines the imported circuit's fingerprint, the
///    backend variant's fingerprint and the mapper configuration, which
///    carries the routing-semantics version (route/Router.h). The result
///    cache, the durable store and single-flight coalescing are all keyed
///    by it, so a store written before a change that moved routes is
///    never read after it.
///
///  * The **alias key** is the result key with the raw text fingerprint in
///    place of the circuit fingerprint. Once the daemon has imported a
///    text, its alias tier maps the alias key to the result key, so a
///    repeat of the same bytes finds its result without importing again.
///    Text that differs in any byte (whitespace, comments, register
///    names) misses the alias and falls through to the result key: the
///    alias changes how fast a request finds its result, never which
///    result it finds.
///
/// Fingerprints are 64-bit content hashes (support/Fingerprint.h has the
/// collision argument). None of them resists a client that crafts
/// collisions on purpose; the alias tier inherits the trust model the
/// result cache already had.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_REQUESTKEY_H
#define QLOSURE_SERVICE_REQUESTKEY_H

#include "service/Protocol.h"
#include "support/Fingerprint.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace qlosure {
namespace service {

/// Cache key: three content fingerprints.
struct CacheKey {
  uint64_t CircuitFp = 0;
  uint64_t BackendFp = 0;
  uint64_t ConfigFp = 0;

  bool operator==(const CacheKey &Other) const {
    return CircuitFp == Other.CircuitFp && BackendFp == Other.BackendFp &&
           ConfigFp == Other.ConfigFp;
  }
  bool operator!=(const CacheKey &Other) const { return !(*this == Other); }

  uint64_t hash() const {
    return hashCombine(hashCombine(CircuitFp, BackendFp), ConfigFp);
  }
};

struct CacheKeyHasher {
  size_t operator()(const CacheKey &Key) const {
    return static_cast<size_t>(Key.hash());
  }
};

/// Fingerprint of the exact QASM text of one circuit. It reads eight bytes
/// per step, and its value depends on the host's byte order (each tier
/// computes its keys alone, so no two hosts ever compare them).
uint64_t rawTextFingerprint(const std::string &Qasm);

/// Fingerprint of the mapper configuration: the mapper name, every flag
/// that changes the routed output (affine, bidirectional, error-aware) and
/// RoutingSemanticsVersion. The calibration seed is not here: it shapes
/// the backend variant, whose fingerprint carries it.
uint64_t mapperConfigFingerprint(const RouteRequest &Params);

/// The key of the result cache, the durable store and single-flight
/// coalescing, for an imported circuit with fingerprint \p CircuitFp.
CacheKey resultKey(uint64_t CircuitFp, uint64_t BackendFp,
                   const RouteRequest &Params);

/// The key of the daemon's alias tier for the circuit text \p Qasm.
CacheKey aliasKey(const std::string &Qasm, uint64_t BackendFp,
                  const RouteRequest &Params);

/// The router's ring key: the backend name and the raw text fingerprint of
/// every circuit, in order. The mapper is deliberately left out, so one
/// circuit routed by several mappers shares a shard (and its context
/// cache); a one-item batch lands where a `route` of its circuit does.
uint64_t shardKeyForRequest(const Request &Req);

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_REQUESTKEY_H
