//===- service/ContextCache.h - Sharded routing-state caches -----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoization heart of the qlosured service: a mutex-striped, sharded
/// LRU cache with a byte budget, instantiated three times —
///
///  * ContextCache maps (circuit fingerprint, backend fingerprint) to a
///    shared CachedContext bundle that shares the imported circuit and the
///    pooled coupling graph and owns the built RoutingContext (the DAG;
///    omega and the loop structure are computed by the first route that
///    reads them and memoized in the context). A warm request skips the entire
///    per-(circuit, backend) precomputation the paper's abstraction made
///    cheap and this cache makes free.
///
///  * ResultCache maps the result key (service/RequestKey.h) to a shared
///    CachedResult holding the routed QASM text and its statistics.
///    Routing is deterministic (fixed seeds, identity or derived initial
///    placements), so replaying a cached result is byte-identical to
///    re-running the mapper — checked by ServiceTest's
///    RepeatedRequestHitsCacheByteIdentically.
///
///  * AliasCache maps the alias key of a circuit's raw QASM text to its
///    result key, so a repeat of the same bytes reaches ResultCache
///    without importing the circuit again.
///
/// Threading/ownership contract: every public member is safe to call
/// from any thread — keys are striped over independently locked shards,
/// so unrelated requests never contend. Values are shared_ptr<const T>
/// and immutable once inserted: the cache owns one reference, every
/// reader owns its own, and eviction only drops the cache's — in-flight
/// readers (worker threads mid-route) keep theirs for as long as they
/// need. A miss builds *outside* the shard lock: concurrent first
/// requests for one key may build twice, but both builds are deterministic
/// and the insert keeps the first — simple, and never stalls a shard
/// behind an expensive build.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_CONTEXTCACHE_H
#define QLOSURE_SERVICE_CONTEXTCACHE_H

#include "circuit/Circuit.h"
#include "route/RoutingContext.h"
#include "service/RequestKey.h"
#include "topology/CouplingGraph.h"

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace qlosure {

class Trace;

namespace service {

/// Aggregate counters, summed over shards.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
  uint64_t Bytes = 0;
};

/// Sizing knobs shared by both instantiations.
struct CacheOptions {
  /// Number of independently locked shards (rounded up to at least 1).
  size_t Shards = 8;
  /// Total byte budget across all shards; the least recently used entries
  /// of an over-budget shard are evicted after each insert. Each shard
  /// always retains its most recent entry, so one entry larger than the
  /// budget still caches (it just evicts everything else in its shard).
  size_t ByteBudget = 256ull << 20;
};

/// Generic sharded LRU keyed by CacheKey. ValueT must expose
/// `size_t approxBytes() const`.
template <typename ValueT> class ShardedLruCache {
public:
  using ValuePtr = std::shared_ptr<const ValueT>;
  using BuildFn = std::function<ValuePtr()>;

  explicit ShardedLruCache(CacheOptions Options = {})
      : Options(Options),
        TheShards(std::max<size_t>(Options.Shards, 1)) {}

  /// Returns the cached value for \p Key, or invokes \p Build, inserts the
  /// result, and returns it. A Build returning nullptr is passed through
  /// uncached (the caller failed to produce a value). \p WasHit, when
  /// non-null, reports whether this call was served from cache.
  ValuePtr getOrBuild(const CacheKey &Key, const BuildFn &Build,
                      bool *WasHit = nullptr) {
    Shard &S = shardFor(Key);
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      auto It = S.Map.find(Key);
      if (It != S.Map.end()) {
        S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
        ++S.Hits;
        if (WasHit)
          *WasHit = true;
        return It->second->Value;
      }
      ++S.Misses;
    }
    if (WasHit)
      *WasHit = false;
    ValuePtr Built = Build();
    if (!Built)
      return nullptr;
    return insert(S, Key, std::move(Built));
  }

  /// Inserts \p Value for \p Key without touching the hit/miss counters
  /// (for callers that already did a lookup()); keeps the incumbent on a
  /// racing duplicate insert. Returns the entry the cache now holds.
  ValuePtr insertValue(const CacheKey &Key, ValuePtr Value) {
    return insert(shardFor(Key), Key, std::move(Value));
  }

  /// Cached value for \p Key, or nullptr (counts a hit or a miss).
  ValuePtr lookup(const CacheKey &Key) {
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Map.find(Key);
    if (It == S.Map.end()) {
      ++S.Misses;
      return nullptr;
    }
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    ++S.Hits;
    return It->second->Value;
  }

  CacheStats stats() const {
    CacheStats Total;
    for (const Shard &S : TheShards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      Total.Hits += S.Hits;
      Total.Misses += S.Misses;
      Total.Evictions += S.Evictions;
      Total.Entries += S.Lru.size();
      Total.Bytes += S.Bytes;
    }
    return Total;
  }

  void clear() {
    for (Shard &S : TheShards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      S.Lru.clear();
      S.Map.clear();
      S.Bytes = 0;
    }
  }

private:
  struct Entry {
    CacheKey Key;
    ValuePtr Value;
    size_t Bytes = 0;
  };

  struct Shard {
    mutable std::mutex Mu;
    std::list<Entry> Lru; ///< Front = most recently used.
    std::unordered_map<CacheKey, typename std::list<Entry>::iterator,
                       CacheKeyHasher>
        Map;
    size_t Bytes = 0;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
  };

  Shard &shardFor(const CacheKey &Key) {
    return TheShards[Key.hash() % TheShards.size()];
  }

  ValuePtr insert(Shard &S, const CacheKey &Key, ValuePtr Value) {
    size_t Bytes = Value->approxBytes();
    size_t ShardBudget =
        std::max<size_t>(Options.ByteBudget / TheShards.size(), 1);
    std::lock_guard<std::mutex> Lock(S.Mu);
    // A racing builder may have inserted first; keep the incumbent so
    // every caller shares one value.
    auto It = S.Map.find(Key);
    if (It != S.Map.end())
      return It->second->Value;
    S.Lru.push_front(Entry{Key, std::move(Value), Bytes});
    S.Map[Key] = S.Lru.begin();
    S.Bytes += Bytes;
    while (S.Bytes > ShardBudget && S.Lru.size() > 1) {
      Entry &Victim = S.Lru.back();
      S.Bytes -= Victim.Bytes;
      S.Map.erase(Victim.Key);
      S.Lru.pop_back();
      ++S.Evictions;
    }
    return S.Lru.begin()->Value;
  }

  CacheOptions Options;
  std::vector<Shard> TheShards;
};

/// A cached (circuit, backend) precomputation bundle. Shares ownership of
/// the circuit and the graph, so the RoutingContext's references stay
/// valid for the entry's whole lifetime, independent of the request that
/// built it; every bundle on one backend variant reads one graph.
class CachedContext {
public:
  /// Builds a bundle over \p Circ and \p Hw. Omega is not computed here:
  /// only weighted Qlosure routes read it, and the first of them computes
  /// it once for every later reader. \p T, when non-null, receives the
  /// construction-phase spans (ctx_distances, ctx_dag) of a traced cold
  /// build.
  static std::shared_ptr<const CachedContext>
  build(std::shared_ptr<const Circuit> Circ,
        std::shared_ptr<const CouplingGraph> Hw, Trace *T = nullptr);

  const RoutingContext &context() const { return *Ctx; }
  const Circuit &circuit() const { return *Circ; }
  const CouplingGraph &hardware() const { return *Hw; }
  /// The circuit, the DAG and omega, plus the graph when it is calibrated
  /// (the pool may drop an error-aware variant; it keeps the plain ones).
  size_t approxBytes() const { return Bytes; }

private:
  CachedContext() = default;

  std::shared_ptr<const Circuit> Circ;
  std::shared_ptr<const CouplingGraph> Hw;
  std::optional<RoutingContext> Ctx;
  size_t Bytes = 0;
};

/// A cached routing outcome: the routed program text plus the statistics
/// the protocol reports. Immutable once built.
struct CachedResult {
  std::string RoutedQasm;
  size_t LogicalGates = 0;
  size_t RoutedGates = 0;
  size_t Swaps = 0;
  size_t DepthBefore = 0;
  size_t DepthAfter = 0;
  double MappingSeconds = 0;
  bool TimedOut = false;
  bool Verified = false;
  /// Estimated success probability; negative when no error model applies.
  double SuccessProbability = -1.0;

  size_t approxBytes() const { return sizeof(*this) + RoutedQasm.size(); }
};

/// An alias entry: the result key that a raw circuit text imported to.
struct ResultAlias {
  CacheKey Result;

  /// The value plus the cache's per-entry bookkeeping (LRU node, index
  /// node, shared_ptr control block), which dwarfs a 24-byte key.
  size_t approxBytes() const { return sizeof(*this) + 160; }
};

using ContextCache = ShardedLruCache<CachedContext>;
using ResultCache = ShardedLruCache<CachedResult>;
using AliasCache = ShardedLruCache<ResultAlias>;

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_CONTEXTCACHE_H
