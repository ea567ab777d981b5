//===- service/RequestKey.cpp - Cache, alias and shard keys --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/RequestKey.h"

#include "route/Router.h"

#include <cstring>

using namespace qlosure;
using namespace qlosure::service;

uint64_t service::rawTextFingerprint(const std::string &Qasm) {
  // Eight bytes per multiply: request texts run to hundreds of kilobytes,
  // where FNV-1a's one-byte-per-multiply chain cost more than decoding the
  // whole request line.
  constexpr uint64_t Mul = 0x9E3779B97F4A7C15ULL;
  const char *P = Qasm.data();
  size_t N = Qasm.size();
  uint64_t Hash = hashCombine(0x7E47F1A9E5ULL, N);
  for (; N >= 8; P += 8, N -= 8) {
    uint64_t Word;
    std::memcpy(&Word, P, sizeof(Word));
    Hash = (Hash ^ Word) * Mul;
    Hash ^= Hash >> 29;
  }
  uint64_t Tail = 0;
  std::memcpy(&Tail, P, N);
  Hash = (Hash ^ Tail) * Mul;
  return Hash ^ (Hash >> 32);
}

uint64_t service::mapperConfigFingerprint(const RouteRequest &Params) {
  uint64_t Flags = (Params.Affine ? 4u : 0u) |
                   (Params.Bidirectional ? 2u : 0u) |
                   (Params.ErrorAware ? 1u : 0u);
  return hashCombine(hashCombine(fingerprintString(Params.Mapper), Flags),
                     RoutingSemanticsVersion);
}

CacheKey service::resultKey(uint64_t CircuitFp, uint64_t BackendFp,
                            const RouteRequest &Params) {
  return CacheKey{CircuitFp, BackendFp, mapperConfigFingerprint(Params)};
}

CacheKey service::aliasKey(const std::string &Qasm, uint64_t BackendFp,
                           const RouteRequest &Params) {
  return resultKey(rawTextFingerprint(Qasm), BackendFp, Params);
}

uint64_t service::shardKeyForRequest(const Request &Req) {
  uint64_t Key = fingerprintString(Req.Route.Backend);
  if (Req.TheOp == Op::Batch) {
    for (const BatchItem &Item : Req.Items)
      Key = hashCombine(Key, rawTextFingerprint(Item.Qasm));
    return Key;
  }
  return hashCombine(Key, rawTextFingerprint(Req.Route.Qasm));
}
