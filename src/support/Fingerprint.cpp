//===- support/Fingerprint.cpp - Content hashes for cache keys -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Fingerprint.h"

#include "circuit/Circuit.h"
#include "topology/CouplingGraph.h"

#include <algorithm>
#include <cstring>

using namespace qlosure;

uint64_t qlosure::hashBytes(const void *Data, size_t Size, uint64_t Seed) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = Seed;
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001B3ULL; // FNV-1a prime.
  }
  return Hash;
}

uint64_t qlosure::hashCombine(uint64_t Seed, uint64_t Value) {
  // 64-bit variant of boost::hash_combine (golden-ratio constant).
  return Seed ^ (Value + 0x9E3779B97F4A7C15ULL + (Seed << 12) + (Seed >> 4));
}

uint64_t qlosure::fingerprintString(const std::string &Text) {
  return hashBytes(Text.data(), Text.size());
}

namespace {

uint64_t hashU64(uint64_t Seed, uint64_t V) {
  return hashBytes(&V, sizeof(V), Seed);
}

uint64_t hashDouble(uint64_t Seed, double V) {
  // Bit-pattern hash: distinguishes -0.0 from 0.0 and every NaN payload,
  // which errs toward cache misses, never toward wrong hits.
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return hashU64(Seed, Bits);
}

} // namespace

uint64_t qlosure::fingerprint(const Circuit &Circ) {
  uint64_t Hash = hashU64(0x51C0DE5EEDULL, Circ.numQubits());
  Hash = hashU64(Hash, Circ.size());
  for (const Gate &G : Circ.gates()) {
    Hash = hashU64(Hash, static_cast<uint64_t>(G.Kind));
    unsigned NQ = G.numQubits();
    for (unsigned I = 0; I < NQ; ++I)
      Hash = hashU64(Hash, static_cast<uint64_t>(
                               static_cast<int64_t>(G.Qubits[I])));
    unsigned NP = G.numParams();
    for (unsigned I = 0; I < NP; ++I)
      Hash = hashDouble(Hash, G.Params[I]);
  }
  return Hash;
}

uint64_t qlosure::fingerprint(const CouplingGraph &Graph) {
  uint64_t Hash = hashU64(0x70B0106BULL, Graph.numQubits());
  // edges() enumerates adjacency lists whose order depends on insertion
  // history; sort so equal edge *sets* hash equal however they were built.
  std::vector<std::pair<unsigned, unsigned>> Edges = Graph.edges();
  std::sort(Edges.begin(), Edges.end());
  Hash = hashU64(Hash, Edges.size());
  for (const auto &[A, B] : Edges) {
    Hash = hashU64(Hash, A);
    Hash = hashU64(Hash, B);
    if (Graph.hasErrorModel())
      Hash = hashDouble(Hash, Graph.edgeError(A, B));
  }
  Hash = hashU64(Hash, Graph.hasErrorModel() ? 1 : 0);
  return Hash;
}

