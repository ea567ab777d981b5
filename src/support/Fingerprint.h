//===- support/Fingerprint.h - Content hashes for cache keys -----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit content fingerprints used as cache keys by the qlosured service
/// layer: two circuits (or coupling graphs) with equal fingerprints are
/// treated as interchangeable for mapping purposes, so the hash folds in
/// exactly the state the routers read — gate kinds, operands and
/// parameters, qubit counts, edges, and the installed edge-error model —
/// and nothing derived from it (distance matrix, DAGs) or cosmetic
/// (names). Collisions are possible in principle at 64 bits; at service
/// cache sizes (thousands of entries) the birthday bound keeps the
/// probability negligible, and a collision only yields a stale-but-valid
/// routed answer for the colliding circuit, never memory unsafety.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SUPPORT_FINGERPRINT_H
#define QLOSURE_SUPPORT_FINGERPRINT_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace qlosure {

class Circuit;
class CouplingGraph;

/// FNV-1a over \p Size raw bytes, seeded with \p Seed (chain calls by
/// passing the previous result as the seed).
uint64_t hashBytes(const void *Data, size_t Size,
                   uint64_t Seed = 0xCBF29CE484222325ULL);

/// Order-dependent combination of two 64-bit hashes (boost-style mix).
uint64_t hashCombine(uint64_t Seed, uint64_t Value);

/// Content hash of \p Text.
uint64_t fingerprintString(const std::string &Text);

/// Content hash of a circuit: qubit count plus every gate's kind, operands
/// and parameter bit patterns, in trace order. The circuit name is
/// excluded (renaming a circuit must not defeat the cache).
uint64_t fingerprint(const Circuit &Circ);

/// Content hash of a coupling graph: qubit count, the sorted edge set, and
/// the edge-error model when one is installed (so two calibrations of the
/// same topology key different cache entries). Derived state (the distance
/// matrix) and the name are excluded.
uint64_t fingerprint(const CouplingGraph &Graph);

} // namespace qlosure

#endif // QLOSURE_SUPPORT_FINGERPRINT_H
