//===- support/Random.h - Deterministic random number generation -*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable random number generation. All stochastic choices
/// in the library (tie-breaking, workload generation) flow through Rng so
/// that every experiment is reproducible from a printed seed.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SUPPORT_RANDOM_H
#define QLOSURE_SUPPORT_RANDOM_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qlosure {

/// xoshiro256** generator seeded via SplitMix64. Fast, high quality and
/// fully deterministic across platforms (unlike std::mt19937 distributions).
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9E3779B97F4A7C15ULL) { reseed(Seed); }

  /// Re-initializes the state from \p Seed using SplitMix64 expansion.
  void reseed(uint64_t Seed);

  /// Returns the next raw 64-bit value.
  uint64_t next();

  /// Returns a uniformly distributed integer in [0, Bound). \p Bound must be
  /// nonzero. Uses rejection sampling to avoid modulo bias.
  uint64_t nextBounded(uint64_t Bound);

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble();

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool nextBernoulli(double P);

  /// Fisher-Yates shuffles \p Values in place.
  template <typename T> void shuffle(std::vector<T> &Values) {
    if (Values.size() < 2)
      return;
    for (size_t I = Values.size() - 1; I > 0; --I) {
      size_t J = static_cast<size_t>(nextBounded(I + 1));
      std::swap(Values[I], Values[J]);
    }
  }

  /// Picks a uniformly random element of \p Values (must be nonempty).
  template <typename T> const T &pick(const std::vector<T> &Values) {
    assert(!Values.empty() && "cannot pick from an empty vector");
    return Values[static_cast<size_t>(nextBounded(Values.size()))];
  }

private:
  uint64_t State[4];
};

} // namespace qlosure

#endif // QLOSURE_SUPPORT_RANDOM_H
