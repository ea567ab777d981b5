//===- support/Random.cpp - Deterministic random number generation --------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Random.h"

using namespace qlosure;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9E3779B97F4A7C15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

void Rng::reseed(uint64_t Seed) {
  uint64_t S = Seed;
  for (uint64_t &Word : State)
    Word = splitMix64(S);
  // A pathological all-zero state would make xoshiro emit only zeros.
  if (!(State[0] | State[1] | State[2] | State[3]))
    State[0] = 0x9E3779B97F4A7C15ULL;
}

uint64_t Rng::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t Rng::nextBounded(uint64_t Bound) {
  assert(Bound != 0 && "nextBounded requires a nonzero bound");
  // Rejection sampling over the largest multiple of Bound.
  uint64_t Threshold = (0ULL - Bound) % Bound;
  for (;;) {
    uint64_t Value = next();
    if (Value >= Threshold)
      return Value % Bound;
  }
}

double Rng::nextDouble() {
  // 53 uniformly random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::nextBernoulli(double P) {
  if (P <= 0.0)
    return false;
  if (P >= 1.0)
    return true;
  return nextDouble() < P;
}
