//===- support/DynamicBitset.h - Resizable bit vector -----------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact resizable bit vector with fast bulk OR/AND, used by the exact
/// transitive-closure engine where each gate carries the set of its
/// transitive successors.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SUPPORT_DYNAMICBITSET_H
#define QLOSURE_SUPPORT_DYNAMICBITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qlosure {

/// Fixed-universe bit vector. The universe size is set at construction (or
/// via resize) and all operations assert compatible sizes.
class DynamicBitset {
public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t NumBits) { resize(NumBits); }

  /// Resizes the universe to \p NumBits, clearing any newly exposed bits.
  void resize(size_t NumBits);

  size_t size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  void set(size_t Bit) {
    assert(Bit < NumBits && "bit index out of range");
    Words[Bit >> 6] |= (uint64_t(1) << (Bit & 63));
  }

  void reset(size_t Bit) {
    assert(Bit < NumBits && "bit index out of range");
    Words[Bit >> 6] &= ~(uint64_t(1) << (Bit & 63));
  }

  bool test(size_t Bit) const {
    assert(Bit < NumBits && "bit index out of range");
    return (Words[Bit >> 6] >> (Bit & 63)) & 1;
  }

  /// Sets all bits in the universe.
  void setAll();

  /// Number of set bits.
  size_t count() const;

  /// Bitwise OR-assign; universes must match.
  DynamicBitset &operator|=(const DynamicBitset &Other);

  /// Bitwise AND-assign; universes must match.
  DynamicBitset &operator&=(const DynamicBitset &Other);

  /// Returns true if any bit is set.
  bool any() const;

  /// Returns true if this and \p Other share at least one set bit.
  bool intersects(const DynamicBitset &Other) const;

  bool operator==(const DynamicBitset &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

  /// Index of the first set bit, or size() when none is set.
  size_t findFirst() const;

  /// Index of the first set bit strictly after \p Bit, or size().
  size_t findNext(size_t Bit) const;

  /// Invokes \p Fn(Index) for every set bit in increasing order.
  template <typename FnT> void forEachSetBit(FnT Fn) const {
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t Word = Words[W];
      while (Word) {
        unsigned Offset = static_cast<unsigned>(__builtin_ctzll(Word));
        Fn(W * 64 + Offset);
        Word &= Word - 1;
      }
    }
  }

private:
  /// Zeroes the bits beyond NumBits in the last word so count() stays exact.
  void clearUnusedBits();

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace qlosure

#endif // QLOSURE_SUPPORT_DYNAMICBITSET_H
