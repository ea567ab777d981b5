//===- support/DynamicBitset.cpp - Resizable bit vector -------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/DynamicBitset.h"

using namespace qlosure;

void DynamicBitset::resize(size_t NewNumBits) {
  NumBits = NewNumBits;
  Words.resize((NumBits + 63) / 64, 0);
  clearUnusedBits();
}

void DynamicBitset::setAll() {
  for (uint64_t &Word : Words)
    Word = ~uint64_t(0);
  clearUnusedBits();
}

size_t DynamicBitset::count() const {
  size_t Total = 0;
  for (uint64_t Word : Words)
    Total += static_cast<size_t>(__builtin_popcountll(Word));
  return Total;
}

DynamicBitset &DynamicBitset::operator|=(const DynamicBitset &Other) {
  assert(NumBits == Other.NumBits && "universe size mismatch");
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    Words[I] |= Other.Words[I];
  return *this;
}

DynamicBitset &DynamicBitset::operator&=(const DynamicBitset &Other) {
  assert(NumBits == Other.NumBits && "universe size mismatch");
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    Words[I] &= Other.Words[I];
  return *this;
}

bool DynamicBitset::any() const {
  for (uint64_t Word : Words)
    if (Word)
      return true;
  return false;
}

bool DynamicBitset::intersects(const DynamicBitset &Other) const {
  assert(NumBits == Other.NumBits && "universe size mismatch");
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    if (Words[I] & Other.Words[I])
      return true;
  return false;
}

size_t DynamicBitset::findFirst() const {
  for (size_t W = 0; W < Words.size(); ++W)
    if (Words[W])
      return W * 64 + static_cast<size_t>(__builtin_ctzll(Words[W]));
  return NumBits;
}

size_t DynamicBitset::findNext(size_t Bit) const {
  if (Bit + 1 >= NumBits)
    return NumBits;
  size_t Start = Bit + 1;
  size_t W = Start >> 6;
  uint64_t Word = Words[W] & (~uint64_t(0) << (Start & 63));
  for (;;) {
    if (Word)
      return W * 64 + static_cast<size_t>(__builtin_ctzll(Word));
    if (++W == Words.size())
      return NumBits;
    Word = Words[W];
  }
}

void DynamicBitset::clearUnusedBits() {
  if (NumBits & 63)
    Words.back() &= (uint64_t(1) << (NumBits & 63)) - 1;
}
