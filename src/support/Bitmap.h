//===- support/Bitmap.h - Dynamic bit vector --------------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact dynamic bit vector used for per-page failure bitmaps (one bit
/// per 64 B PCM line, exactly the 64-bit-per-4KB-page encoding of Section
/// 3.2.1 of the paper) and for block-level failure masks.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_SUPPORT_BITMAP_H
#define WEARMEM_SUPPORT_BITMAP_H

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wearmem {

/// Fixed-size-at-construction bit vector with word-at-a-time scans.
class Bitmap {
public:
  Bitmap() = default;

  explicit Bitmap(size_t NumBits)
      : NumBits(NumBits), Words((NumBits + 63) / 64, 0) {}

  size_t size() const { return NumBits; }

  bool get(size_t Idx) const {
    assert(Idx < NumBits && "bitmap index out of range");
    return (Words[Idx / 64] >> (Idx % 64)) & 1;
  }

  void set(size_t Idx) {
    assert(Idx < NumBits && "bitmap index out of range");
    Words[Idx / 64] |= uint64_t(1) << (Idx % 64);
  }

  void clear(size_t Idx) {
    assert(Idx < NumBits && "bitmap index out of range");
    Words[Idx / 64] &= ~(uint64_t(1) << (Idx % 64));
  }

  /// \name Atomic bit updates
  /// Lock-free set/clear for concurrent writers (the parallel mark phase
  /// updates per-block epoch bitmaps from several GC workers at once).
  /// Relaxed ordering suffices: phase barriers publish the results.
  /// Must not race with the non-atomic mutators or with resizing.
  /// @{
  void setAtomic(size_t Idx) {
    assert(Idx < NumBits && "bitmap index out of range");
    std::atomic_ref<uint64_t>(Words[Idx / 64])
        .fetch_or(uint64_t(1) << (Idx % 64), std::memory_order_relaxed);
  }

  void clearAtomic(size_t Idx) {
    assert(Idx < NumBits && "bitmap index out of range");
    std::atomic_ref<uint64_t>(Words[Idx / 64])
        .fetch_and(~(uint64_t(1) << (Idx % 64)),
                   std::memory_order_relaxed);
  }
  /// @}

  void setAll() {
    for (auto &W : Words)
      W = ~uint64_t(0);
    maskTail();
  }

  void clearAll() {
    for (auto &W : Words)
      W = 0;
  }

  /// Sets bits [From, From + Count), a word mask at a time.
  void setRange(size_t From, size_t Count) {
    forEachRangeWord(From, Count,
                     [](uint64_t &W, uint64_t Mask) { W |= Mask; });
  }

  /// Clears bits [From, From + Count), a word mask at a time.
  void clearRange(size_t From, size_t Count) {
    forEachRangeWord(From, Count,
                     [](uint64_t &W, uint64_t Mask) { W &= ~Mask; });
  }

  /// Number of set bits.
  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(std::popcount(W));
    return N;
  }

  bool any() const {
    for (uint64_t W : Words)
      if (W != 0)
        return true;
    return false;
  }

  bool none() const { return !any(); }

  bool operator==(const Bitmap &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

  /// Raw word access, used when a 4 KB page's 64-line map is stored as one
  /// machine word (the paper's uncompressed OS table encoding).
  uint64_t word(size_t WordIdx) const {
    assert(WordIdx < Words.size() && "word index out of range");
    return Words[WordIdx];
  }

private:
  /// Calls \p Apply(Word, Mask) for each word that bits [From, From +
  /// Count) touch, with Mask selecting the range's bits in that word.
  template <typename ApplyFn>
  void forEachRangeWord(size_t From, size_t Count, ApplyFn Apply) {
    assert(From <= NumBits && Count <= NumBits - From &&
           "bitmap range out of range");
    while (Count != 0) {
      size_t Bit = From % 64;
      size_t Take = Count < 64 - Bit ? Count : 64 - Bit;
      uint64_t Mask = Take == 64 ? ~uint64_t(0)
                                 : ((uint64_t(1) << Take) - 1) << Bit;
      Apply(Words[From / 64], Mask);
      From += Take;
      Count -= Take;
    }
  }

  void maskTail() {
    if (NumBits % 64 != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace wearmem

#endif // WEARMEM_SUPPORT_BITMAP_H
