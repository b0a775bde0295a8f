//===- support/RadixSort.h - LSD radix sort on 64-bit keys ------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A least-significant-digit radix sort on a 64-bit key: one stable
/// counting pass per key byte. A byte that is the same in every key would
/// be an identity pass, so it is skipped; keys that differ only in a few
/// bytes (the heap's object addresses, its (block sequence, offset)
/// evacuation keys) sort in two or three linear passes, which beats a
/// comparison sort's n log n on the collector's candidate lists and the
/// auditor's extent lists.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_SUPPORT_RADIXSORT_H
#define WEARMEM_SUPPORT_RADIXSORT_H

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace wearmem {

/// Sorts \p Items stably by ascending \p Key(Item), a uint64_t. \p Scratch
/// holds the other half of every pass (a caller that sorts repeatedly
/// can keep it to reuse its capacity); its contents afterwards are
/// unspecified.
template <typename T, typename KeyFn>
void radixSortByKey(std::vector<T> &Items, std::vector<T> &Scratch,
                    KeyFn Key) {
  if (Items.size() < 2)
    return;
  uint64_t AnyBit = 0, EveryBit = ~uint64_t(0);
  for (const T &Item : Items) {
    uint64_t K = Key(Item);
    AnyBit |= K;
    EveryBit &= K;
  }
  uint64_t Varying = AnyBit ^ EveryBit;
  Scratch.resize(Items.size());
  for (unsigned Shift = 0; Shift < 64 && (Varying >> Shift) != 0;
       Shift += 8) {
    if (((Varying >> Shift) & 0xFF) == 0)
      continue;
    size_t Next[257] = {};
    for (const T &Item : Items)
      ++Next[((Key(Item) >> Shift) & 0xFF) + 1];
    std::partial_sum(Next, Next + 257, Next);
    for (const T &Item : Items)
      Scratch[Next[(Key(Item) >> Shift) & 0xFF]++] = Item;
    Items.swap(Scratch);
  }
}

} // namespace wearmem

#endif // WEARMEM_SUPPORT_RADIXSORT_H
