//===- heap/FreeListSpace.h - Segregated-fit mark-sweep space ----*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A segregated-fit free-list space, the heap organization behind the
/// MarkSweep and StickyMarkSweep baselines of Figure 3 and the paper's
/// Section 3.3.1 discussion of native runtimes. Blocks are dedicated to a
/// size class and carved into equal cells on demand.
///
/// An optional failure-aware mode implements the paper's sketch of what a
/// free-list allocator must do for *static* failures: cells that overlap
/// failed lines are withheld from the free lists (at the cost of the
/// granularity mismatch the paper describes - a 64 B failure can poison a
/// multi-kilobyte cell). Dynamic failures remain the OS's problem for this
/// space: it cannot move objects.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_HEAP_FREELISTSPACE_H
#define WEARMEM_HEAP_FREELISTSPACE_H

#include "heap/HeapConfig.h"
#include "heap/Object.h"
#include "os/Os.h"
#include "support/Bitmap.h"

#include <array>
#include <functional>
#include <memory>
#include <vector>

namespace wearmem {

/// Segregated-fit mark-sweep space.
class FreeListSpace {
public:
  using BudgetGate = std::function<bool(size_t)>;

  /// Cell size classes; allocations above the last class use the LOS.
  static constexpr std::array<uint32_t, 18> SizeClasses = {
      16,  32,  48,   64,   96,   128,  192,  256,  384,
      512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192};

  FreeListSpace(FailureAwareOs &Os, const HeapConfig &Config,
                HeapStats &Stats, BudgetGate Gate)
      : Os(Os), Config(Config), Stats(Stats), Gate(std::move(Gate)) {}

  /// Allocates a zeroed cell of at least \p Size bytes, or nullptr when a
  /// collection is required. \p Size must not exceed the largest class.
  uint8_t *alloc(size_t Size);

  /// Sweep summary.
  struct SweepTotals {
    size_t FreeBytes = 0;
    size_t TotalBytes = 0;
  };

  /// Frees cells whose object mark is not \p Epoch and rebuilds the free
  /// lists.
  SweepTotals sweep(uint8_t Epoch);

  size_t pagesHeld() const {
    return BlockCount * Config.pagesPerBlock();
  }

  static size_t classIndexFor(size_t Size);
  static size_t maxCellSize() { return SizeClasses.back(); }

private:
  struct FlBlock {
    uint8_t *Mem;
    uint32_t CellSize;
    Bitmap Used;   // Cell currently holds an allocated object.
    Bitmap Usable; // Cell does not overlap a failed line.
  };

  struct FreeCell {
    FlBlock *Owner;
    uint32_t CellIdx;
  };

  bool growClass(size_t ClassIdx);

  FailureAwareOs &Os;
  const HeapConfig &Config;
  HeapStats &Stats;
  BudgetGate Gate;
  std::array<std::vector<FreeCell>, SizeClasses.size()> FreeCells;
  std::array<std::vector<std::unique_ptr<FlBlock>>, SizeClasses.size()>
      ClassBlocks;
  size_t BlockCount = 0;
};

} // namespace wearmem

#endif // WEARMEM_HEAP_FREELISTSPACE_H
