//===- heap/FreeListSpace.cpp - Segregated-fit mark-sweep space -----------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "heap/FreeListSpace.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace wearmem;

size_t FreeListSpace::classIndexFor(size_t Size) {
  assert(Size <= SizeClasses.back() && "oversized free-list request");
  for (size_t I = 0; I != SizeClasses.size(); ++I)
    if (SizeClasses[I] >= Size)
      return I;
  assert(false && "unreachable: size checked above");
  return SizeClasses.size() - 1;
}

uint8_t *FreeListSpace::alloc(size_t Size) {
  size_t ClassIdx = classIndexFor(Size);
  // Under heavy failure rates a fresh block may contribute zero usable
  // cells (every cell overlaps some failed line - the granularity
  // mismatch of Section 3.3.1); keep growing until a cell appears or the
  // budget refuses.
  while (FreeCells[ClassIdx].empty()) {
    ++Stats.AllocSlowPaths;
    if (!growClass(ClassIdx))
      return nullptr;
  }
  FreeCell Cell = FreeCells[ClassIdx].back();
  FreeCells[ClassIdx].pop_back();
  Cell.Owner->Used.set(Cell.CellIdx);
  uint32_t CellSize = SizeClasses[ClassIdx];
  uint8_t *Mem = Cell.Owner->Mem + Cell.CellIdx * CellSize;
  std::memset(Mem, 0, CellSize);
  return Mem;
}

bool FreeListSpace::growClass(size_t ClassIdx) {
  size_t Pages = Config.pagesPerBlock();
  if (!Gate(Pages))
    return false;
  std::optional<PageGrant> Grant = Os.allocRelaxed(Pages);
  if (!Grant)
    return false;

  uint32_t CellSize = SizeClasses[ClassIdx];
  size_t NumCells = Config.BlockSize / CellSize;
  auto NewBlock = std::make_unique<FlBlock>();
  NewBlock->Mem = Grant->Mem;
  NewBlock->CellSize = CellSize;
  NewBlock->Used = Bitmap(NumCells);
  NewBlock->Usable = Bitmap(NumCells);
  NewBlock->Usable.setAll();

  if (Config.FreeListFailureAware) {
    // Withhold every cell that overlaps a failed 64 B line: the
    // granularity-mismatch cost of making a free list failure-aware.
    for (size_t Page = 0; Page != Grant->NumPages; ++Page) {
      uint64_t Word = Grant->FailWords[Page];
      if (Word == 0)
        continue;
      for (size_t Bit = 0; Bit != PcmLinesPerPage; ++Bit) {
        if (!(Word & (uint64_t(1) << Bit)))
          continue;
        size_t LineStart = Page * PcmPageSize + Bit * PcmLineSize;
        size_t FirstCell = LineStart / CellSize;
        size_t LastCell = (LineStart + PcmLineSize - 1) / CellSize;
        // Failed lines in the slack area past the last whole cell do not
        // map to any cell.
        LastCell = std::min(LastCell, NumCells - 1);
        for (size_t Cell = FirstCell;
             Cell <= LastCell && Cell < NumCells; ++Cell)
          NewBlock->Usable.clear(Cell);
      }
    }
  } else {
    assert(Config.Failures.Rate == 0.0 &&
           "free-list space used with failures but not failure-aware");
  }

  for (size_t Cell = 0; Cell != NumCells; ++Cell)
    if (NewBlock->Usable.get(Cell))
      FreeCells[ClassIdx].push_back(
          FreeCell{NewBlock.get(), static_cast<uint32_t>(Cell)});

  ClassBlocks[ClassIdx].push_back(std::move(NewBlock));
  ++BlockCount;
  return true; // Possibly zero usable cells; alloc() loops.
}

FreeListSpace::SweepTotals FreeListSpace::sweep(uint8_t Epoch) {
  SweepTotals Totals;
  for (size_t ClassIdx = 0; ClassIdx != SizeClasses.size(); ++ClassIdx) {
    FreeCells[ClassIdx].clear();
    uint32_t CellSize = SizeClasses[ClassIdx];
    for (auto &B : ClassBlocks[ClassIdx]) {
      size_t NumCells = Config.BlockSize / CellSize;
      Totals.TotalBytes += Config.BlockSize;
      for (size_t Cell = 0; Cell != NumCells; ++Cell) {
        if (!B->Usable.get(Cell))
          continue;
        uint8_t *Mem = B->Mem + Cell * CellSize;
        if (B->Used.get(Cell)) {
          if (objectMark(Mem) == Epoch)
            continue; // Live.
          B->Used.clear(Cell);
        }
        Totals.FreeBytes += CellSize;
        FreeCells[ClassIdx].push_back(
            FreeCell{B.get(), static_cast<uint32_t>(Cell)});
      }
      Stats.LinesSwept += Config.BlockSize / Config.LineSize;
    }
  }
  return Totals;
}
