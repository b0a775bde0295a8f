//===- heap/ImmixSpace.cpp - Mark-region space and allocator --------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "heap/ImmixSpace.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include <sys/mman.h>

using namespace wearmem;

//===----------------------------------------------------------------------===//
// BlockTable
//===----------------------------------------------------------------------===//

/// Reserves \p Bytes of zero-filled address space. Pages cost resident
/// memory only once written.
static void *reserveZeroed(size_t Bytes) {
  void *Mem = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Mem == MAP_FAILED) {
    std::fprintf(stderr, "wearmem: cannot reserve %zu block-table bytes\n",
                 Bytes);
    std::abort();
  }
  return Mem;
}

BlockTable::BlockTable(size_t BlockSize)
    : BlockShift(static_cast<unsigned>(std::countr_zero(BlockSize))) {
  assert(isPowerOfTwo(BlockSize) && BlockShift + LeafBits <= AddressBits &&
         "block size out of range");
  RootBytes = sizeof(Block **) << (AddressBits - BlockShift - LeafBits);
  Root = static_cast<Block ***>(reserveZeroed(RootBytes));
}

BlockTable::~BlockTable() {
  for (Block **Leaf : Leaves)
    munmap(Leaf, LeafBytes);
  munmap(Root, RootBytes);
}

void BlockTable::publish(Block *B) {
  uintptr_t Raw = reinterpret_cast<uintptr_t>(B->base());
  if (Raw >> AddressBits) {
    std::fprintf(stderr,
                 "wearmem: block at %p lies beyond the %u-bit block table\n",
                 static_cast<void *>(B->base()), AddressBits);
    std::abort();
  }
  uintptr_t Index = Raw >> BlockShift;
  // Writers are serialized, so only this thread ever stores the slot.
  std::atomic_ref<Block **> Slot(Root[Index >> LeafBits]);
  Block **Leaf = Slot.load(std::memory_order_relaxed);
  if (!Leaf) {
    Leaf = static_cast<Block **>(reserveZeroed(LeafBytes));
    Leaves.push_back(Leaf);
    Slot.store(Leaf, std::memory_order_release);
  }
  std::atomic_ref<Block *> Entry(Leaf[Index & LeafMask]);
  assert(!Entry.load(std::memory_order_relaxed) &&
         "block address registered twice");
  Entry.store(B, std::memory_order_release);
}

void BlockTable::clear(const uint8_t *Base) {
  uintptr_t Index = reinterpret_cast<uintptr_t>(Base) >> BlockShift;
  Block **Leaf = Root[Index >> LeafBits];
  assert(Leaf && "clearing a block that was never published");
  std::atomic_ref<Block *>(Leaf[Index & LeafMask])
      .store(nullptr, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// ImmixAllocator
//===----------------------------------------------------------------------===//

void ImmixAllocator::tagOwner(Block *B) {
  if (B && Lane >= 0)
    B->setOwnerLane(Lane);
}

void ImmixAllocator::untagOwner(Block *B) {
  if (B && B->ownerLane() == Lane && Lane >= 0)
    B->setOwnerLane(-1);
}

uint8_t *ImmixAllocator::allocFast(size_t Size) {
  if (Cursor && Cursor + Size <= Limit) {
    uint8_t *Result = Cursor;
    Cursor += Size;
    return Result;
  }
  return nullptr;
}

bool ImmixAllocator::installHole(Block *B, const Hole &H, uint8_t *&OutCur,
                                 uint8_t *&OutLim) {
  OutCur = B->lineAddr(H.StartLine);
  OutLim = B->lineAddr(H.EndLine);
  // Zero on acquisition: recycled holes contain dead objects, and OS
  // grants arrive unzeroed (their host memory may be an earlier runtime's).
  std::memset(OutCur, 0, static_cast<size_t>(OutLim - OutCur));
  return true;
}

uint8_t *ImmixAllocator::alloc(size_t Size) {
  assert(Size >= MinObjectBytes && Size % ObjectAlignment == 0 &&
         "allocation size must be aligned");
  assert(Size <= Config.BlockSize && "large objects belong in the LOS");
  // Small and medium objects first try the bump cursor; a medium object
  // that does not fit goes to the overflow block instead of skipping the
  // remaining hole space (Immix's heuristic for limiting waste).
  if (uint8_t *Fast = allocFast(Size))
    return Fast;
  ++Stats.AllocSlowPaths;
  if (Size > Config.LineSize)
    return allocOverflow(Size);
  return allocSmallSlow(Size);
}

uint8_t *ImmixAllocator::allocSmallSlow(size_t Size) {
  while (true) {
    if (Cur) {
      Hole H;
      ++Stats.HoleSearches;
      if (Cur->findHole(CurSearchLine, SweepEpoch, MarkEpoch,
                        Config.ConservativeLineMarking, H)) {
        CurSearchLine = H.EndLine;
        installHole(Cur, H, Cursor, Limit);
        if (uint8_t *Fast = allocFast(Size))
          return Fast;
        continue; // Hole smaller than the object; keep searching.
      }
      untagOwner(Cur);
      Cur = nullptr;
    }
    // Steady state prefers recycled blocks; completely free blocks are a
    // shared resource of last resort.
    Block *Next = Space.takeRecyclable();
    if (!Next)
      Next = Space.takeFree();
    if (!Next)
      return nullptr; // Collection required.
    Next->setState(BlockState::InUse);
    tagOwner(Next);
    Cur = Next;
    CurSearchLine = 0;
    Cursor = Limit = nullptr;
  }
}

uint8_t *ImmixAllocator::allocOverflow(size_t Size) {
  ++Stats.OverflowAllocs;
  // Bump into the current overflow hole.
  if (OvfCursor && OvfCursor + Size <= OvfLimit) {
    uint8_t *Result = OvfCursor;
    OvfCursor += Size;
    return Result;
  }
  // Failure-aware extension: the overflow block is not guaranteed to be
  // perfect, so search the remainder of the block for a hole that fits
  // before giving up on it.
  if (Ovf) {
    ++Stats.OverflowSearches;
    Hole H;
    unsigned From = OvfSearchLine;
    while (Ovf->findHole(From, SweepEpoch, MarkEpoch, Config.ConservativeLineMarking,
                         H)) {
      From = H.EndLine;
      if (H.lines() * Config.LineSize >= Size) {
        OvfSearchLine = H.EndLine;
        installHole(Ovf, H, OvfCursor, OvfLimit);
        uint8_t *Result = OvfCursor;
        OvfCursor += Size;
        return Result;
      }
    }
    untagOwner(Ovf);
    Ovf = nullptr;
  }
  // A fresh (possibly imperfect) free block.
  if (Block *Next = Space.takeFree()) {
    Next->setState(BlockState::InUse);
    tagOwner(Next);
    Ovf = Next;
    OvfSearchLine = 0;
    OvfCursor = OvfLimit = nullptr;
    Hole H;
    unsigned From = 0;
    while (Ovf->findHole(From, SweepEpoch, MarkEpoch, Config.ConservativeLineMarking,
                         H)) {
      From = H.EndLine;
      if (H.lines() * Config.LineSize >= Size) {
        OvfSearchLine = H.EndLine;
        installHole(Ovf, H, OvfCursor, OvfLimit);
        uint8_t *Result = OvfCursor;
        OvfCursor += Size;
        return Result;
      }
    }
  }
  // No free block (or it could not fit the object): drain recycled holes
  // under memory pressure before resorting to perfect memory. The block
  // becomes the new overflow block so subsequent mediums reuse its
  // remaining space.
  {
    unsigned NeedLines = static_cast<unsigned>(
        divCeil(Size, Config.LineSize));
    Hole H;
    if (Block *Recycled =
            Space.takeRecyclableFitting(NeedLines, SweepEpoch, MarkEpoch,
                                        H)) {
      Recycled->setState(BlockState::InUse);
      tagOwner(Recycled);
      Ovf = Recycled;
      OvfSearchLine = H.EndLine;
      installHole(Ovf, H, OvfCursor, OvfLimit);
      uint8_t *Result = OvfCursor;
      OvfCursor += Size;
      return Result;
    }
  }
  // Last resort: a perfect free block (fussy; only meaningful when
  // failure-aware, but harmless otherwise since without failures every
  // free block is perfect).
  if (!AllowPerfectFallback)
    return nullptr;
  ++Stats.PerfectBlockRequests;
  Block *Perfect = Space.takePerfectFree();
  if (!Perfect)
    return nullptr; // Collection required.
  Perfect->setState(BlockState::InUse);
  tagOwner(Perfect);
  Ovf = Perfect;
  Hole H;
  bool Found = Ovf->findHole(0, SweepEpoch, MarkEpoch, Config.ConservativeLineMarking,
                             H);
  assert(Found && H.lines() * Config.LineSize >= Size &&
         "a perfect free block must fit any non-large object");
  (void)Found;
  OvfSearchLine = H.EndLine;
  installHole(Ovf, H, OvfCursor, OvfLimit);
  uint8_t *Result = OvfCursor;
  OvfCursor += Size;
  return Result;
}

void ImmixAllocator::retire() {
  // Ownership lapses; the sweep will reclassify the blocks.
  untagOwner(Cur);
  untagOwner(Ovf);
  Cur = Ovf = nullptr;
  Cursor = Limit = OvfCursor = OvfLimit = nullptr;
  CurSearchLine = OvfSearchLine = 0;
}

void ImmixAllocator::invalidateCache() {
  // Dynamic failures may have retired lines inside the cached bump
  // regions; drop the regions (the blocks remain owned and are re-swept
  // at the next collection). Hole searches resume at the next line
  // *boundary*, not the cursor's line: a line the cursor has partially
  // consumed holds objects born since the last collection, whose line
  // marks are still clear - re-finding it as a hole would zero a live
  // object's tail and hand out its memory.
  auto NextLine = [](const Block *B, const uint8_t *At) {
    size_t Off = static_cast<size_t>(At - B->base());
    return static_cast<unsigned>(divCeil(Off, B->lineSize()));
  };
  if (Cur && Cursor)
    CurSearchLine = NextLine(Cur, Cursor);
  if (Ovf && OvfCursor)
    OvfSearchLine = NextLine(Ovf, OvfCursor);
  Cursor = Limit = nullptr;
  OvfCursor = OvfLimit = nullptr;
}

//===----------------------------------------------------------------------===//
// ImmixSpace
//===----------------------------------------------------------------------===//

ImmixSpace::ImmixSpace(FailureAwareOs &Os, const HeapConfig &Config,
                       HeapStats &Stats, BudgetGate Gate)
    : Os(Os), Config(Config), Stats(Stats), Gate(std::move(Gate)),
      Table(Config.BlockSize) {}

Block *ImmixSpace::createBlock(PageGrant &&Grant) {
  assert(Grant.NumPages == Config.pagesPerBlock() &&
         "grant must cover one block");
  assert((reinterpret_cast<uintptr_t>(Grant.Mem) &
          (Config.BlockSize - 1)) == 0 &&
         "blocks must be block-aligned");
  auto NewBlock = std::make_unique<Block>(Grant.Mem, Config);
  NewBlock->applyFailureWords(Grant.FailWords.data(), Grant.NumPages);
  NewBlock->setPageIds(std::move(Grant.PageIds));
  NewBlock->setCreationSeq(NextCreationSeq++);
  Block *Raw = NewBlock.get();
#ifdef WEARMEM_DEBUG_TRACE
  DebugReleased.erase(reinterpret_cast<uintptr_t>(Grant.Mem));
#endif
  Table.publish(Raw);
  Blocks.push_back(std::move(NewBlock));
  Stats.LinesSkippedFailed += Raw->failedLines();
  return Raw;
}

Block *ImmixSpace::takeRecyclable() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  Block *Found = nullptr;
  size_t Skipped = 0;
  while (!RecycleList.empty()) {
    Block *B = RecycleList.back();
    RecycleList.pop_back();
    if (B->evacuating()) {
      // Re-home the block at the far end instead of dropping it: an
      // evacuating block must be allocatable again the moment its
      // candidate flag clears, not leak off the list until some later
      // sweep happens to re-list it.
      RecycleList.push_front(B);
      if (++Skipped == RecycleList.size())
        break; // Every listed block is evacuating.
      continue;
    }
    assert(B->state() == BlockState::Recyclable && "stale recycle list");
    Found = B;
    break;
  }
  return Found;
}

Block *ImmixSpace::takeRecyclableFitting(unsigned NeedLines,
                                         uint8_t SweepEpoch,
                                         uint8_t MarkEpoch, Hole &Out) {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  // Bounded scan: a long fruitless walk would make every medium
  // allocation O(heap) under heavy fragmentation.
  constexpr size_t MaxProbes = 16;
  Block *Found = nullptr;
  for (size_t Probe = 0; Probe != MaxProbes && !RecycleList.empty();
       ++Probe) {
    Block *B = RecycleList.back();
    RecycleList.pop_back();
    if (B->evacuating()) {
      // Keep it listed (O(1) at the far end); it becomes allocatable
      // again as soon as evacuation ends.
      RecycleList.push_front(B);
      continue;
    }
    // Fast reject on the sweep's total. freeLines() is an upper bound on
    // any hole at these epochs (evacuation queries exclude strictly more
    // lines than the sweep that counted it), so this can admit a block
    // with no fitting hole but never wrongly rejects one.
    if (B->freeLines() >= NeedLines) {
      Hole H;
      // Resume from the block's fitting cursor: everything before it is
      // known to hold only holes too small for this request, so repeated
      // medium allocations stop rescanning the same prefix.
      unsigned From = B->fittingScanStart(NeedLines);
      while (B->findHole(From, SweepEpoch, MarkEpoch,
                         Config.ConservativeLineMarking, H)) {
        From = H.EndLine;
        if (H.lines() >= NeedLines) {
          B->noteFittingHole(H.EndLine);
          Out = H;
          Found = B;
          break;
        }
      }
      if (Found)
        break;
      B->noteNoFittingHole(NeedLines);
    }
    // Reinsert at the front so the next probe sequence sees fresh
    // candidates first.
    RecycleList.push_front(B);
  }
  return Found;
}

Block *ImmixSpace::takeFree() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  size_t Scanned = 0;
  size_t ListSize = FreeList.size();
  std::vector<Block *> SkippedEvacuating;
  while (!FreeList.empty() && Scanned++ != ListSize) {
    Block *B = FreeList.back();
    FreeList.pop_back();
    if (B->evacuating()) {
      // Reinstated below; see takeRecyclable.
      SkippedEvacuating.push_back(B);
      continue;
    }
    if (!SkippedEvacuating.empty())
      FreeList.insert(FreeList.begin(), SkippedEvacuating.begin(),
                      SkippedEvacuating.end());
    return B;
  }
  if (!SkippedEvacuating.empty())
    FreeList.insert(FreeList.begin(), SkippedEvacuating.begin(),
                    SkippedEvacuating.end());
  // Grow the space, budget permitting.
  size_t Pages = Config.pagesPerBlock();
  if (!Gate(Pages))
    return nullptr;
  std::optional<PageGrant> Grant = Os.allocRelaxed(Pages);
  if (!Grant)
    return nullptr;
  return createBlock(std::move(*Grant));
}

size_t ImmixSpace::releaseExcessFreeBlocks(
    size_t KeepFree, const std::function<void(const Block &)> &OnRelease) {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  if (FreeList.size() <= KeepFree)
    return 0;
  std::unordered_set<const Block *> Victims;
  while (FreeList.size() > KeepFree) {
    Block *B = FreeList.back();
    if (B->evacuating() || B->hasFreshFailure())
      break; // Rare; retry next sweep.
    FreeList.pop_back();
    if (OnRelease)
      OnRelease(*B);
    PageGrant Grant;
    Grant.Mem = B->base();
    Grant.NumPages = Config.pagesPerBlock();
    Grant.FailWords = B->pageFailureWords();
    // Page identity survives the round trip unless a page was remapped
    // onto a different physical page, which orphans the whole mapping.
    bool AnyRemapped = false;
    for (size_t Page = 0; Page != Grant.NumPages; ++Page)
      AnyRemapped |= B->pageWasRemapped(static_cast<unsigned>(Page));
    if (!AnyRemapped)
      Grant.PageIds = B->pageIds();
    // The world is stopped (this runs in the sweep), so no lookup can be
    // holding B across its release.
    Table.clear(B->base());
    Victims.insert(B);
#ifdef WEARMEM_DEBUG_TRACE
    DebugReleased[reinterpret_cast<uintptr_t>(B->base())] =
        ++DebugReleaseTick;
#endif
    Os.freeRelaxed(std::move(Grant));
  }
  if (Victims.empty())
    return 0;
  size_t Released = Victims.size();
  std::erase_if(Blocks, [&](const std::unique_ptr<Block> &B) {
    return Victims.count(B.get()) != 0;
  });
  return Released;
}

Block *ImmixSpace::takePerfectFree() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  // Prefer a perfect block already in the local free list. Unsuitable
  // blocks (evacuating or imperfect) are skipped *in place* - only the
  // chosen block is erased - so unlike the pop-and-drop paths above this
  // scan never orphans a block from its list.
  for (size_t I = FreeList.size(); I != 0;) {
    --I;
    Block *B = FreeList[I];
    if (B->evacuating() || !B->isPerfect())
      continue;
    FreeList.erase(FreeList.begin() + static_cast<ptrdiff_t>(I));
    return B;
  }
  size_t Pages = Config.pagesPerBlock();
  if (!Gate(Pages))
    return nullptr;
  if (Os.outstandingDebt() >= Config.maxDebtPages())
    return nullptr;
  std::optional<PageGrant> Grant =
      Os.allocPerfect(Pages, /*BlockAligned=*/true);
  if (!Grant)
    return nullptr;
  return createBlock(std::move(*Grant));
}

void ImmixSpace::selectDefragCandidates() {
  // Copy headroom: the free lines of every block still on the free and
  // recycle lists. Evacuation may target recyclable holes (hole lookup
  // during collection uses the previous sweep's epoch, so this is safe),
  // which is what lets a fully-recyclable heap still defragment.
  size_t AvailableLines = 0;
  for (Block *B : FreeList)
    AvailableLines += B->freeLines();
  for (Block *B : RecycleList)
    AvailableLines += B->freeLines();

  auto LiveEstimate = [](const Block *B) {
    return B->lineCount() - B->freeLines() - B->failedLines();
  };

  // Blocks with fresh dynamic failures are unconditional candidates (the
  // affected objects *must* move).
  std::vector<Block *> Fragmented;
  for (auto &B : Blocks) {
    if (B->state() == BlockState::Retired)
      continue; // Nothing live to move, nothing free to use.
    if (B->hasFreshFailure()) {
      B->setEvacuating(true);
      size_t Need = LiveEstimate(B.get()) + B->freeLines();
      AvailableLines -= std::min(AvailableLines, Need);
      continue;
    }
    if (B->state() == BlockState::Recyclable &&
        B->freeLines() >=
            static_cast<unsigned>(Config.DefragFreeFraction *
                                  static_cast<double>(B->lineCount())))
      Fragmented.push_back(B.get());
  }
  // Most fragmented first. Choosing block B costs its live lines (the
  // copies) and removes its own free lines from the target pool.
  std::sort(Fragmented.begin(), Fragmented.end(),
            [](const Block *A, const Block *B) {
              return A->freeLines() > B->freeLines();
            });
  for (Block *B : Fragmented) {
    size_t Need = LiveEstimate(B) + B->freeLines();
    if (Need + Need / 2 > AvailableLines)
      break; // Keep a 1.5x safety margin of target space.
    AvailableLines -= Need;
    B->setEvacuating(true);
  }
}

void ImmixSpace::clearDefragCandidates() {
  for (auto &B : Blocks) {
    B->setEvacuating(false);
    B->setFreshFailure(false);
  }
}

/// An *empty* block whose failed-line fraction reaches this is retired
/// at sweep: it leaves the free/recycle lists for good (its pages are
/// mostly dead memory and recycling it would just spread allocation
/// across holes).
static constexpr double RetireBlockFailedFraction = 0.75;

ImmixSweepTotals ImmixSpace::sweep(uint8_t Epoch, const GcParallelFor &Par) {
  FreeList.clear();
  RecycleList.clear();
  ImmixSweepTotals Totals;
  // Shard the per-block recount (each Block::sweep touches only its own
  // block's state) into per-index result slots; everything order-dependent
  // happens in the serial merge below.
  std::vector<Block::SweepResult> Results(Blocks.size());
  auto SweepOne = [&](size_t I) {
    Block &B = *Blocks[I];
    if (B.state() != BlockState::Retired)
      Results[I] = B.sweep(Epoch, Config.ConservativeLineMarking);
  };
  if (Par)
    Par(Blocks.size(), SweepOne);
  else
    for (size_t I = 0, E = Blocks.size(); I != E; ++I)
      SweepOne(I);
  for (size_t I = 0, E = Blocks.size(); I != E; ++I) {
    auto &B = Blocks[I];
    if (B->state() == BlockState::Retired) {
      // Permanently withdrawn: the pages stay charged to the budget but
      // the lines no longer count as allocatable capacity.
      ++Totals.RetiredBlocks;
      Totals.FailedLines += B->failedLines();
      continue;
    }
    Block::SweepResult R = Results[I];
    Stats.LinesSwept += B->lineCount();
    Totals.TotalLines += B->lineCount();
    Totals.FreeLines += R.FreeLines;
    Totals.FailedLines += B->failedLines();
    if (R.Empty && B->dynamicFailedLines() > 0 &&
        B->failedLines() >=
            static_cast<unsigned>(RetireBlockFailedFraction *
                                  static_cast<double>(B->lineCount()))) {
      // Graceful degradation: an empty block that dynamic wear-out has
      // reduced to mostly holes is retired rather than recycled -
      // spreading allocation across its few surviving lines just
      // multiplies future evacuation work. Statically imperfect blocks
      // are exempt: their failures were known at grant time and the
      // compensated heap budget counts on their working lines.
      B->setState(BlockState::Retired);
      B->setFreshFailure(false);
      B->setEvacuating(false);
      // Zero the surviving stale line marks: nothing may ever be marked
      // in a retired block again, and a zeroed table cannot alias a
      // future epoch (the auditor relies on this).
      for (unsigned Line = 0; Line != B->lineCount(); ++Line)
        B->markLine(Line, 0);
      ++RetiredCount;
      ++Stats.BlocksRetired;
      ++Totals.RetiredBlocks;
      continue;
    }
    if (R.Empty && R.FreeLines > 0) {
      B->setState(BlockState::Free);
      FreeList.push_back(B.get());
      ++Totals.FreeBlocks;
    } else if (R.Holes > 0) {
      B->setState(BlockState::Recyclable);
      RecycleList.push_back(B.get());
      ++Totals.RecyclableBlocks;
    } else {
      B->setState(BlockState::Full);
      ++Totals.FullBlocks;
    }
  }
  // Recycle the fullest blocks first so sparse ones stay whole for
  // medium objects and future defragmentation.
  std::sort(RecycleList.begin(), RecycleList.end(),
            [](const Block *A, const Block *B) {
              return A->freeLines() > B->freeLines();
            });
  return Totals;
}
