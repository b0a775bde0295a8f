//===- heap/ImmixSpace.h - Mark-region space and allocator ------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Immix mark-region heap space (Blackburn & McKinley, PLDI 2008) with
/// the paper's failure-aware extensions (Section 4):
///
///  * blocks acquired from the OS carry per-page failure maps; overlapped
///    lines enter the Failed line state and are never allocated into;
///  * the bump allocator skips failed lines exactly as it skips live ones;
///  * overflow (medium-object) allocation searches the remainder of the
///    overflow block for a fitting hole before falling back to requesting
///    a *perfect* free block from the OS (a fussy request);
///  * defragmentation candidacy is extended to blocks hit by dynamic
///    failures.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_HEAP_IMMIXSPACE_H
#define WEARMEM_HEAP_IMMIXSPACE_H

#include "heap/Block.h"
#include "heap/HeapConfig.h"
#include "heap/Object.h"
#include "os/Os.h"

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace wearmem {

class ImmixSpace;

/// Lock-free, constant-time map from a heap address to its Block: a
/// two-level radix table indexed by Addr >> log2(BlockSize), the
/// arithmetic lookup Immix's block-aligned layout allows. The root and
/// each leaf are reserved with mmap and stay untouched (costing no
/// resident memory) until a block in their range is published. The
/// table spans the whole user address range rather than an arena sized
/// from the page budget, because grants are unbounded in number: every
/// DRAM borrow maps fresh host memory.
///
/// Contract: publish() and clear() are serialized by the caller
/// (ImmixSpace holds RegistryMu); lookup() takes no lock and may race
/// publish(). Entries are release-stored and acquire-loaded, so a reader
/// that finds a Block sees it fully constructed. clear() may run only
/// while no reader can hold the cleared Block * (the stopped-world
/// sweep). Leaves never move and are unmapped only with the table.
class BlockTable {
public:
  /// Address bits covered. x86-64 and AArch64 Linux hand user space no
  /// higher address unless a mapping explicitly asks for one.
  static constexpr unsigned AddressBits = 48;
  static_assert(sizeof(uintptr_t) * 8 > AddressBits,
                "the block table assumes 64-bit addresses");

  explicit BlockTable(size_t BlockSize);
  ~BlockTable();
  BlockTable(const BlockTable &) = delete;
  BlockTable &operator=(const BlockTable &) = delete;

  /// The published block whose range contains \p Addr, or nullptr
  /// (including for every address beyond AddressBits).
  Block *lookup(const uint8_t *Addr) const {
    uintptr_t Raw = reinterpret_cast<uintptr_t>(Addr);
    if (Raw >> AddressBits)
      return nullptr;
    uintptr_t Index = Raw >> BlockShift;
    Block **Leaf = std::atomic_ref<Block **>(Root[Index >> LeafBits])
                       .load(std::memory_order_acquire);
    if (!Leaf)
      return nullptr;
    return std::atomic_ref<Block *>(Leaf[Index & LeafMask])
        .load(std::memory_order_acquire);
  }

  /// Maps \p B's whole range to \p B. A base beyond AddressBits aborts
  /// the process in every build: a block the table cannot find would
  /// turn every later lookup of its objects into a silent miss.
  void publish(Block *B);

  /// Unmaps the range of the block based at \p Base.
  void clear(const uint8_t *Base);

private:
  static constexpr unsigned LeafBits = 16;
  static constexpr uintptr_t LeafMask = (uintptr_t(1) << LeafBits) - 1;
  static constexpr size_t LeafBytes = sizeof(Block *) << LeafBits;

  unsigned BlockShift = 0;
  size_t RootBytes = 0;
  Block ***Root = nullptr;
  /// Mapped leaves, for the destructor (writer-side only).
  std::vector<Block **> Leaves;
};

/// A thread-local bump allocator over Immix blocks, with a separate
/// overflow cursor for medium objects. Also used (with a distinct hole
/// epoch) as the evacuation allocator during collections.
class ImmixAllocator {
public:
  ImmixAllocator(ImmixSpace &Space, const HeapConfig &Config,
                 HeapStats &Stats)
      : Space(Space), Config(Config), Stats(Stats) {}

  /// Epochs used to *find holes*. For mutator allocation both equal the
  /// current mark epoch. During a full-collection evacuation,
  /// \p SweepEpoch is the previous epoch (the state of the last sweep, so
  /// not-yet-marked live lines are not treated as free) and \p MarkEpoch
  /// is the current one (so lines the trace already re-marked in place
  /// are not treated as free either).
  void setHoleEpochs(uint8_t SweepEpoch, uint8_t MarkEpoch) {
    this->SweepEpoch = SweepEpoch;
    this->MarkEpoch = MarkEpoch;
  }

  /// Evacuation is opportunistic: it must not borrow perfect pages just
  /// to copy a medium object, so the evacuation allocator disables the
  /// fussy overflow fallback and simply fails (the object stays put).
  void setAllowPerfectFallback(bool Allow) {
    AllowPerfectFallback = Allow;
  }

  /// Returns \p Size bytes of zeroed, line-hole-respecting memory, or
  /// nullptr if the space cannot supply a block (collection required).
  uint8_t *alloc(size_t Size);

  /// Drops block ownership (called at collection start); the blocks'
  /// remaining holes are rediscovered by the next sweep.
  void retire();

  /// Invalidates cached bump regions after lines failed dynamically.
  void invalidateCache();

  /// The mutator lane this allocator serves. Blocks acquired for the
  /// small-object TLAB are tagged with the lane so dynamic-failure
  /// interrupts can be routed to the owning thread; -1 (the evacuation
  /// allocator, legacy single-mutator paths) leaves blocks untagged.
  void setLane(int Lane) { this->Lane = Lane; }
  int lane() const { return Lane; }

  /// \name TLAB introspection (auditor, thread-targeted fault shapes)
  /// @{
  Block *currentBlock() const { return Cur; }
  Block *overflowBlock() const { return Ovf; }
  const uint8_t *cursor() const { return Cursor; }
  const uint8_t *limit() const { return Limit; }
  const uint8_t *ovfCursor() const { return OvfCursor; }
  const uint8_t *ovfLimit() const { return OvfLimit; }
  /// @}

private:
  uint8_t *allocFast(size_t Size);
  uint8_t *allocSmallSlow(size_t Size);
  uint8_t *allocOverflow(size_t Size);
  bool installHole(Block *B, const Hole &H, uint8_t *&Cursor,
                   uint8_t *&Limit);

  /// Tags \p B as owned by this allocator's lane (no-op for lane -1).
  void tagOwner(Block *B);
  /// Clears the owner tag when a TLAB block is abandoned.
  void untagOwner(Block *B);

  ImmixSpace &Space;
  const HeapConfig &Config;
  HeapStats &Stats;
  uint8_t SweepEpoch = 1;
  uint8_t MarkEpoch = 1;
  bool AllowPerfectFallback = true;
  int Lane = -1;

  Block *Cur = nullptr;
  unsigned CurSearchLine = 0;
  uint8_t *Cursor = nullptr;
  uint8_t *Limit = nullptr;

  Block *Ovf = nullptr;
  unsigned OvfSearchLine = 0;
  uint8_t *OvfCursor = nullptr;
  uint8_t *OvfLimit = nullptr;
};

/// Sweep summary across the space.
struct ImmixSweepTotals {
  size_t FreeBlocks = 0;
  size_t RecyclableBlocks = 0;
  size_t FullBlocks = 0;
  size_t RetiredBlocks = 0;
  size_t FreeLines = 0;
  size_t TotalLines = 0;
  size_t FailedLines = 0;
};

/// The block-structured space itself.
class ImmixSpace {
public:
  /// \p Gate is consulted (with a page count) before growing the space;
  /// it implements the heap budget.
  using BudgetGate = std::function<bool(size_t)>;

  ImmixSpace(FailureAwareOs &Os, const HeapConfig &Config, HeapStats &Stats,
             BudgetGate Gate);

  /// A block with reusable holes, or nullptr. Skips blocks that are being
  /// evacuated.
  Block *takeRecyclable();

  /// A recyclable block containing a hole of at least \p NeedLines lines
  /// (found at the given epochs; \p Out receives it). Scans a bounded
  /// number of list entries, reinserting unsuitable blocks at the far end
  /// in O(1) and resuming each block's hole search from its fitting
  /// cursor. This is the overflow allocator's pressure-relief: when no
  /// completely free block remains, medium objects can still drain
  /// recycled holes instead of demanding perfect memory or collection.
  Block *takeRecyclableFitting(unsigned NeedLines, uint8_t SweepEpoch,
                               uint8_t MarkEpoch, Hole &Out);

  /// A completely empty block (possibly imperfect), from the local free
  /// list or the OS; nullptr when the budget is exhausted.
  Block *takeFree();

  /// A completely empty *perfect* block, from the local free list or a
  /// fussy OS request; nullptr when the debt cap is hit. Used by the
  /// failure-aware overflow fallback.
  Block *takePerfectFree();

  /// The block containing \p Addr, or nullptr if the address is not in
  /// this space. Blocks are block-size aligned, so this is a shift and
  /// two dependent acquire loads from the block table: no lock, and safe
  /// against a concurrent TLAB refill growing the space (see BlockTable).
  Block *blockOf(const uint8_t *Addr) const { return Table.lookup(Addr); }

  /// Chooses defragmentation candidates for a full collection: blocks
  /// with fresh dynamic failures always; otherwise the most fragmented
  /// recyclable blocks, bounded by available copy headroom.
  void selectDefragCandidates();

  /// Clears candidate flags (at sweep).
  void clearDefragCandidates();

  /// Rebuilds the free/recyclable lists from the line marks at \p Epoch.
  /// With a non-empty \p Par, the per-block recount (the O(lines) part)
  /// runs sharded across GC workers into per-block result slots; the
  /// classification/retirement merge then walks blocks serially in
  /// creation order, so list contents and retirement decisions are
  /// byte-identical to a serial sweep under any worker count.
  ImmixSweepTotals sweep(uint8_t Epoch, const GcParallelFor &Par = {});

  /// Returns completely empty blocks beyond \p KeepFree to the OS pool
  /// (the paper's "global pool of pages for use by the whole runtime"),
  /// so page-grained allocators can compete for them. Blocks that
  /// suffered a dynamic failure are retained until their candidate flag
  /// clears. \p OnRelease (optional) observes each block just before it
  /// is handed back, so bookkeeping keyed on block bases (the dynamic
  /// failure ledger) can be pruned. Returns the number of blocks
  /// released. World-stopped only: released blocks leave the block table
  /// and are destroyed, so no blockOf reader may be running.
  size_t releaseExcessFreeBlocks(
      size_t KeepFree,
      const std::function<void(const Block &)> &OnRelease = nullptr);

  size_t pagesHeld() const {
    return Blocks.size() * Config.pagesPerBlock();
  }
  size_t blockCount() const { return Blocks.size(); }

  /// Retired blocks still held (their pages are lost capacity).
  size_t retiredBlockCount() const { return RetiredCount; }

  /// Iterates all held blocks in creation order (strictly increasing
  /// creationSeq()), which depends on the allocation history alone: the
  /// audit digest's block ordinals count along it.
  template <typename Fn> void forEachBlock(Fn F) {
    for (auto &B : Blocks)
      F(*B);
  }
  template <typename Fn> void forEachBlock(Fn F) const {
    for (const auto &B : Blocks)
      F(static_cast<const Block &>(*B));
  }

private:
  Block *createBlock(PageGrant &&Grant);

  FailureAwareOs &Os;
  const HeapConfig &Config;
  HeapStats &Stats;
  BudgetGate Gate;

  /// Guards the free/recycle lists and Blocks against concurrent TLAB
  /// refills from multiple mutator lanes, and serializes the writers of
  /// Table: createBlock publishes a block's entry, and
  /// releaseExcessFreeBlocks - which runs in the stopped-world sweep -
  /// clears it. blockOf readers never take it. Collection-time paths
  /// (sweep, defrag selection) run at a safepoint and stay lock-free.
  mutable std::mutex RegistryMu;

  /// In creation order (strictly increasing creationSeq).
  std::vector<std::unique_ptr<Block>> Blocks;
  uint64_t NextCreationSeq = 0;
  std::vector<Block *> FreeList;
  /// Deque, not vector: takeRecyclableFitting pops probes off the back
  /// and re-homes rejected (or evacuating) blocks at the front, both
  /// O(1). With a vector the front reinsert was O(n) per probe sequence,
  /// making every medium allocation under fragmentation quadratic-ish.
  std::deque<Block *> RecycleList;
  BlockTable Table;
  size_t RetiredCount = 0;

#ifdef WEARMEM_DEBUG_TRACE
public:
  /// Debug registry of released block base addresses (cleared when the
  /// address is re-granted as a block).
  std::unordered_map<uintptr_t, uint64_t> DebugReleased;
  uint64_t DebugReleaseTick = 0;
#endif
};

} // namespace wearmem

#endif // WEARMEM_HEAP_IMMIXSPACE_H
