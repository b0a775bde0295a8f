//===- heap/Block.h - Immix block and line-mark table -----------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One Immix block: a 32 KB (by default) chunk of heap divided into
/// logical lines, with a byte-per-line mark table. Line-mark values:
///
///   0            free (never marked)
///   1..MaxEpoch  live at the given epoch (stale epochs read as free)
///   LineFailed   the paper's added fourth state: the line overlaps a
///                failed PCM line and must never be allocated into.
///
/// When the Immix line size exceeds the 64 B PCM line size, a single PCM
/// failure poisons the whole covering Immix line - the "false failure"
/// effect Section 6.2/6.3 quantifies.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_HEAP_BLOCK_H
#define WEARMEM_HEAP_BLOCK_H

#include "heap/HeapConfig.h"
#include "pcm/Geometry.h"
#include "support/Bitmap.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace wearmem {

/// Allocation/recycling state of a block.
enum class BlockState : uint8_t {
  /// Completely empty (may still carry failed lines).
  Free,
  /// Partially occupied with at least one reusable hole.
  Recyclable,
  /// Owned by an allocator since the last collection.
  InUse,
  /// No reusable holes.
  Full,
  /// Permanently withdrawn: so many of its lines failed that recycling
  /// the remainder is not worth it. Retired blocks keep their pages (the
  /// budget really is lost) but never re-enter an allocation list.
  Retired,
};

/// A contiguous run of available lines: [StartLine, EndLine).
struct Hole {
  unsigned StartLine;
  unsigned EndLine;
  unsigned lines() const { return EndLine - StartLine; }
};

class Block {
public:
  /// Deterministic scan-work counters shared by all blocks. WordSteps
  /// counts 64-line words examined by the word-parallel scanner;
  /// ByteSteps counts line-mark bytes examined by the byte-scan oracle.
  /// They are the benchmark's currency: wall time is noisy, these are
  /// exactly reproducible from a seed.
  /// The fields are atomics (relaxed increments) because the sharded
  /// sweep and wearmem_soak's --jobs rep pool both step blocks from
  /// several threads; single-threaded step sequences stay exactly
  /// reproducible.
  struct ScanCounters {
    std::atomic<uint64_t> WordSteps{0};
    std::atomic<uint64_t> ByteSteps{0};
    std::atomic<uint64_t> SlotRebuilds{0};
    void reset() {
      WordSteps.store(0, std::memory_order_relaxed);
      ByteSteps.store(0, std::memory_order_relaxed);
      SlotRebuilds.store(0, std::memory_order_relaxed);
    }
  };
  static ScanCounters &scanCounters();

  /// \p Mem must be BlockSize bytes, block-aligned.
  Block(uint8_t *Mem, const HeapConfig &Config);

  uint8_t *base() const { return Mem; }
  size_t sizeBytes() const { return BlockBytes; }
  size_t lineSize() const { return LineBytes; }
  unsigned lineCount() const {
    return static_cast<unsigned>(LineMarks.size());
  }

  uint8_t *lineAddr(unsigned Line) const { return Mem + Line * LineBytes; }

  /// The line index containing heap address \p Addr (must be in-block).
  unsigned lineOf(const uint8_t *Addr) const {
    return static_cast<unsigned>(static_cast<size_t>(Addr - Mem) /
                                 LineBytes);
  }

  uint8_t lineMark(unsigned Line) const { return LineMarks[Line]; }

  void markLine(unsigned Line, uint8_t Epoch) {
    if (LineMarks[Line] == LineFailed)
      return;
    LineMarks[Line] = Epoch;
    updateSlotsForLine(Line, Epoch);
    // Zeroing a mark (wrap remapping, retirement) can enlarge holes, so
    // the fitting cursor's no-hole knowledge is stale.
    if (Epoch == 0)
      resetFittingCursor();
  }

  /// Thread-safe markLine for the parallel mark phase: several GC
  /// workers may mark lines of the same block at once. Requires a live
  /// epoch (never 0, so the fitting cursor is untouched) and relies on
  /// the mark-phase safepoint contract: no line can fail concurrently
  /// (failure interrupts are deferred), so the LineFailed check is
  /// stable. Racing markers for the same line converge because the
  /// stored value and the slot-bit updates are idempotent.
  void markLineAtomic(unsigned Line, uint8_t Epoch) {
    assert(Epoch != 0 && "atomic marking is for live epochs only");
    std::atomic_ref<uint8_t> Mark(LineMarks[Line]);
    uint8_t Cur = Mark.load(std::memory_order_relaxed);
    if (Cur == LineFailed || Cur == Epoch)
      return;
    Mark.store(Epoch, std::memory_order_relaxed);
    updateSlotsForLineAtomic(Line, Epoch);
  }

  bool lineIsFailed(unsigned Line) const {
    return LineMarks[Line] == LineFailed;
  }

  /// lineIsFailed for the parallel mark phase, where other workers store
  /// line marks with markLineAtomic. A relaxed load suffices: no line
  /// fails mid-mark, so the answer cannot change under the reader (on
  /// x86 this is the same plain load).
  bool lineIsFailedAtomic(unsigned Line) const {
    return std::atomic_ref<uint8_t>(const_cast<uint8_t &>(LineMarks[Line]))
               .load(std::memory_order_relaxed) == LineFailed;
  }

  /// The number of lines whose mark byte equals \p Value (fault
  /// campaigns census live lines with it), eight marks per step.
  unsigned countLinesMarked(uint8_t Value) const;

  /// Permanently retires a line (static intake or dynamic failure).
  void failLine(unsigned Line) {
    if (LineMarks[Line] != LineFailed) {
      LineMarks[Line] = LineFailed;
      ++FailedLineCount;
      FailedBits.set(Line);
      updateSlotsForLine(Line, LineFailed);
    }
  }

  /// Records a *dynamic* failure of the 64 B PCM line at byte offset
  /// \p ByteOffset: updates the page failure word and retires the
  /// covering Immix line.
  ///
  /// With \p PreserveSpill (conservative line marking), a live mark on
  /// the dying line first transfers to the following line. Conservative
  /// marking protects a small object's spilled tail only *implicitly* -
  /// "the line after a live line is unavailable" - and the hole scans
  /// exempt failed lines from that carry on the assumption that nothing
  /// was ever allocated into them. A dynamically failed line was live a
  /// moment ago, so overwriting its mark with the failed sentinel would
  /// silently strip the next line's protection and let the allocator
  /// clobber the tail. The explicit transfer is at worst one line
  /// over-conservative and lapses at the next collection's re-marking.
  ///
  /// The transfer happens only when the dying line's mark equals
  /// \p LiveEpoch, the one epoch the hole scans currently honor. Sweep
  /// leaves dead lines' mark bytes stale rather than zeroing them, so a
  /// dying line can carry an *old* epoch: its data is dead, there is no
  /// tail to protect, and copying that stale byte over a successor
  /// marked for the current epoch would silently downgrade a live line
  /// into a hole (a batch of failures drained after an incremental
  /// close is the classic producer of stale dying lines).
  void failPcmLineAt(size_t ByteOffset, bool PreserveSpill = false,
                     uint8_t LiveEpoch = 0) {
    assert(ByteOffset < BlockBytes && "offset out of range");
    size_t Page = ByteOffset / PcmPageSize;
    size_t Bit = (ByteOffset % PcmPageSize) / PcmLineSize;
    if (!PageFailWords.empty())
      PageFailWords[Page] |= uint64_t(1) << Bit;
    unsigned Line = static_cast<unsigned>(ByteOffset / LineBytes);
    uint8_t Old = LineMarks[Line];
    if (Old != LineFailed)
      ++DynamicFailedLineCount;
    if (PreserveSpill && Old != LineFailed && Old != 0 &&
        Old == LiveEpoch && Line + 1 < lineCount()) {
      uint8_t Next = LineMarks[Line + 1];
      if (Next != LineFailed && Next != Old) {
        LineMarks[Line + 1] = Old;
        updateSlotsForLine(Line + 1, Old);
      }
    }
    failLine(Line);
  }

  /// Lines lost to *dynamic* wear-out (static intake failures are known
  /// at grant time and compensated for; dynamic ones mean the block is
  /// dying, which is what block retirement keys on).
  unsigned dynamicFailedLines() const { return DynamicFailedLineCount; }

  /// Models the OS remapping one of the block's pages onto a perfect
  /// physical page (the pinned-object escape hatch of Section 3.3.3):
  /// every failed line within that page becomes usable again. Returns the
  /// number of lines restored.
  ///
  /// Restored lines take the mark \p LiveEpoch. A line that failed under
  /// live data keeps that data (the failure fenced writes, not reads),
  /// but live objects straddling into it never marked it - marking a
  /// failed line is a no-op - so restoring it as free would hand the
  /// allocator a hole that still contains a live object's tail. Passing
  /// the current mark epoch quarantines restored lines as live until the
  /// next full collection re-derives their true status; pass 0 only when
  /// no live data can overlap the page (intake, tests).
  unsigned unfailPage(unsigned PageWithinBlock, uint8_t LiveEpoch);

  /// Imports the OS page failure words covering this block: any Immix
  /// line overlapping a failed 64 B PCM line is retired (false failures
  /// included, by construction). The words are retained so the block can
  /// be returned to the OS pool losslessly.
  void applyFailureWords(const uint64_t *FailWords, size_t NumPages);

  /// The retained per-page failure words (one per page).
  const std::vector<uint64_t> &pageFailureWords() const {
    return PageFailWords;
  }

  /// True if \p PageWithinBlock was remapped onto a perfect physical page
  /// by unfailPage: its failure word no longer reflects the OS budget
  /// map, so cross-layer audits must not compare the two.
  bool pageWasRemapped(unsigned PageWithinBlock) const {
    return (RemappedPages & (uint64_t(1) << PageWithinBlock)) != 0;
  }

  /// The OS budget page indices backing this block (one per page), empty
  /// when the provenance is unknown (recycled perfect chunks, DRAM).
  const std::vector<uint32_t> &pageIds() const { return PageIds; }
  void setPageIds(std::vector<uint32_t> Ids) { PageIds = std::move(Ids); }

  unsigned failedLines() const { return FailedLineCount; }
  bool isPerfect() const { return FailedLineCount == 0; }

  /// True if the line is available for allocation: not failed and not
  /// live at either epoch. Two epochs are needed during a full
  /// collection's evacuation: \p SweepEpoch is the state of the last
  /// sweep, and \p MarkEpoch catches lines that the in-progress trace has
  /// already re-marked in place (treating those as free would let the
  /// evacuation allocator copy over live objects). Outside collection the
  /// two epochs coincide.
  bool lineAvailable(unsigned Line, uint8_t SweepEpoch,
                     uint8_t MarkEpoch) const {
    uint8_t Mark = LineMarks[Line];
    return Mark != LineFailed && Mark != SweepEpoch && Mark != MarkEpoch;
  }

  /// Finds the next hole at or after \p FromLine. With conservative
  /// marking, the line immediately after a live line is implicitly live
  /// (a small object may spill into it) and is not part of any hole.
  /// Returns false if the block has no further holes.
  ///
  /// Word-parallel: scans 64 lines per step over availability bitmaps
  /// derived from the line marks (epoch-normalized lazily; see
  /// ensureEpochBits). The byte-scan reference lives on as
  /// findHoleOracle.
  bool findHole(unsigned FromLine, uint8_t SweepEpoch, uint8_t MarkEpoch,
                bool Conservative, Hole &Out) const;

  /// The original byte-at-a-time scan, retained as a differential oracle
  /// for the word-parallel findHole (fuzz tests and the alloc-path
  /// benchmark compare the two; WEARMEM_EXPENSIVE_CHECKS builds compare
  /// on every call).
  bool findHoleOracle(unsigned FromLine, uint8_t SweepEpoch,
                      uint8_t MarkEpoch, bool Conservative,
                      Hole &Out) const;

  /// Post-trace accounting: recounts available lines and holes and
  /// returns the block's new state.
  struct SweepResult {
    unsigned FreeLines = 0;
    unsigned Holes = 0;
    bool Empty = false;

    bool operator==(const SweepResult &O) const {
      return FreeLines == O.FreeLines && Holes == O.Holes &&
             Empty == O.Empty;
    }
  };
  SweepResult sweep(uint8_t Epoch, bool Conservative);

  /// Pure word-parallel recount at (\p Epoch, \p Epoch); sweep() is this
  /// plus the FreeLineCount/cursor side effects. Shares the availability
  /// definition with findHole, so the free-line total and the holes
  /// findHole yields can never disagree at equal epochs (the
  /// sweep-vs-findHole implicit-live divergence bug).
  SweepResult sweepCount(uint8_t Epoch, bool Conservative) const;

  /// Byte-scan oracle for sweepCount (no side effects).
  SweepResult sweepCountOracle(uint8_t Epoch, bool Conservative) const;

  /// \name Fitting-scan cursor
  /// takeRecyclableFitting's per-block memo. Invariant: every hole in
  /// [0, HoleCursor) spans fewer than HoleCursorNeed lines, so a probe
  /// needing at least HoleCursorNeed lines may resume at HoleCursor
  /// instead of rescanning the prefix. Reset whenever holes can grow
  /// (sweep, unfailPage, zeroed marks).
  /// @{
  unsigned fittingScanStart(unsigned NeedLines) const {
    return NeedLines >= HoleCursorNeed ? HoleCursor : 0;
  }
  /// A full scan from fittingScanStart(NeedLines) found no fitting hole:
  /// the whole block has none of NeedLines or more.
  void noteNoFittingHole(unsigned NeedLines) {
    HoleCursor = lineCount();
    HoleCursorNeed = NeedLines;
  }
  /// A fitting hole ending at \p EndLine was consumed; earlier holes were
  /// already too small for the recorded need.
  void noteFittingHole(unsigned EndLine) { HoleCursor = EndLine; }
  void resetFittingCursor() {
    HoleCursor = 0;
    HoleCursorNeed = 0;
  }
  /// @}

  BlockState state() const { return State; }
  void setState(BlockState S) { State = S; }

  unsigned freeLines() const { return FreeLineCount; }

  /// Defragmentation: live objects here are evacuated during the next
  /// full trace.
  bool evacuating() const { return Evacuating; }
  void setEvacuating(bool V) { Evacuating = V; }

  /// Set when a dynamic failure hit this block; forces candidacy.
  bool hasFreshFailure() const { return FreshFailure; }
  void setFreshFailure(bool V) { FreshFailure = V; }

  /// The mutator lane whose TLAB currently bump-allocates from this
  /// block, or -1. Dynamic-failure interrupts for an owned block are
  /// routed to the owning lane's mailbox; unowned ("orphaned") blocks
  /// fall back to the deferred queue drained at the next safepoint.
  int ownerLane() const { return OwnerLane; }
  void setOwnerLane(int Lane) { OwnerLane = Lane; }

  /// Position in the owning space's creation sequence (strictly
  /// increasing, never reused). Orders blocks by a function of the
  /// allocation history alone, unlike their host addresses.
  uint64_t creationSeq() const { return CreationSeq; }
  void setCreationSeq(uint64_t Seq) { CreationSeq = Seq; }

private:
  /// A cached bitmap of the lines whose mark byte equals Value. Two slots
  /// suffice: queries name at most two epochs (sweep epoch + mark epoch),
  /// and the slots are maintained incrementally by every mark mutation,
  /// so in steady state no byte scan happens at all. A missing epoch is
  /// rebuilt lazily from the mark table (epoch normalization), at most
  /// once per block per epoch rotation.
  struct EpochBits {
    uint8_t Value = 0;
    bool Valid = false;
    Bitmap Bits;
  };

  /// Keeps every cached slot consistent with LineMarks[Line] = Value.
  void updateSlotsForLine(unsigned Line, uint8_t Value) {
    for (EpochBits &S : Slots) {
      if (!S.Valid)
        continue;
      if (S.Value == Value)
        S.Bits.set(Line);
      else
        S.Bits.clear(Line);
    }
  }

  /// Atomic-bit variant of updateSlotsForLine for markLineAtomic. The
  /// slots' Value/Valid metadata is stable during a mark phase (only
  /// rebuilt from allocation/sweep paths, which are serial), so only the
  /// bit flips need atomicity.
  void updateSlotsForLineAtomic(unsigned Line, uint8_t Value) {
    for (EpochBits &S : Slots) {
      if (!S.Valid)
        continue;
      if (S.Value == Value)
        S.Bits.setAtomic(Line);
      else
        S.Bits.clearAtomic(Line);
    }
  }

  /// Returns the cached bitmap for \p Value, rebuilding it (into a slot
  /// not holding \p Keep) if absent.
  const EpochBits &slotFor(uint8_t Value, uint8_t Keep) const;
  void rebuildSlot(EpochBits &S, uint8_t Value) const;

  size_t wordCount() const { return (LineMarks.size() + 63) / 64; }

  /// One word of the availability bit stream for lines
  /// [W*64, W*64 + 64): bit i set = line available at the given epochs,
  /// with the conservative implicit-live shift applied and the tail
  /// beyond lineCount() masked off.
  uint64_t availWordAt(size_t W, const Bitmap &SweepBits,
                       const Bitmap &MarkBits, bool Conservative) const;

  uint8_t *Mem;
  size_t BlockBytes;
  size_t LineBytes;
  std::vector<uint8_t> LineMarks;
  Bitmap FailedBits;
  mutable EpochBits Slots[2];
  std::vector<uint64_t> PageFailWords;
  std::vector<uint32_t> PageIds;
  uint64_t RemappedPages = 0;
  uint64_t CreationSeq = 0;
  unsigned FailedLineCount = 0;
  unsigned DynamicFailedLineCount = 0;
  unsigned FreeLineCount;
  unsigned HoleCursor = 0;
  unsigned HoleCursorNeed = 0;
  BlockState State = BlockState::Free;
  bool Evacuating = false;
  bool FreshFailure = false;
  int OwnerLane = -1;
};

} // namespace wearmem

#endif // WEARMEM_HEAP_BLOCK_H
