//===- heap/Block.cpp - Immix block and line-mark table -------------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Hole scanning is word-parallel: the byte-per-line mark table is shadowed
// by derived 64-bit bitmaps (failed lines, plus up to two cached per-epoch
// liveness bitmaps), and findHole/sweep walk 64 lines per step with
// countr_zero/countr_one. The mark table stays the source of truth; the
// bitmaps are maintained incrementally by markLine/failLine/unfailPage and
// rebuilt lazily when a query names an epoch with no cached slot. The
// original byte scans survive as *Oracle methods; fuzz tests, the
// alloc-path benchmark, and WEARMEM_EXPENSIVE_CHECKS builds hold the two
// implementations equal.
//
//===----------------------------------------------------------------------===//

#include "heap/Block.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace wearmem;

Block::ScanCounters &Block::scanCounters() {
  static ScanCounters Counters;
  return Counters;
}

Block::Block(uint8_t *Mem, const HeapConfig &Config)
    : Mem(Mem), BlockBytes(Config.BlockSize), LineBytes(Config.LineSize),
      LineMarks(Config.linesPerBlock(), 0),
      FailedBits(Config.linesPerBlock()),
      FreeLineCount(static_cast<unsigned>(Config.linesPerBlock())) {
  assert(isPowerOfTwo(LineBytes) && LineBytes >= PcmLineSize &&
         "Immix lines must be at least one PCM line");
  assert(BlockBytes % LineBytes == 0 && "lines must tile the block");
  assert(BlockBytes / PcmPageSize <= 64 &&
         "remap tracking packs page flags into one word");
  for (EpochBits &S : Slots)
    S.Bits = Bitmap(Config.linesPerBlock());
}

void Block::applyFailureWords(const uint64_t *FailWords, size_t NumPages) {
  assert(NumPages * PcmPageSize == BlockBytes &&
         "failure words must cover the block exactly");
  PageFailWords.assign(FailWords, FailWords + NumPages);
  size_t PcmLinesPerImmixLine = LineBytes / PcmLineSize;
  for (size_t Page = 0; Page != NumPages; ++Page) {
    // Visit only the set bits: clear the lowest each step.
    for (uint64_t Word = FailWords[Page]; Word != 0; Word &= Word - 1) {
      size_t PcmLine = Page * PcmLinesPerPage +
                       static_cast<size_t>(std::countr_zero(Word));
      failLine(static_cast<unsigned>(PcmLine / PcmLinesPerImmixLine));
    }
  }
  FreeLineCount = lineCount() - FailedLineCount;
}

unsigned Block::unfailPage(unsigned PageWithinBlock, uint8_t LiveEpoch) {
  assert(PageWithinBlock < BlockBytes / PcmPageSize && "page out of range");
  assert(LiveEpoch != LineFailed && "live epochs never alias LineFailed");
  unsigned LinesPerPage =
      static_cast<unsigned>(PcmPageSize / LineBytes);
  unsigned First = PageWithinBlock * LinesPerPage;
  unsigned Restored = 0;
  for (unsigned Line = First; Line != First + LinesPerPage; ++Line) {
    if (LineMarks[Line] == LineFailed) {
      LineMarks[Line] = LiveEpoch;
      FailedBits.clear(Line);
      updateSlotsForLine(Line, LiveEpoch);
      --FailedLineCount;
      ++Restored;
    }
  }
  if (!PageFailWords.empty())
    PageFailWords[PageWithinBlock] = 0;
  RemappedPages |= uint64_t(1) << PageWithinBlock;
  // Restored lines may have merged or extended holes.
  if (Restored != 0)
    resetFittingCursor();
  return Restored;
}

//===----------------------------------------------------------------------===//
// Derived availability bitmaps
//===----------------------------------------------------------------------===//

void Block::rebuildSlot(EpochBits &S, uint8_t Value) const {
  scanCounters().SlotRebuilds.fetch_add(1, std::memory_order_relaxed);
  S.Bits.clearAll();
  for (unsigned Line = 0, E = lineCount(); Line != E; ++Line)
    if (LineMarks[Line] == Value)
      S.Bits.set(Line);
  S.Value = Value;
  S.Valid = true;
}

const Block::EpochBits &Block::slotFor(uint8_t Value, uint8_t Keep) const {
  for (EpochBits &S : Slots)
    if (S.Valid && S.Value == Value)
      return S;
  // Miss: rebuild into an invalid slot if one exists, else into any slot
  // not caching Keep (the other epoch of the current query).
  EpochBits *Victim = nullptr;
  for (EpochBits &S : Slots)
    if (!S.Valid) {
      Victim = &S;
      break;
    }
  if (!Victim)
    for (EpochBits &S : Slots)
      if (!(S.Valid && S.Value == Keep)) {
        Victim = &S;
        break;
      }
  assert(Victim && "two slots cannot both cache the Keep epoch");
  rebuildSlot(*Victim, Value);
  return *Victim;
}

uint64_t Block::availWordAt(size_t W, const Bitmap &SweepBits,
                            const Bitmap &MarkBits,
                            bool Conservative) const {
  scanCounters().WordSteps.fetch_add(1, std::memory_order_relaxed);
  uint64_t Live = SweepBits.word(W) | MarkBits.word(W);
  uint64_t Unavailable = Live | FailedBits.word(W);
  if (Conservative) {
    // The implicit-live shift: a line right after a live line may hold
    // the spilled tail of a small object. The carry propagates bit 63 of
    // the previous word's live stream. Failed lines do not spill (nothing
    // was ever allocated into them), so the shift uses Live, not
    // Unavailable - the exact definition the byte oracle uses.
    uint64_t Carry =
        W == 0 ? 0 : ((SweepBits.word(W - 1) | MarkBits.word(W - 1)) >> 63);
    Unavailable |= (Live << 1) | Carry;
  }
  uint64_t Avail = ~Unavailable;
  unsigned NumLines = lineCount();
  if ((W + 1) * 64 > NumLines)
    Avail &= (uint64_t(1) << (NumLines % 64)) - 1;
  return Avail;
}

//===----------------------------------------------------------------------===//
// Hole finding
//===----------------------------------------------------------------------===//

bool Block::findHole(unsigned FromLine, uint8_t SweepEpoch,
                     uint8_t MarkEpoch, bool Conservative,
                     Hole &Out) const {
  unsigned NumLines = lineCount();
  if (FromLine >= NumLines)
    return false;
  const EpochBits &SweepSlot = slotFor(SweepEpoch, MarkEpoch);
  const EpochBits &MarkSlot = slotFor(MarkEpoch, SweepEpoch);
  const Bitmap &SB = SweepSlot.Bits;
  const Bitmap &MB = MarkSlot.Bits;
  size_t NumWords = wordCount();

  size_t W = FromLine / 64;
  uint64_t Avail = availWordAt(W, SB, MB, Conservative) &
                   (~uint64_t(0) << (FromLine % 64));
  bool Found = true;
  while (Avail == 0) {
    if (++W == NumWords) {
      Found = false;
      break;
    }
    Avail = availWordAt(W, SB, MB, Conservative);
  }
  if (Found) {
    unsigned Start =
        static_cast<unsigned>(W * 64) +
        static_cast<unsigned>(std::countr_zero(Avail));
    // Extend: consecutive set bits, continuing across word boundaries.
    // (A hole crossing a boundary implies bit 63 was available, i.e. not
    // live, so the next word's conservative carry is zero - the chain
    // stays consistent.)
    unsigned End =
        Start + static_cast<unsigned>(std::countr_one(Avail >> (Start % 64)));
    while (End % 64 == 0 && End < NumLines) {
      uint64_t Next = availWordAt(++W, SB, MB, Conservative);
      unsigned Run = static_cast<unsigned>(std::countr_one(Next));
      End += Run;
      if (Run != 64)
        break;
    }
    Out.StartLine = Start;
    Out.EndLine = End;
  }

#ifdef WEARMEM_EXPENSIVE_CHECKS
  Hole Ref;
  bool RefFound =
      findHoleOracle(FromLine, SweepEpoch, MarkEpoch, Conservative, Ref);
  if (RefFound != Found ||
      (Found && (Ref.StartLine != Out.StartLine ||
                 Ref.EndLine != Out.EndLine))) {
    std::fprintf(stderr,
                 "findHole divergence: from=%u epochs=(%u,%u) cons=%d "
                 "word=(%d,[%u,%u)) oracle=(%d,[%u,%u))\n",
                 FromLine, SweepEpoch, MarkEpoch, (int)Conservative,
                 (int)Found, Found ? Out.StartLine : 0,
                 Found ? Out.EndLine : 0, (int)RefFound,
                 RefFound ? Ref.StartLine : 0, RefFound ? Ref.EndLine : 0);
    std::abort();
  }
#endif
  return Found;
}

bool Block::findHoleOracle(unsigned FromLine, uint8_t SweepEpoch,
                           uint8_t MarkEpoch, bool Conservative,
                           Hole &Out) const {
  unsigned NumLines = lineCount();
  unsigned Line = FromLine;
  ScanCounters &Counters = scanCounters();
  auto PrevLive = [&](unsigned L) {
    uint8_t Mark = LineMarks[L - 1];
    return Mark == SweepEpoch || Mark == MarkEpoch;
  };
  while (Line < NumLines) {
    Counters.ByteSteps.fetch_add(1, std::memory_order_relaxed);
    // Skip unavailable lines.
    if (!lineAvailable(Line, SweepEpoch, MarkEpoch)) {
      ++Line;
      continue;
    }
    // Conservative marking: a line right after a live line may hold the
    // tail of a small object; it is implicitly live.
    if (Conservative && Line > 0 && PrevLive(Line)) {
      ++Line;
      continue;
    }
    // Found the start of a hole; extend it.
    unsigned Start = Line;
    while (Line < NumLines && lineAvailable(Line, SweepEpoch, MarkEpoch)) {
      Counters.ByteSteps.fetch_add(1, std::memory_order_relaxed);
      ++Line;
    }
    Out.StartLine = Start;
    Out.EndLine = Line;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Sweeping
//===----------------------------------------------------------------------===//

Block::SweepResult Block::sweepCount(uint8_t Epoch,
                                     bool Conservative) const {
  SweepResult Result;
  const Bitmap &LB = slotFor(Epoch, Epoch).Bits;
  size_t NumWords = wordCount();
  uint64_t PrevAvailTop = 0;
  bool AnyLive = false;
  for (size_t W = 0; W != NumWords; ++W) {
    uint64_t Avail = availWordAt(W, LB, LB, Conservative);
    AnyLive |= LB.word(W) != 0;
    Result.FreeLines +=
        static_cast<unsigned>(std::popcount(Avail));
    // A hole starts at every 0 -> 1 transition of the availability
    // stream (carrying the previous word's top bit across the boundary).
    uint64_t Starts = Avail & ~((Avail << 1) | PrevAvailTop);
    Result.Holes += static_cast<unsigned>(std::popcount(Starts));
    PrevAvailTop = Avail >> 63;
  }
  Result.Empty = !AnyLive;
  return Result;
}

unsigned Block::countLinesMarked(uint8_t Value) const {
  constexpr uint64_t Low7 = 0x7F7F7F7F7F7F7F7FULL;
  const uint64_t Pattern = 0x0101010101010101ULL * Value;
  const uint8_t *Marks = LineMarks.data();
  size_t NumLines = LineMarks.size();
  unsigned Count = 0;
  size_t Line = 0;
  for (; Line + 8 <= NumLines; Line += 8) {
    uint64_t Word;
    std::memcpy(&Word, Marks + Line, sizeof(Word));
    Word ^= Pattern;
    // Bit 7 of each byte ends up set exactly where the byte is zero (a
    // matching mark); the per-byte add cannot carry across bytes.
    Count += static_cast<unsigned>(
        std::popcount(~(((Word & Low7) + Low7) | Word | Low7)));
  }
  for (; Line != NumLines; ++Line)
    Count += Marks[Line] == Value;
  return Count;
}

Block::SweepResult Block::sweepCountOracle(uint8_t Epoch,
                                           bool Conservative) const {
  SweepResult Result;
  unsigned NumLines = lineCount();
  ScanCounters &Counters = scanCounters();
  bool AnyLive = false;
  bool InHole = false;
  for (unsigned Line = 0; Line != NumLines; ++Line) {
    Counters.ByteSteps.fetch_add(1, std::memory_order_relaxed);
    uint8_t Mark = LineMarks[Line];
    if (Mark == Epoch)
      AnyLive = true;
    bool Available = Mark != LineFailed && Mark != Epoch;
    if (Available && Conservative && Line > 0 &&
        LineMarks[Line - 1] == Epoch)
      Available = false; // Implicitly live.
    if (Available) {
      ++Result.FreeLines;
      if (!InHole) {
        ++Result.Holes;
        InHole = true;
      }
    } else {
      InHole = false;
    }
  }
  Result.Empty = !AnyLive;
  return Result;
}

Block::SweepResult Block::sweep(uint8_t Epoch, bool Conservative) {
  SweepResult Result = sweepCount(Epoch, Conservative);
#ifdef WEARMEM_EXPENSIVE_CHECKS
  SweepResult Ref = sweepCountOracle(Epoch, Conservative);
  if (!(Result == Ref)) {
    std::fprintf(stderr,
                 "sweep divergence: epoch=%u cons=%d word=(%u,%u,%d) "
                 "oracle=(%u,%u,%d)\n",
                 Epoch, (int)Conservative, Result.FreeLines, Result.Holes,
                 (int)Result.Empty, Ref.FreeLines, Ref.Holes,
                 (int)Ref.Empty);
    std::abort();
  }
#endif
  FreeLineCount = Result.FreeLines;
  // The recycle-probe memo describes the pre-sweep hole layout.
  resetFittingCursor();
  return Result;
}
