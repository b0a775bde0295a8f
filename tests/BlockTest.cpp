//===- tests/BlockTest.cpp - Immix block and line-map tests ---------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "heap/Block.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <memory>

using namespace wearmem;

namespace {

struct BlockFixture {
  explicit BlockFixture(size_t LineSize) {
    Config.LineSize = LineSize;
    Mem = static_cast<uint8_t *>(
        std::aligned_alloc(Config.BlockSize, Config.BlockSize));
    TheBlock = std::make_unique<Block>(Mem, Config);
  }
  ~BlockFixture() { std::free(Mem); }

  HeapConfig Config;
  uint8_t *Mem;
  std::unique_ptr<Block> TheBlock;
};

} // namespace

TEST(BlockTest, Geometry) {
  BlockFixture F(256);
  EXPECT_EQ(F.TheBlock->lineCount(), 128u);
  EXPECT_EQ(F.TheBlock->lineAddr(3), F.Mem + 3 * 256);
  EXPECT_EQ(F.TheBlock->lineOf(F.Mem + 1000), 3u);
  EXPECT_TRUE(F.TheBlock->isPerfect());
}

TEST(BlockTest, FailureWordIntakeExpandsToImmixLines) {
  // One failed 64 B PCM line poisons a whole 256 B Immix line: the false
  // failure effect of Section 6.2.
  BlockFixture F(256);
  uint64_t Words[8] = {};
  Words[0] = 0b1; // PCM line 0 -> Immix line 0.
  Words[2] = uint64_t(1) << 17; // Page 2, PCM line 17.
  F.TheBlock->applyFailureWords(Words, 8);
  EXPECT_EQ(F.TheBlock->failedLines(), 2u);
  EXPECT_TRUE(F.TheBlock->lineIsFailed(0));
  // Page 2 starts at byte 8192 = Immix line 32; PCM line 17 is at byte
  // offset 17*64 = 1088 into the page -> Immix line 32 + 4.
  EXPECT_TRUE(F.TheBlock->lineIsFailed(36));
  EXPECT_FALSE(F.TheBlock->isPerfect());
  // With 64 B Immix lines there is no false-failure expansion.
  BlockFixture G(64);
  G.TheBlock->applyFailureWords(Words, 8);
  EXPECT_EQ(G.TheBlock->failedLines(), 2u);
  EXPECT_TRUE(G.TheBlock->lineIsFailed(0));
  EXPECT_TRUE(G.TheBlock->lineIsFailed(2 * 64 + 17));
}

TEST(BlockTest, CountLinesMarkedMatchesAByteScan) {
  // The census compares eight mark bytes per step. Every value - free,
  // live epochs with and without the high bit, the failed sentinel -
  // must count exactly as a byte-at-a-time scan does.
  const uint8_t Values[] = {0, 1, 2, 0x7F, 0x80, 0x81, MaxEpoch, LineFailed};
  for (size_t LineSize : {64u, 256u}) {
    BlockFixture F(LineSize);
    Block &B = *F.TheBlock;
    for (unsigned Line = 0; Line != B.lineCount(); ++Line) {
      uint8_t V = Values[(Line * 7 + Line / 5) % std::size(Values)];
      if (V == LineFailed)
        B.failLine(Line);
      else
        B.markLine(Line, V);
    }
    for (unsigned V = 0; V != 256; ++V) {
      unsigned Expected = 0;
      for (unsigned Line = 0; Line != B.lineCount(); ++Line)
        Expected += B.lineMark(Line) == V;
      EXPECT_EQ(B.countLinesMarked(static_cast<uint8_t>(V)), Expected)
          << "value " << V << ", " << LineSize << " B lines";
    }
  }
}

TEST(BlockTest, FindHoleSkipsLiveAndFailed) {
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  B.markLine(2, 5);
  B.markLine(3, 5);
  B.failLine(6);
  Hole H;
  // Conservative: line 4 is implicitly live (follows live line 3).
  ASSERT_TRUE(B.findHole(0, 5, 5, /*Conservative=*/true, H));
  EXPECT_EQ(H.StartLine, 0u);
  EXPECT_EQ(H.EndLine, 2u);
  ASSERT_TRUE(B.findHole(H.EndLine, 5, 5, true, H));
  EXPECT_EQ(H.StartLine, 5u);
  EXPECT_EQ(H.EndLine, 6u);
  ASSERT_TRUE(B.findHole(H.EndLine, 5, 5, true, H));
  EXPECT_EQ(H.StartLine, 7u);
  EXPECT_EQ(H.EndLine, 128u);
  EXPECT_FALSE(B.findHole(H.EndLine, 5, 5, true, H));
}

TEST(BlockTest, FindHoleExactMode) {
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  B.markLine(2, 5);
  Hole H;
  ASSERT_TRUE(B.findHole(0, 5, 5, /*Conservative=*/false, H));
  EXPECT_EQ(H.StartLine, 0u);
  EXPECT_EQ(H.EndLine, 2u);
  ASSERT_TRUE(B.findHole(2, 5, 5, false, H));
  EXPECT_EQ(H.StartLine, 3u); // No implicit-live skip in exact mode.
}

TEST(BlockTest, FindHoleRespectsBothEpochs) {
  // Regression test for the evacuation bug: during a full collection,
  // lines live at the previous sweep (epoch 5) AND lines the trace just
  // re-marked (epoch 6) must both be treated as unavailable.
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  B.markLine(0, 5); // Live at the last sweep, not yet re-marked.
  B.markLine(1, 6); // Re-marked in place by the in-progress trace.
  Hole H;
  ASSERT_TRUE(B.findHole(0, 5, 6, /*Conservative=*/false, H));
  EXPECT_EQ(H.StartLine, 2u);
}

TEST(BlockTest, StaleEpochsReadAsFree) {
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  B.markLine(0, 4); // Stale: dead since epoch 5.
  Hole H;
  ASSERT_TRUE(B.findHole(0, 5, 5, false, H));
  EXPECT_EQ(H.StartLine, 0u);
}

TEST(BlockTest, SweepClassifiesAndCounts) {
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  B.failLine(10);
  B.markLine(20, 7);
  B.markLine(40, 7);
  Block::SweepResult R = B.sweep(7, /*Conservative=*/true);
  EXPECT_FALSE(R.Empty);
  // 128 lines - 1 failed - 2 live - 2 implicit (21 and 41).
  EXPECT_EQ(R.FreeLines, 128u - 5u);
  EXPECT_EQ(R.Holes, 4u); // [0,10) [11,20) [22,40) [42,128).
  EXPECT_EQ(B.freeLines(), R.FreeLines);

  // At the next epoch everything stale reads as free except failures.
  Block::SweepResult R2 = B.sweep(8, true);
  EXPECT_TRUE(R2.Empty);
  EXPECT_EQ(R2.FreeLines, 127u);
  EXPECT_EQ(R2.Holes, 2u);
}

TEST(BlockTest, DynamicPcmFailureUpdatesWords) {
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  uint64_t Words[8] = {};
  B.applyFailureWords(Words, 8);
  // Fail the PCM line at byte 4096+128 (page 1, PCM line 2).
  B.failPcmLineAt(4096 + 128);
  EXPECT_EQ(B.pageFailureWords()[1], uint64_t(1) << 2);
  // The covering Immix line (16 + 0) is retired.
  EXPECT_TRUE(B.lineIsFailed(16));
  EXPECT_EQ(B.failedLines(), 1u);
}

TEST(BlockTest, UnfailPageRestoresLines) {
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  uint64_t Words[8] = {};
  Words[3] = 0xFF; // 8 failed PCM lines in page 3 -> 2 Immix lines.
  B.applyFailureWords(Words, 8);
  EXPECT_EQ(B.failedLines(), 2u);
  unsigned Restored = B.unfailPage(3, /*LiveEpoch=*/0);
  EXPECT_EQ(Restored, 2u);
  EXPECT_EQ(B.failedLines(), 0u);
  EXPECT_EQ(B.pageFailureWords()[3], 0u);
  EXPECT_TRUE(B.isPerfect());
}

TEST(BlockTest, MarkLineNeverOverwritesFailed) {
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  B.failLine(5);
  B.markLine(5, 9);
  EXPECT_TRUE(B.lineIsFailed(5));
}

TEST(BlockTest, DynamicFailureTransfersSpillMark) {
  // Under conservative marking a small object marks only its first
  // line; the tail spilling into the next line is protected by the
  // "line after a live line" rule. When the first line dies
  // dynamically its live mark must transfer to the next line, or the
  // hole scan would hand out the tail.
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  uint64_t Words[8] = {};
  B.applyFailureWords(Words, 8);
  B.markLine(20, 7); // A small object's head line; tail spills into 21.
  B.failPcmLineAt(20 * 256, /*PreserveSpill=*/true, /*LiveEpoch=*/7);
  EXPECT_TRUE(B.lineIsFailed(20));
  EXPECT_EQ(B.lineMark(21), 7u); // Protection now explicit.
  Hole H;
  ASSERT_TRUE(B.findHole(21, 7, 7, /*Conservative=*/true, H));
  EXPECT_EQ(H.StartLine, 23u); // 21 live, 22 implicitly live.

  // An explicitly live next line is left alone.
  B.markLine(40, 7);
  B.markLine(41, 7);
  B.failPcmLineAt(40 * 256, /*PreserveSpill=*/true, /*LiveEpoch=*/7);
  EXPECT_EQ(B.lineMark(41), 7u);

  // Without PreserveSpill (exact marking) no transfer happens.
  B.markLine(60, 7);
  B.failPcmLineAt(60 * 256);
  EXPECT_EQ(B.lineMark(61), 0u);

  // A dead line (mark 0) transfers nothing.
  B.failPcmLineAt(80 * 256, /*PreserveSpill=*/true, /*LiveEpoch=*/7);
  EXPECT_EQ(B.lineMark(81), 0u);

  // The transfer never resurrects a failed next line.
  B.failLine(91);
  B.markLine(90, 7);
  B.failPcmLineAt(90 * 256, /*PreserveSpill=*/true, /*LiveEpoch=*/7);
  EXPECT_TRUE(B.lineIsFailed(91));
}

TEST(BlockTest, StaleDyingLineNeverDowngradesSuccessor) {
  // Sweep leaves dead lines' mark bytes stale, so a dynamically failed
  // line can carry an *old* epoch. Its data is dead - there is no
  // spilled tail to protect - and transferring the stale byte would
  // downgrade a successor that the current epoch marked live, handing
  // the hole scan a line that still holds a live object.
  BlockFixture F(256);
  Block &B = *F.TheBlock;
  uint64_t Words[8] = {};
  B.applyFailureWords(Words, 8);

  B.markLine(20, 6); // Stale: the hole scans honor epoch 7 now.
  B.markLine(21, 7); // Live at the current epoch.
  B.failPcmLineAt(20 * 256, /*PreserveSpill=*/true, /*LiveEpoch=*/7);
  EXPECT_TRUE(B.lineIsFailed(20));
  EXPECT_EQ(B.lineMark(21), 7u); // Not downgraded to 6.
  Hole H;
  EXPECT_FALSE(B.findHole(21, 7, 7, /*Conservative=*/true, H) &&
               H.StartLine == 21u);

  // A stale dying line next to a dead successor transfers nothing
  // either: stale protection would be ignored by the hole scan anyway.
  B.markLine(40, 6);
  B.failPcmLineAt(40 * 256, /*PreserveSpill=*/true, /*LiveEpoch=*/7);
  EXPECT_EQ(B.lineMark(41), 0u);
}
