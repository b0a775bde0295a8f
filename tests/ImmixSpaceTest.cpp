//===- tests/ImmixSpaceTest.cpp - Immix space and allocator tests ---------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "heap/ImmixSpace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace wearmem;

namespace {

struct SpaceFixture {
  SpaceFixture(double Rate, size_t Pages = 256, size_t LineSize = 256,
               size_t BlockSize = 32 * KiB)
      : Os(Pages, makeFailures(Rate), /*GrantAlignment=*/BlockSize) {
    Config.BlockSize = BlockSize;
    Config.LineSize = LineSize;
    Config.BudgetPages = Pages;
    Space = std::make_unique<ImmixSpace>(
        Os, Config, Stats, [this](size_t P) {
          return Space->pagesHeld() + P <= Config.BudgetPages;
        });
    Allocator = std::make_unique<ImmixAllocator>(*Space, Config, Stats);
  }

  static FailureConfig makeFailures(double Rate) {
    FailureConfig F;
    F.Rate = Rate;
    F.Seed = 1234;
    return F;
  }

  HeapConfig Config;
  HeapStats Stats;
  FailureAwareOs Os;
  std::unique_ptr<ImmixSpace> Space;
  std::unique_ptr<ImmixAllocator> Allocator;
};

} // namespace

TEST(ImmixAllocatorTest, BumpAllocationIsContiguous) {
  SpaceFixture F(0.0);
  uint8_t *A = F.Allocator->alloc(32);
  uint8_t *B = F.Allocator->alloc(32);
  uint8_t *C = F.Allocator->alloc(64);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(B, A + 32);
  EXPECT_EQ(C, A + 64);
}

TEST(ImmixAllocatorTest, NeverHandsOutFailedLines) {
  SpaceFixture F(0.25);
  for (int I = 0; I != 20000; ++I) {
    uint8_t *Mem = F.Allocator->alloc(64);
    if (!Mem)
      break; // Budget exhausted; fine.
    Block *B = F.Space->blockOf(Mem);
    ASSERT_NE(B, nullptr);
    EXPECT_FALSE(B->lineIsFailed(B->lineOf(Mem)));
    EXPECT_FALSE(B->lineIsFailed(B->lineOf(Mem + 63)));
  }
  EXPECT_GT(F.Stats.LinesSkippedFailed, 0u);
}

TEST(ImmixAllocatorTest, MediumObjectsUseOverflow) {
  SpaceFixture F(0.0);
  // Fill the bump hole down to a 512-byte remainder, then allocate a
  // medium object: it does not fit and must go to the overflow block
  // rather than waste the remainder.
  uint8_t *Small = F.Allocator->alloc(64);
  ASSERT_NE(Small, nullptr);
  ASSERT_NE(F.Allocator->alloc(32 * KiB - 512 - 64), nullptr);
  uint8_t *Medium = F.Allocator->alloc(4096);
  ASSERT_NE(Medium, nullptr);
  EXPECT_GT(F.Stats.OverflowAllocs, 0u);
  EXPECT_NE(F.Space->blockOf(Medium), F.Space->blockOf(Small));
  // The small-object cursor still finishes its hole.
  uint8_t *Tail = F.Allocator->alloc(64);
  EXPECT_EQ(F.Space->blockOf(Tail), F.Space->blockOf(Small));
}

TEST(ImmixAllocatorTest, OverflowSearchesRemainderUnderFailures) {
  SpaceFixture F(0.25);
  // Allocate mediums under 25% failures; the failure-aware overflow
  // search must find fitting holes or fall back to perfect blocks, and
  // every grant must be hole-clean.
  for (int I = 0; I != 400; ++I) {
    uint8_t *Mem = F.Allocator->alloc(2048);
    if (!Mem)
      break;
    Block *B = F.Space->blockOf(Mem);
    unsigned First = B->lineOf(Mem);
    unsigned Last = B->lineOf(Mem + 2047);
    for (unsigned Line = First; Line <= Last; ++Line)
      ASSERT_FALSE(B->lineIsFailed(Line));
  }
  EXPECT_GT(F.Stats.OverflowSearches, 0u);
}

TEST(ImmixSpaceTest, SweepRecyclesAndReleases) {
  SpaceFixture F(0.0, /*Pages=*/64);
  // Allocate a few blocks' worth, mark one line live, sweep.
  std::vector<uint8_t *> Ptrs;
  for (int I = 0; I != 2000; ++I) {
    uint8_t *Mem = F.Allocator->alloc(64);
    if (!Mem)
      break;
    Ptrs.push_back(Mem);
  }
  size_t BlocksBefore = F.Space->blockCount();
  ASSERT_GT(BlocksBefore, 2u);
  // Mark exactly one object's line at the new epoch.
  Block *Live = F.Space->blockOf(Ptrs[100]);
  Live->markLine(Live->lineOf(Ptrs[100]), 2);
  F.Allocator->retire();
  ImmixSweepTotals Totals = F.Space->sweep(2);
  EXPECT_EQ(Totals.RecyclableBlocks, 1u);
  EXPECT_EQ(Totals.FreeBlocks, BlocksBefore - 1);
  // Releasing keeps the requested slack and returns the rest to the OS.
  size_t Released = F.Space->releaseExcessFreeBlocks(2);
  EXPECT_EQ(Released, BlocksBefore - 1 - 2);
  EXPECT_EQ(F.Space->blockCount(), 3u);
}

TEST(ImmixSpaceTest, TakePerfectFreePrefersPerfectBlocks) {
  SpaceFixture F(0.10);
  Block *Perfect = F.Space->takePerfectFree();
  ASSERT_NE(Perfect, nullptr);
  EXPECT_TRUE(Perfect->isPerfect());
}

TEST(ImmixSpaceTest, BlockOfMissesForeignAddresses) {
  SpaceFixture F(0.0);
  uint8_t *Mem = F.Allocator->alloc(64);
  ASSERT_NE(F.Space->blockOf(Mem), nullptr);
  alignas(64) static uint8_t Foreign[64];
  EXPECT_EQ(F.Space->blockOf(Foreign), nullptr);

  // Beyond the table's range, and at its top edge (no leaf there).
  auto At = [](uintptr_t Raw) {
    return reinterpret_cast<const uint8_t *>(Raw);
  };
  uintptr_t Range = uintptr_t(1) << BlockTable::AddressBits;
  EXPECT_EQ(F.Space->blockOf(At(Range)), nullptr);
  EXPECT_EQ(F.Space->blockOf(At(~uintptr_t(0))), nullptr);
  EXPECT_EQ(F.Space->blockOf(At(Range - 1)), nullptr);

  // A block released back to the OS is foreign again: its base, an
  // interior byte and its last byte all miss.
  SpaceFixture R(0.10, /*Pages=*/64);
  Block *Old = R.Space->takeFree();
  ASSERT_NE(Old, nullptr);
  uint8_t *Base = Old->base();
  size_t Bytes = Old->sizeBytes();
  EXPECT_EQ(R.Space->blockOf(Base + Bytes - 1), Old);
  R.Space->sweep(2); // Never allocated into: listed free.
  ASSERT_EQ(R.Space->releaseExcessFreeBlocks(0), 1u);
  EXPECT_EQ(R.Space->blockOf(Base), nullptr);
  EXPECT_EQ(R.Space->blockOf(Base + Bytes / 2 + 8), nullptr);
  EXPECT_EQ(R.Space->blockOf(Base + Bytes - 1), nullptr);
  // The relaxed free list re-grants exactly that memory to the next
  // growth, and lookups find the new block.
  Block *New = R.Space->takeFree();
  ASSERT_NE(New, nullptr);
  ASSERT_EQ(New->base(), Base);
  EXPECT_EQ(R.Space->blockOf(Base), New);
  EXPECT_EQ(R.Space->blockOf(Base + Bytes / 2 + 8), New);
  EXPECT_EQ(R.Space->blockOf(Base + Bytes - 1), New);

  // 64 KiB blocks: the second 32 KiB half is where a table keyed on the
  // default block size would look in the wrong slot.
  SpaceFixture L(0.0, /*Pages=*/256, /*LineSize=*/256,
                 /*BlockSize=*/64 * KiB);
  for (int I = 0; I != 4; ++I) {
    Block *B = I % 2 ? L.Space->takePerfectFree() : L.Space->takeFree();
    ASSERT_NE(B, nullptr);
    ASSERT_EQ(B->sizeBytes(), 64 * KiB);
    EXPECT_EQ(L.Space->blockOf(B->base()), B);
    EXPECT_EQ(L.Space->blockOf(B->base() + 32 * KiB), B);
    EXPECT_EQ(L.Space->blockOf(B->base() + 64 * KiB - 1), B);
    EXPECT_NE(L.Space->blockOf(B->base() - 1), B);
  }
}

TEST(ImmixSpaceTest, BlocksIterateInCreationOrderAcrossReleases) {
  // The audit digest's block ordinals count along this order, so it must
  // follow creation alone, whichever pool each block came from.
  SpaceFixture F(0.0, /*Pages=*/64);
  Block *A = F.Space->takeFree();
  Block *B = F.Space->takePerfectFree();
  Block *C = F.Space->takeFree();
  ASSERT_TRUE(A && B && C);
  auto Visited = [&F] {
    std::vector<const Block *> Order;
    F.Space->forEachBlock([&](const Block &Held) {
      if (!Order.empty()) {
        EXPECT_LT(Order.back()->creationSeq(), Held.creationSeq());
      }
      Order.push_back(&Held);
    });
    return Order;
  };
  EXPECT_EQ(Visited(), (std::vector<const Block *>{A, B, C}));
  // Releasing the middle block leaves a gap in the sequence numbers;
  // the order closes up over it.
  A->markLine(0, 2);
  C->markLine(0, 2);
  F.Space->sweep(2);
  ASSERT_EQ(F.Space->releaseExcessFreeBlocks(0), 1u);
  EXPECT_EQ(Visited(), (std::vector<const Block *>{A, C}));
}

TEST(ImmixSpaceDeathTest, PublishingBeyondTheTableAbortsInEveryBuild) {
  HeapConfig Config;
  BlockTable Table(Config.BlockSize);
  Block Far(reinterpret_cast<uint8_t *>(uintptr_t(1)
                                        << BlockTable::AddressBits),
            Config);
  EXPECT_DEATH(Table.publish(&Far), "beyond the 48-bit block table");
}

TEST(ImmixSpaceTest, BlockOfRacesGrowthWithoutLocks) {
  // Readers resolve every block published so far, plus addresses that
  // are never registered, while a writer grows the space through both
  // grant paths (relaxed PCM, and perfect requests that borrow fresh
  // DRAM). Meant for the thread sanitizer as much as for the asserts:
  // the neighbours of published blocks are where the next grants land,
  // so those lookups race the writer's publication itself.
  constexpr unsigned Readers = 3;
  for (int Round = 0; Round != 6; ++Round) {
    SpaceFixture F(0.25, /*Pages=*/2048);
    size_t MaxBlocks = F.Config.BudgetPages / F.Config.pagesPerBlock();
    std::vector<std::atomic<Block *>> Published(MaxBlocks);
    std::atomic<size_t> Count{0};
    std::atomic<bool> Done{false};
    std::atomic<uint64_t> Wrong{0};
    std::atomic<uint64_t> Lookups{0};
    // Host memory the OS model never granted: no lookup may find it.
    std::vector<uint8_t> Foreign(2 * F.Config.BlockSize);
    const uint8_t *Beyond = reinterpret_cast<const uint8_t *>(
        uintptr_t(1) << BlockTable::AddressBits);

    auto Read = [&] {
      uint64_t Local = 0;
      uint64_t Bad = 0;
      for (bool Last = false; !Last;) {
        Last = Done.load(std::memory_order_acquire);
        size_t N = Count.load(std::memory_order_acquire);
        for (size_t I = 0; I != N; ++I) {
          Block *B = Published[I].load(std::memory_order_relaxed);
          Bad += F.Space->blockOf(B->base()) != B;
          Bad += F.Space->blockOf(B->base() + B->sizeBytes() / 2) != B;
          Bad += F.Space->blockOf(B->base() + B->sizeBytes() - 1) != B;
          // A neighbour may be mid-publication: any hit must be a fully
          // constructed block containing the address.
          uintptr_t Base = reinterpret_cast<uintptr_t>(B->base());
          for (int Step = -2; Step <= 2; ++Step) {
            const uint8_t *Near = reinterpret_cast<const uint8_t *>(
                Base + Step * static_cast<intptr_t>(B->sizeBytes()));
            if (Block *Hit = F.Space->blockOf(Near))
              Bad += Near < Hit->base() ||
                     Near >= Hit->base() + Hit->sizeBytes();
          }
          Local += 8;
        }
        for (size_t Off = 0; Off < Foreign.size(); Off += 4096)
          Bad += F.Space->blockOf(Foreign.data() + Off) != nullptr;
        Bad += F.Space->blockOf(Beyond) != nullptr;
      }
      Wrong += Bad;
      Lookups += Local;
    };
    std::vector<std::thread> Threads;
    for (unsigned R = 0; R != Readers; ++R)
      Threads.emplace_back(Read);
    // The budget gate stops growth at MaxBlocks.
    for (size_t I = 0; I != MaxBlocks; ++I) {
      Block *B = I % 2 ? F.Space->takePerfectFree() : F.Space->takeFree();
      if (!B)
        break;
      Published[I].store(B, std::memory_order_relaxed);
      Count.store(I + 1, std::memory_order_release);
    }
    Done.store(true, std::memory_order_release);
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(Wrong.load(), 0u) << "round " << Round;
    EXPECT_GT(Lookups.load(), 0u);
    ASSERT_EQ(Count.load(), MaxBlocks);
    EXPECT_GT(F.Os.stats().DramBorrowed, 0u);
  }
}

TEST(ImmixSpaceTest, EvacuatingRecyclableIsReinstatedAfterProbe) {
  // Regression: takeRecyclable/takeRecyclableFitting used to pop an
  // evacuating block and drop it on the floor, leaking it from the
  // recycle list until some later sweep happened to re-list it.
  SpaceFixture F(0.0, /*Pages=*/64);
  std::vector<uint8_t *> Ptrs;
  for (int I = 0; I != 2000; ++I) {
    uint8_t *Mem = F.Allocator->alloc(64);
    if (!Mem)
      break;
    Ptrs.push_back(Mem);
  }
  // One line live -> exactly one recyclable block after the sweep.
  Block *Live = F.Space->blockOf(Ptrs[100]);
  Live->markLine(Live->lineOf(Ptrs[100]), 2);
  F.Allocator->retire();
  F.Space->sweep(2);
  ASSERT_EQ(Live->state(), BlockState::Recyclable);

  Live->setEvacuating(true);
  // Mid-evacuation probes must skip it without losing it.
  EXPECT_EQ(F.Space->takeRecyclable(), nullptr);
  Hole H;
  EXPECT_EQ(F.Space->takeRecyclableFitting(1, 2, 2, H), nullptr);
  // Evacuation ends; the block must be allocatable again with no
  // intervening sweep.
  F.Space->clearDefragCandidates();
  EXPECT_EQ(F.Space->takeRecyclable(), Live);
}

TEST(ImmixSpaceTest, EvacuatingFreeBlockIsReinstatedAfterProbe) {
  SpaceFixture F(0.0, /*Pages=*/16); // Two blocks, no room to grow.
  while (F.Allocator->alloc(1024))
    ;
  F.Allocator->retire();
  ImmixSweepTotals Totals = F.Space->sweep(2);
  ASSERT_EQ(Totals.FreeBlocks, 2u);
  std::vector<Block *> Free;
  F.Space->forEachBlock([&](Block &B) {
    B.setEvacuating(true);
    Free.push_back(&B);
  });
  // All free blocks evacuating and the budget exhausted: no block.
  EXPECT_EQ(F.Space->takeFree(), nullptr);
  F.Space->clearDefragCandidates();
  // Both blocks must still be reachable through the free list.
  EXPECT_NE(F.Space->takeFree(), nullptr);
  EXPECT_NE(F.Space->takeFree(), nullptr);
}

TEST(ImmixSpaceTest, FittingProbeReusesHoleCursor) {
  SpaceFixture F(0.0, /*Pages=*/64);
  std::vector<uint8_t *> Ptrs;
  for (int I = 0; I != 2000; ++I) {
    uint8_t *Mem = F.Allocator->alloc(64);
    if (!Mem)
      break;
    Ptrs.push_back(Mem);
  }
  // Fragment one block: every fourth line live -> max hole of 3 lines.
  Block *Frag = F.Space->blockOf(Ptrs[100]);
  for (unsigned Line = 0; Line < Frag->lineCount(); Line += 4)
    Frag->markLine(Line, 2);
  F.Allocator->retire();
  F.Space->sweep(2);
  ASSERT_EQ(Frag->state(), BlockState::Recyclable);

  Block::ScanCounters &Counters = Block::scanCounters();
  Hole H;
  // First oversized probe scans the block once and records futility.
  Counters.reset();
  EXPECT_EQ(F.Space->takeRecyclableFitting(8, 2, 2, H), nullptr);
  uint64_t FirstProbeSteps = Counters.WordSteps;
  EXPECT_GT(FirstProbeSteps, 0u);
  // Repeat probes at the same (or larger) need resume at the cursor and
  // do no scanning at all.
  Counters.reset();
  EXPECT_EQ(F.Space->takeRecyclableFitting(8, 2, 2, H), nullptr);
  EXPECT_EQ(F.Space->takeRecyclableFitting(9, 2, 2, H), nullptr);
  EXPECT_EQ(Counters.WordSteps, 0u);
  // A smaller request still sees the early holes.
  Block *Got = F.Space->takeRecyclableFitting(2, 2, 2, H);
  EXPECT_EQ(Got, Frag);
  EXPECT_GE(H.lines(), 2u);
}

TEST(ImmixSpaceTest, BudgetGateStopsGrowth) {
  SpaceFixture F(0.0, /*Pages=*/16); // Two blocks.
  size_t Got = 0;
  while (F.Allocator->alloc(1024))
    ++Got;
  EXPECT_EQ(F.Space->pagesHeld(), 16u);
  EXPECT_GT(Got, 50u);
}
