//===- tests/FailureAwareHeapTest.cpp - Failure-aware heap tests ----------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The paper's core invariants under failure injection: live objects never
// occupy failed lines (static or dynamic), compensation holds working
// memory constant, dynamic failures are recovered by evacuation, pinned
// objects fall back to OS page remapping.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include <gtest/gtest.h>

#include <vector>

using namespace wearmem;

namespace {
uint64_t &payloadWord(ObjRef Obj) {
  return *reinterpret_cast<uint64_t *>(objectPayload(Obj));
}
} // namespace

//===----------------------------------------------------------------------===//
// Static failures: property sweep over rates, line sizes, clustering
//===----------------------------------------------------------------------===//

struct StaticFailureParam {
  double Rate;
  size_t LineSize;
  unsigned ClusterPages;
};

class StaticFailureTest
    : public ::testing::TestWithParam<StaticFailureParam> {};

TEST_P(StaticFailureTest, LiveObjectsNeverOnFailedLines) {
  StaticFailureParam P = GetParam();
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.HeapBytes = 8 * MiB;
  Config.FailureRate = P.Rate;
  Config.LineSize = P.LineSize;
  Config.ClusteringRegionPages = P.ClusterPages;
  Runtime Rt(Config);

  Rng Rand(5);
  Handle Table = Rt.allocateRooted(0, 300);
  ASSERT_NE(Table.get(), nullptr);
  for (int Round = 0; Round != 6; ++Round) {
    for (int I = 0; I != 3000; ++I) {
      uint32_t Payload =
          Rand.nextBool(0.1) ? 500 + Rand.nextBelow(3000) : 24;
      ObjRef Obj =
          Rt.allocate(Payload, static_cast<uint16_t>(Rand.nextBelow(3)));
      ASSERT_NE(Obj, nullptr);
      payloadWord(Obj) = 0xC0FFEE00 + I;
      if (Rand.nextBool(0.1))
        Rt.writeRef(Table.get(), Rand.nextBelow(300), Obj);
    }
    Rt.collect(Round % 2 == 0);
    // verifyIntegrity asserts no live object overlaps a failed line.
    Rt.heap().verifyIntegrity();
  }
  if (P.Rate > 0.0) {
    // Failed lines really arrived with the blocks.
    EXPECT_GT(Rt.stats().LinesSkippedFailed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatesLinesClustering, StaticFailureTest,
    ::testing::Values(StaticFailureParam{0.0, 256, 0},
                      StaticFailureParam{0.10, 256, 0},
                      StaticFailureParam{0.10, 64, 0},
                      StaticFailureParam{0.10, 128, 0},
                      StaticFailureParam{0.25, 256, 2},
                      StaticFailureParam{0.25, 64, 1},
                      StaticFailureParam{0.50, 256, 2},
                      StaticFailureParam{0.50, 64, 2}),
    [](const ::testing::TestParamInfo<StaticFailureParam> &Info) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "f%02d_L%zu_cl%u",
                    static_cast<int>(Info.param.Rate * 100),
                    Info.param.LineSize, Info.param.ClusterPages);
      return std::string(Buf);
    });

//===----------------------------------------------------------------------===//
// Compensation
//===----------------------------------------------------------------------===//

TEST(CompensationTest, BudgetScalesByFailureRate) {
  RuntimeConfig Config;
  Config.HeapBytes = 16 * MiB;
  Config.FailureRate = 0.25;
  Config.CompensateForFailures = true;
  HeapConfig Heap = Config.toHeapConfig();
  // h / (1 - f): 16 MiB / 0.75 = 21.33 MiB, rounded up to block granules.
  size_t Expect = static_cast<size_t>(16.0 * 1024 * 1024 / 0.75 / 4096);
  EXPECT_GE(Heap.BudgetPages, Expect);
  EXPECT_LE(Heap.BudgetPages, Expect + 8);

  Config.CompensateForFailures = false;
  EXPECT_EQ(Config.toHeapConfig().BudgetPages, 16u * MiB / PcmPageSize);
}

TEST(CompensationTest, WorkingMemoryHeldConstant) {
  // With exact-count injection and compensation, the number of working
  // (non-failed) lines equals the uncompensated heap's line count.
  RuntimeConfig Config;
  Config.HeapBytes = 8 * MiB;
  Config.FailureRate = 0.5;
  Runtime Rt(Config);
  const FailureMap &Map = Rt.heap().os().budgetFailureMap();
  size_t Working = Map.numLines() - Map.failedCount();
  size_t Target = 8 * MiB / PcmLineSize;
  EXPECT_NEAR(static_cast<double>(Working), static_cast<double>(Target),
              static_cast<double>(Target) * 0.01);
}

//===----------------------------------------------------------------------===//
// Dynamic failures
//===----------------------------------------------------------------------===//

TEST(DynamicFailureTest, DataSurvivesInjectedLineFailures) {
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.HeapBytes = 8 * MiB;
  Config.FailureRate = 0.10;
  Config.ClusteringRegionPages = 2;
  Runtime Rt(Config);

  constexpr unsigned N = 5000;
  Handle Table = Rt.allocateRooted(0, N);
  ASSERT_NE(Table.get(), nullptr);
  for (unsigned I = 0; I != N; ++I) {
    ObjRef Obj = Rt.allocate(8, 0);
    ASSERT_NE(Obj, nullptr);
    payloadWord(Obj) = I * 7 + 1;
    Rt.writeRef(Table.get(), I, Obj);
  }
  Rt.collect(true);

  Rng Rand(99);
  for (int Failure = 0; Failure != 10; ++Failure)
    ASSERT_TRUE(Rt.injectRandomDynamicFailure(Rand));
  EXPECT_EQ(Rt.stats().DynamicFailuresHandled, 10u);
  EXPECT_GE(Rt.stats().FullGcCount, 10u);

  for (unsigned I = 0; I != N; ++I) {
    ObjRef Obj = Runtime::readRef(Table.get(), I);
    ASSERT_NE(Obj, nullptr);
    ASSERT_EQ(payloadWord(Obj), I * 7 + 1) << "object " << I;
  }
  Rt.heap().verifyIntegrity();
}

TEST(DynamicFailureTest, TargetedLineIsRetiredForever) {
  RuntimeConfig Config;
  Config.HeapBytes = 4 * MiB;
  Runtime Rt(Config);
  Handle Obj = Rt.allocateRooted(64, 0);
  ASSERT_NE(Obj.get(), nullptr);
  payloadWord(Obj.get()) = 1234;
  uint8_t *Addr = Obj.get();
  Block *B = Rt.heap().immixSpace()->blockOf(Addr);
  ASSERT_NE(B, nullptr);
  unsigned Line = B->lineOf(Addr);

  Rt.injectDynamicFailureAt(Addr);
  // The object moved away; the line is failed for good.
  EXPECT_TRUE(B->lineIsFailed(Line));
  EXPECT_NE(Obj.get(), Addr);
  EXPECT_EQ(payloadWord(Obj.get()), 1234u);
}

TEST(DynamicFailureTest, PinnedObjectTriggersPageRemap) {
  RuntimeConfig Config;
  Config.HeapBytes = 4 * MiB;
  Runtime Rt(Config);
  Handle Pinned = Rt.allocateRooted(64, 0, /*Pinned=*/true);
  ASSERT_NE(Pinned.get(), nullptr);
  payloadWord(Pinned.get()) = 4321;
  uint8_t *Addr = Pinned.get();

  Rt.injectDynamicFailureAt(Addr);
  // The pinned object could not move: the OS remapped the page, the
  // line is usable again, and the object stayed put.
  EXPECT_EQ(Rt.stats().PinnedFailurePageRemaps, 1u);
  EXPECT_EQ(Pinned.get(), Addr);
  EXPECT_EQ(payloadWord(Pinned.get()), 4321u);
  Block *B = Rt.heap().immixSpace()->blockOf(Addr);
  EXPECT_FALSE(B->lineIsFailed(B->lineOf(Addr)));
}

TEST(DynamicFailureTest, FreeListHeapFallsBackToPageCopy) {
  // Section 3.3.1: a non-moving free-list runtime cannot handle dynamic
  // failures; the OS must copy the page.
  RuntimeConfig Config;
  Config.Collector = CollectorKind::MarkSweep;
  Config.HeapBytes = 4 * MiB;
  Runtime Rt(Config);
  Handle Obj = Rt.allocateRooted(64, 0);
  ASSERT_NE(Obj.get(), nullptr);
  Rt.injectDynamicFailureAt(Obj.get());
  EXPECT_EQ(Rt.stats().DynamicFailurePageCopies, 1u);
}

//===----------------------------------------------------------------------===//
// Failure-aware free list (static failures)
//===----------------------------------------------------------------------===//

TEST(FreeListFailureTest, CellsOverlappingFailuresAreWithheld) {
  // A modest 3% line-failure rate: small cells mostly survive, but a
  // measurable population is withheld (each failed 64 B line poisons a
  // whole cell - the paper's granularity-mismatch cost).
  RuntimeConfig Config;
  Config.Collector = CollectorKind::MarkSweep;
  Config.HeapBytes = 4 * MiB;
  Config.FailureRate = 0.03;
  Config.FreeListFailureAware = true;
  Runtime Rt(Config);

  Handle Table = Rt.allocateRooted(0, 200);
  ASSERT_NE(Table.get(), nullptr);
  Rng Rand(11);
  for (int I = 0; I != 20000; ++I) {
    ObjRef Obj = Rt.allocate(static_cast<uint32_t>(Rand.nextBelow(200)),
                             1);
    ASSERT_NE(Obj, nullptr);
    if (Rand.nextBool(0.01))
      Rt.writeRef(Table.get(), Rand.nextBelow(200), Obj);
  }
  Rt.collect(true);
  Rt.heap().verifyIntegrity();
  EXPECT_FALSE(Rt.outOfMemory());
}

TEST(FreeListFailureTest, LargeCellsSufferDisproportionately) {
  // The same line-failure rate wastes far more memory in big size
  // classes: P(2 KiB cell clean) = (1-f)^32 vs (1-f)^1 for 64 B cells.
  RuntimeConfig Config;
  Config.Collector = CollectorKind::MarkSweep;
  Config.HeapBytes = 4 * MiB;
  Config.FailureRate = 0.10;
  Config.FreeListFailureAware = true;
  Runtime Rt(Config);
  // Allocate 2 KiB objects only; at 10% failures almost every cell
  // (P(clean) = 0.9^32 ~ 3%) is withheld, so the runtime burns through
  // far more blocks than a failure-free heap would.
  for (int I = 0; I != 200; ++I)
    if (!Rt.allocate(2000, 0))
      break;
  uint64_t FailingSlowPaths = Rt.heap().stats().AllocSlowPaths;

  RuntimeConfig Clean = Config;
  Clean.FailureRate = 0.0;
  Runtime CleanRt(Clean);
  for (int I = 0; I != 200; ++I)
    ASSERT_NE(CleanRt.allocate(2000, 0), nullptr);
  uint64_t CleanSlowPaths = CleanRt.heap().stats().AllocSlowPaths;

  EXPECT_GT(FailingSlowPaths, 5 * CleanSlowPaths);
}

//===----------------------------------------------------------------------===//
// Zero-overhead claim scaffolding
//===----------------------------------------------------------------------===//

TEST(FailureAwareTest, NoMetadataGrowthWithoutFailures) {
  // The failure-aware collector adds no metadata when there are no
  // failures: the budget and block bookkeeping are identical.
  RuntimeConfig Aware;
  Aware.HeapBytes = 8 * MiB;
  Aware.FailureAware = true;
  RuntimeConfig Plain = Aware;
  Plain.FailureAware = false;
  EXPECT_EQ(Aware.toHeapConfig().BudgetPages,
            Plain.toHeapConfig().BudgetPages);
}
