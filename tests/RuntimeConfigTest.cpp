//===- tests/RuntimeConfigTest.cpp - Config, handles, calibration ---------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace wearmem;

TEST(RuntimeConfigTest, Describe) {
  RuntimeConfig Config;
  EXPECT_EQ(Config.describe(), "S-IX L256");
  Config.FailureRate = 0.25;
  Config.ClusteringRegionPages = 2;
  EXPECT_EQ(Config.describe(), "S-IX^PCM L256 2CL f=25%");
  Config.ClusteringRegionPages = 0;
  Config.CompensateForFailures = false;
  EXPECT_EQ(Config.describe(), "S-IX^PCM L256 noCL f=25% NoComp");
  Config.Collector = CollectorKind::MarkSweep;
  Config.FailureRate = 0.0;
  Config.LineSize = 64;
  EXPECT_EQ(Config.describe(), "MS L64");
}

TEST(RuntimeConfigTest, ClusteringImpliesPushPattern) {
  RuntimeConfig Config;
  Config.FailureRate = 0.10;
  Config.ClusteringRegionPages = 2;
  HeapConfig Heap = Config.toHeapConfig();
  EXPECT_EQ(Heap.Failures.Pattern, FailurePattern::PushClustered);
  EXPECT_EQ(Heap.Failures.Cluster.RegionPages, 2u);
  EXPECT_TRUE(Heap.Failures.Cluster.ChargeMetadata);
  // Budget is a whole number of 2-page regions and blocks.
  EXPECT_EQ(Heap.BudgetPages % 8, 0u);

  // Clustering without failures degrades to the plain pattern (nothing
  // to cluster).
  Config.FailureRate = 0.0;
  EXPECT_EQ(Config.toHeapConfig().Failures.Pattern,
            FailurePattern::Uniform);
}

TEST(RuntimeConfigTest, PolicyKnobsPassThroughUnchanged) {
  RuntimeConfig Config;
  Config.Collector = CollectorKind::Immix;
  Config.BlockSize = 64 * KiB;
  Config.LineSize = 128;
  Config.ConservativeLineMarking = false;
  Config.FailureAware = false;
  Config.FreeListFailureAware = true;
  Config.DefragFreeFraction = 0.4;
  Config.MaxDebtPages = 7;
  Config.StormOverloadFraction = 0.6;
  Config.ThrottlePerfectFraction = 0.3;
  Config.ThrottleRetiredBlocks = 9;
  Config.EmergencyPerfectFraction = 0.02;
  Config.EmergencyRetiredFraction = 0.35;
  Config.GcThreads = 3;
  Config.IncrementalMark = true;
  Config.ConcurrentMark = true;
  Config.MarkBudget = 77;
  const HeapPolicy Defaults;
  HeapConfig Heap = Config.toHeapConfig();
  // Each knob is set away from its default, so a knob the derivation
  // dropped would read back as the default and fail.
#define EXPECT_PASSED_THROUGH(Knob)                                          \
  EXPECT_NE(Config.Knob, Defaults.Knob) << #Knob;                            \
  EXPECT_EQ(Heap.Knob, Config.Knob) << #Knob
  EXPECT_PASSED_THROUGH(Collector);
  EXPECT_PASSED_THROUGH(BlockSize);
  EXPECT_PASSED_THROUGH(LineSize);
  EXPECT_PASSED_THROUGH(ConservativeLineMarking);
  EXPECT_PASSED_THROUGH(FailureAware);
  EXPECT_PASSED_THROUGH(FreeListFailureAware);
  EXPECT_PASSED_THROUGH(DefragFreeFraction);
  EXPECT_PASSED_THROUGH(MaxDebtPages);
  EXPECT_PASSED_THROUGH(StormOverloadFraction);
  EXPECT_PASSED_THROUGH(ThrottlePerfectFraction);
  EXPECT_PASSED_THROUGH(ThrottleRetiredBlocks);
  EXPECT_PASSED_THROUGH(EmergencyPerfectFraction);
  EXPECT_PASSED_THROUGH(EmergencyRetiredFraction);
  EXPECT_PASSED_THROUGH(GcThreads);
  EXPECT_PASSED_THROUGH(IncrementalMark);
  EXPECT_PASSED_THROUGH(ConcurrentMark);
  EXPECT_PASSED_THROUGH(MarkBudget);
#undef EXPECT_PASSED_THROUGH
}

TEST(RuntimeConfigTest, BudgetRoundsToBlocks) {
  RuntimeConfig Config;
  Config.HeapBytes = 1000 * 1000; // Not block-aligned.
  HeapConfig Heap = Config.toHeapConfig();
  EXPECT_EQ(Heap.BudgetPages % Heap.pagesPerBlock(), 0u);
  EXPECT_GE(Heap.BudgetPages * PcmPageSize, Config.HeapBytes);
}

TEST(HandleTest, MoveSemantics) {
  RuntimeConfig Config;
  Config.HeapBytes = 2 * MiB;
  Runtime Rt(Config);
  Handle A = Rt.allocateRooted(8, 0);
  ObjRef Obj = A.get();
  ASSERT_NE(Obj, nullptr);
  Handle B = std::move(A);
  EXPECT_FALSE(A.valid());
  EXPECT_TRUE(B.valid());
  EXPECT_EQ(B.get(), Obj);
  Handle C;
  EXPECT_FALSE(C.valid());
  C = std::move(B);
  EXPECT_TRUE(C.valid());
  C.release();
  EXPECT_FALSE(C.valid());
}

TEST(HandleTest, ReleasedRootsAreCollected) {
  RuntimeConfig Config;
  Config.HeapBytes = 2 * MiB;
  Runtime Rt(Config);
  {
    Handle Doomed = Rt.allocateRooted(64 * KiB, 0);
    ASSERT_NE(Doomed.get(), nullptr);
    EXPECT_GT(Rt.heap().largeObjectSpace().pagesHeld(), 0u);
  }
  Rt.collect(true);
  EXPECT_EQ(Rt.heap().largeObjectSpace().pagesHeld(), 0u);
}

// Re-derives each profile's minimum heap by binary search and checks the
// baked values. Slow (a few minutes), so it only runs when
// WEARMEM_CALIBRATE=1; the baked values are validated cheaply (at 2x) by
// WorkloadTest's completion tests.
TEST(CalibrationTest, BakedMinHeapsMatchMeasurement) {
  if (!std::getenv("WEARMEM_CALIBRATE"))
    GTEST_SKIP() << "set WEARMEM_CALIBRATE=1 to run the full calibration";
  for (const Profile &P : allProfiles()) {
    size_t Lo = 1 * MiB, Hi = 64 * MiB;
    auto Completes = [&](size_t Bytes) {
      RuntimeConfig Config;
      Config.HeapBytes = Bytes;
      return runOnce(P, Config).Completed;
    };
    ASSERT_TRUE(Completes(Hi)) << P.Name;
    while (Hi - Lo > 256 * KiB) {
      size_t Mid = (Lo + Hi) / 2;
      (Completes(Mid) ? Hi : Lo) = Mid;
    }
    // Baked minimum within 25% of the measured one.
    EXPECT_GT(static_cast<double>(P.MinHeapBytes),
              0.75 * static_cast<double>(Hi))
        << P.Name;
    EXPECT_LT(static_cast<double>(P.MinHeapBytes),
              1.5 * static_cast<double>(Hi))
        << P.Name;
  }
}
