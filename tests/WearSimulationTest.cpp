//===- tests/WearSimulationTest.cpp - Wear simulation replay tests --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Complements WearTest.cpp (which checks the failure *patterns*): these
// tests pin down that a wear run is a pure function of its seed - the
// same write totals and failure map on a rerun, and a longer run that
// extends a shorter one.
//
//===----------------------------------------------------------------------===//

#include "pcm/WearSimulation.h"

#include <gtest/gtest.h>

using namespace wearmem;

namespace {

WearSimConfig smallConfig() {
  WearSimConfig Config;
  Config.NumLines = 512;
  Config.MeanLineLifetime = 800;
  Config.HotFraction = 0.1;
  Config.HotWeight = 0.9;
  Config.Seed = 0x5EEDULL;
  return Config;
}

} // namespace

TEST(WearSimulationTest, SameSeedIsDeterministic) {
  WearSimResult A = simulateWear(smallConfig(), 0.08);
  WearSimResult B = simulateWear(smallConfig(), 0.08);
  EXPECT_EQ(A.TotalWrites, B.TotalWrites);
  EXPECT_EQ(A.WritesAtFirstFailure, B.WritesAtFirstFailure);
  ASSERT_EQ(A.Map.numLines(), B.Map.numLines());
  for (size_t L = 0; L != A.Map.numLines(); ++L)
    EXPECT_EQ(A.Map.isFailed(L), B.Map.isFailed(L));
}

TEST(WearSimulationTest, LongerRunsOnlyGrowWear) {
  // The same seed replays the same write sequence, so running to a
  // higher failure target extends the shorter run: the write total is
  // non-decreasing and the first failure lands at the same write.
  WearSimResult Short = simulateWear(smallConfig(), 0.04);
  WearSimResult Long = simulateWear(smallConfig(), 0.12);
  EXPECT_GE(Long.TotalWrites, Short.TotalWrites);
  EXPECT_EQ(Long.WritesAtFirstFailure, Short.WritesAtFirstFailure);
  // Failures never heal: the short run's failed lines stay failed.
  for (size_t L = 0; L != Short.Map.numLines(); ++L) {
    if (Short.Map.isFailed(L)) {
      EXPECT_TRUE(Long.Map.isFailed(L)) << "line " << L;
    }
  }
}
