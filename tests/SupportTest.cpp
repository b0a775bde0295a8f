//===- tests/SupportTest.cpp - Support library unit tests -----------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "support/Bitmap.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace wearmem;

TEST(UnitsTest, AlignmentHelpers) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(4096));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_EQ(alignUp(1, 64), 64u);
  EXPECT_EQ(alignUp(64, 64), 64u);
  EXPECT_EQ(alignDown(127, 64), 64u);
  EXPECT_EQ(divCeil(1, 64), 1u);
  EXPECT_EQ(divCeil(65, 64), 2u);
  EXPECT_EQ(log2Exact(4096), 12u);
}

TEST(RandomTest, Deterministic) {
  Rng A(42), B(42), C(43);
  bool Diverged = false;
  for (int I = 0; I != 100; ++I) {
    uint64_t X = A.next();
    EXPECT_EQ(X, B.next());
    if (X != C.next())
      Diverged = true;
  }
  EXPECT_TRUE(Diverged);
}

TEST(RandomTest, BoundsRespected) {
  Rng Rand(7);
  for (int I = 0; I != 10000; ++I) {
    uint64_t V = Rand.nextBelow(17);
    EXPECT_LT(V, 17u);
    uint64_t R = Rand.nextInRange(5, 9);
    EXPECT_GE(R, 5u);
    EXPECT_LE(R, 9u);
    double D = Rand.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, UniformishDistribution) {
  Rng Rand(99);
  int Counts[10] = {};
  constexpr int N = 100000;
  for (int I = 0; I != N; ++I)
    ++Counts[Rand.nextBelow(10)];
  for (int C : Counts) {
    EXPECT_GT(C, N / 10 - N / 50);
    EXPECT_LT(C, N / 10 + N / 50);
  }
}

TEST(RandomTest, GaussianMoments) {
  Rng Rand(1234);
  RunningStat Stat;
  for (int I = 0; I != 50000; ++I)
    Stat.add(Rand.nextGaussian());
  EXPECT_NEAR(Stat.mean(), 0.0, 0.02);
  EXPECT_NEAR(Stat.stddev(), 1.0, 0.02);
}

TEST(BitmapTest, SetGetClear) {
  Bitmap Map(130);
  EXPECT_EQ(Map.size(), 130u);
  EXPECT_TRUE(Map.none());
  Map.set(0);
  Map.set(64);
  Map.set(129);
  EXPECT_TRUE(Map.get(0));
  EXPECT_TRUE(Map.get(64));
  EXPECT_TRUE(Map.get(129));
  EXPECT_FALSE(Map.get(1));
  EXPECT_EQ(Map.count(), 3u);
  Map.clear(64);
  EXPECT_FALSE(Map.get(64));
  EXPECT_EQ(Map.count(), 2u);
}

TEST(BitmapTest, SetAllMasksTheTail) {
  Bitmap Map(200);
  Map.setAll();
  EXPECT_EQ(Map.count(), 200u);
}

TEST(StatsTest, RunningStat) {
  RunningStat Stat;
  for (double V : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    Stat.add(V);
  EXPECT_EQ(Stat.count(), 8u);
  EXPECT_DOUBLE_EQ(Stat.mean(), 5.0);
  EXPECT_NEAR(Stat.stddev(), 2.138, 0.001);
  EXPECT_GT(Stat.ci95(), 0.0);
}

TEST(StatsTest, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean({1.0, 3.0}), 2.0);
}

TEST(TableTest, FormatsNumbers) {
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::num(std::nan(""), 2), "-");
  EXPECT_EQ(Table::bytes(32 * 1024), "32KiB");
  EXPECT_EQ(Table::bytes(4 * 1024 * 1024), "4MiB");
  EXPECT_EQ(Table::bytes(100), "100B");
}
