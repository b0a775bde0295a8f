//===- tests/FailureMapTest.cpp - Failure map and clustering tests --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "pcm/FailureMap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

using namespace wearmem;

TEST(FailureMapTest, UniformExactCount) {
  Rng Rand(1);
  FailureMap Map = FailureMap::uniform(64 * PcmLinesPerPage, 0.25, Rand);
  EXPECT_EQ(Map.failedCount(), 64 * PcmLinesPerPage / 4);
  EXPECT_NEAR(Map.failedFraction(), 0.25, 1e-9);
}

TEST(FailureMapTest, UniformZeroAndDeterministic) {
  Rng A(9), B(9);
  FailureMap MapA = FailureMap::uniform(4096, 0.1, A);
  FailureMap MapB = FailureMap::uniform(4096, 0.1, B);
  EXPECT_TRUE(MapA == MapB);
  Rng C(9);
  FailureMap Zero = FailureMap::uniform(4096, 0.0, C);
  EXPECT_EQ(Zero.failedCount(), 0u);
}

TEST(FailureMapTest, BernoulliApproximatesRate) {
  Rng Rand(5);
  FailureMap Map =
      FailureMap::uniform(100000, 0.3, Rand, /*Exact=*/false);
  EXPECT_NEAR(Map.failedFraction(), 0.3, 0.01);
}

TEST(FailureMapTest, ClusterLimitGranularity) {
  Rng Rand(3);
  // 16-line clusters: every failure run must be a multiple of 16 lines,
  // aligned to 16.
  FailureMap Map = FailureMap::clusterLimit(8192, 0.25, 16, Rand);
  EXPECT_EQ(Map.failedCount(), 8192u / 4);
  for (size_t Cluster = 0; Cluster != 8192 / 16; ++Cluster) {
    bool First = Map.isFailed(Cluster * 16);
    for (size_t I = 1; I != 16; ++I)
      EXPECT_EQ(Map.isFailed(Cluster * 16 + I), First)
          << "cluster " << Cluster << " not uniform";
  }
}

TEST(FailureMapTest, PageWordEncoding) {
  FailureMap Map(2 * PcmLinesPerPage);
  Map.fail(0);
  Map.fail(63);
  Map.fail(64); // First line of page 1.
  EXPECT_EQ(Map.pageWord(0), (uint64_t(1) << 63) | 1u);
  EXPECT_EQ(Map.pageWord(1), 1u);
  EXPECT_EQ(std::popcount(Map.pageWord(0)), 2);
  EXPECT_NE(Map.pageWord(0), 0u);
  EXPECT_EQ(Map.perfectPageCount(), 0u);
}

TEST(FailureMapTest, MetadataLineCounts) {
  // 1-page region: 64 lines -> 65 entries x 6 bits = 390 bits -> 1 line.
  EXPECT_EQ(FailureMap::metadataLines(1), 1u);
  // 2-page region: 128 lines -> 129 x 7 = 903 bits -> 2 lines (the paper
  // quotes 889 bits with slightly different bookkeeping; both round to 2).
  EXPECT_EQ(FailureMap::metadataLines(2), 2u);
  // 4-page region: 256 lines -> 257 x 8 = 2056 bits -> 5 lines; one cost
  // of larger regions that Section 7.3 cautions about.
  EXPECT_EQ(FailureMap::metadataLines(4), 5u);
}

TEST(FailureMapTest, PushClusteredMovesFailuresToEnds) {
  Rng Rand(17);
  size_t Pages = 64;
  FailureMap Base =
      FailureMap::uniform(Pages * PcmLinesPerPage, 0.2, Rand);
  ClusterOptions Opts;
  Opts.RegionPages = 2;
  FailureMap Clustered = Base.pushClustered(Opts);

  size_t LinesPerRegion = 2 * PcmLinesPerPage;
  for (size_t Region = 0; Region != Pages / 2; ++Region) {
    size_t BaseLine = Region * LinesPerRegion;
    // Count failures in the region; in the clustered map they must be
    // contiguous at the region's start (even) or end (odd).
    size_t Failed = 0;
    for (size_t I = 0; I != LinesPerRegion; ++I)
      Failed += Clustered.isFailed(BaseLine + I);
    for (size_t I = 0; I != LinesPerRegion; ++I) {
      bool ShouldFail = (Region % 2 == 0) ? I < Failed
                                          : I >= LinesPerRegion - Failed;
      EXPECT_EQ(Clustered.isFailed(BaseLine + I), ShouldFail)
          << "region " << Region << " line " << I;
    }
  }
}

TEST(FailureMapTest, PushClusteredChargesMetadata) {
  // One failure in a 2-page region costs the 2 metadata lines too.
  FailureMap Base(2 * PcmLinesPerPage);
  Base.fail(77);
  ClusterOptions Opts;
  Opts.RegionPages = 2;
  FailureMap Clustered = Base.pushClustered(Opts);
  EXPECT_EQ(Clustered.failedCount(), 1u + 2u);
  // Without metadata charging, the count is preserved exactly.
  Opts.ChargeMetadata = false;
  FailureMap Pure = Base.pushClustered(Opts);
  EXPECT_EQ(Pure.failedCount(), 1u);
}

TEST(FailureMapTest, PushClusteredUntouchedWhenPerfect) {
  FailureMap Base(4 * PcmLinesPerPage);
  ClusterOptions Opts;
  Opts.RegionPages = 2;
  FailureMap Clustered = Base.pushClustered(Opts);
  EXPECT_EQ(Clustered.failedCount(), 0u);
}

TEST(FailureMapTest, TwoPageClusteringYieldsPerfectPages) {
  // The paper: with two-page clustering and failures in < 50% of the
  // region, at least one page per region is logically perfect.
  Rng Rand(23);
  size_t Pages = 256;
  FailureMap Base =
      FailureMap::uniform(Pages * PcmLinesPerPage, 0.25, Rand);
  ClusterOptions Opts;
  Opts.RegionPages = 2;
  FailureMap Clustered = Base.pushClustered(Opts);
  // Count regions whose failures (plus metadata) fit within one page.
  size_t PerfectPages = Clustered.perfectPageCount();
  size_t EligibleRegions = 0;
  for (size_t Region = 0; Region != Pages / 2; ++Region) {
    size_t Failed = 0;
    for (size_t I = 0; I != 2 * PcmLinesPerPage; ++I)
      Failed += Base.isFailed(Region * 2 * PcmLinesPerPage + I);
    if (Failed + 2 <= PcmLinesPerPage)
      ++EligibleRegions;
  }
  EXPECT_EQ(PerfectPages, EligibleRegions);
  // At a 25% rate nearly every region qualifies.
  EXPECT_GT(PerfectPages, Pages / 2 - Pages / 8);

  // Without clustering, uniform 25% failures leave essentially no
  // perfect pages.
  EXPECT_LT(Base.perfectPageCount(), Pages / 64 + 2);
}

TEST(FailureMapTest, WorkingRuns) {
  FailureMap Map(256);
  Map.fail(10);
  Map.fail(11);
  Map.fail(100);
  std::vector<size_t> Runs = Map.workingRunLengths();
  ASSERT_EQ(Runs.size(), 3u);
  EXPECT_EQ(Runs[0], 10u);
  EXPECT_EQ(Runs[1], 88u);
  EXPECT_EQ(Runs[2], 155u);
  EXPECT_NEAR(Map.meanWorkingRun(), (10.0 + 88.0 + 155.0) / 3.0, 1e-9);
}

TEST(FailureMapTest, ClusteringLengthensRuns) {
  Rng Rand(31);
  FailureMap Base =
      FailureMap::uniform(512 * PcmLinesPerPage, 0.10, Rand);
  ClusterOptions Opts;
  Opts.RegionPages = 2;
  FailureMap Clustered = Base.pushClustered(Opts);
  // Clustering is the antidote to fragmentation: mean contiguous working
  // run must grow by a large factor.
  EXPECT_GT(Clustered.meanWorkingRun(), 4.0 * Base.meanWorkingRun());
}

//===----------------------------------------------------------------------===//
// Property sweeps
//===----------------------------------------------------------------------===//

class FailureMapRateTest : public ::testing::TestWithParam<double> {};

TEST_P(FailureMapRateTest, PushClusteringPreservesWearFailures) {
  double Rate = GetParam();
  Rng Rand(101);
  FailureMap Base =
      FailureMap::uniform(128 * PcmLinesPerPage, Rate, Rand);
  ClusterOptions Opts;
  Opts.RegionPages = 2;
  Opts.ChargeMetadata = false;
  FailureMap Clustered = Base.pushClustered(Opts);
  // Pure clustering permutes failures within regions: totals per region
  // are preserved exactly.
  size_t LinesPerRegion = 2 * PcmLinesPerPage;
  for (size_t Region = 0; Region != 64; ++Region) {
    size_t BaseCount = 0, ClusteredCount = 0;
    for (size_t I = 0; I != LinesPerRegion; ++I) {
      BaseCount += Base.isFailed(Region * LinesPerRegion + I);
      ClusteredCount += Clustered.isFailed(Region * LinesPerRegion + I);
    }
    EXPECT_EQ(BaseCount, ClusteredCount) << "region " << Region;
  }
}

TEST_P(FailureMapRateTest, OnePageClusteringKeepsPageCounts) {
  double Rate = GetParam();
  Rng Rand(77);
  FailureMap Base =
      FailureMap::uniform(128 * PcmLinesPerPage, Rate, Rand);
  ClusterOptions Opts;
  Opts.RegionPages = 1;
  Opts.ChargeMetadata = false;
  FailureMap Clustered = Base.pushClustered(Opts);
  for (PageIndex Page = 0; Page != 128; ++Page)
    EXPECT_EQ(std::popcount(Base.pageWord(Page)),
              std::popcount(Clustered.pageWord(Page)));
}

INSTANTIATE_TEST_SUITE_P(Rates, FailureMapRateTest,
                         ::testing::Values(0.0, 0.05, 0.10, 0.25, 0.50,
                                           0.75));

//===----------------------------------------------------------------------===//
// Word kernels against per-line references
//===----------------------------------------------------------------------===//

namespace {

/// Line-at-a-time versions of the word kernels, kept as references.
namespace ref {

uint64_t pageWord(const FailureMap &Map, PageIndex Page) {
  uint64_t Word = 0;
  size_t Base = Page * PcmLinesPerPage;
  for (size_t I = 0; I != PcmLinesPerPage; ++I)
    if (Map.isFailed(Base + I))
      Word |= uint64_t(1) << I;
  return Word;
}

unsigned failedLinesInPage(const FailureMap &Map, PageIndex Page) {
  size_t Base = Page * PcmLinesPerPage;
  unsigned N = 0;
  for (size_t I = 0; I != PcmLinesPerPage; ++I)
    N += Map.isFailed(Base + I);
  return N;
}

size_t perfectPageCount(const FailureMap &Map) {
  size_t N = 0;
  for (PageIndex Page = 0; Page != Map.numPages(); ++Page)
    N += failedLinesInPage(Map, Page) == 0;
  return N;
}

/// Picks clusters as uniform() picks lines (the same draws), then fails
/// each picked cluster's lines one at a time.
FailureMap clusterLimit(size_t NumLines, double Rate, size_t ClusterLines,
                        Rng &Rand, bool Exact) {
  FailureMap Picked =
      FailureMap::uniform(NumLines / ClusterLines, Rate, Rand, Exact);
  FailureMap Map(NumLines);
  for (size_t Cluster = 0; Cluster != Picked.numLines(); ++Cluster)
    if (Picked.isFailed(Cluster))
      for (size_t I = 0; I != ClusterLines; ++I)
        Map.fail(Cluster * ClusterLines + I);
  return Map;
}

FailureMap pushClustered(const FailureMap &In, const ClusterOptions &Opts) {
  size_t LinesPerRegion = Opts.RegionPages * PcmLinesPerPage;
  unsigned Meta =
      Opts.ChargeMetadata ? FailureMap::metadataLines(Opts.RegionPages) : 0;
  FailureMap Out(In.numLines());
  for (size_t Region = 0; Region != In.numLines() / LinesPerRegion;
       ++Region) {
    size_t Base = Region * LinesPerRegion;
    size_t Failed = 0;
    for (size_t I = 0; I != LinesPerRegion; ++I)
      Failed += In.isFailed(Base + I);
    if (Failed == 0)
      continue;
    size_t Unusable = std::min(Failed + Meta, LinesPerRegion);
    bool ToStart =
        Opts.Policy == ClusterPolicy::AllToStart || (Region % 2 == 0);
    for (size_t I = 0; I != Unusable; ++I)
      Out.fail(ToStart ? Base + I : Base + LinesPerRegion - 1 - I);
  }
  return Out;
}

} // namespace ref

/// A map whose lines fail independently at \p Rate, set one line at a
/// time (so no kernel under test builds it).
FailureMap randomMap(size_t NumLines, double Rate, uint64_t Seed) {
  Rng Rand(Seed);
  FailureMap Map(NumLines);
  for (size_t Line = 0; Line != NumLines; ++Line)
    if (Rand.nextBool(Rate))
      Map.fail(Line);
  return Map;
}

/// FNV-1a over the map's 64-line words, each assembled line by line.
uint64_t lineHash(const FailureMap &Map) {
  uint64_t H = 1469598103934665603ULL;
  uint64_t Word = 0;
  for (size_t Line = 0; Line != Map.numLines(); ++Line) {
    Word |= uint64_t(Map.isFailed(Line)) << (Line % 64);
    if (Line % 64 == 63 || Line + 1 == Map.numLines()) {
      H = (H ^ Word) * 1099511628211ULL;
      Word = 0;
    }
  }
  return H;
}

constexpr double KernelRates[] = {0.0, 0.25, 0.5, 1.0};

} // namespace

TEST(FailureMapWordKernelTest, PageQueriesMatchPerLineLoops) {
  uint64_t Seed = 1;
  for (size_t NumLines : {0u, 1u, 63u, 64u, 65u, 640u, 1000u, 4096u, 4159u})
    for (double Rate : KernelRates) {
      FailureMap Map = randomMap(NumLines, Rate, Seed++);
      for (PageIndex Page = 0; Page != Map.numPages(); ++Page) {
        ASSERT_EQ(Map.pageWord(Page), ref::pageWord(Map, Page))
            << NumLines << " lines, rate " << Rate << ", page " << Page;
        ASSERT_EQ(static_cast<unsigned>(std::popcount(Map.pageWord(Page))),
                  ref::failedLinesInPage(Map, Page));
      }
      EXPECT_EQ(Map.perfectPageCount(), ref::perfectPageCount(Map))
          << NumLines << " lines, rate " << Rate;
    }
}

TEST(FailureMapWordKernelTest, PushClusteredMatchesPerLineLoop) {
  uint64_t Seed = 100;
  for (unsigned RegionPages : {1u, 2u, 4u})
    for (size_t Regions : {1u, 3u, 37u})
      for (double Rate : {0.0, 0.01, 0.25, 0.5, 0.9, 1.0}) {
        FailureMap Base = randomMap(Regions * RegionPages * PcmLinesPerPage,
                                    Rate, Seed++);
        for (ClusterPolicy Policy :
             {ClusterPolicy::Alternate, ClusterPolicy::AllToStart})
          for (bool Charge : {false, true}) {
            ClusterOptions Opts;
            Opts.RegionPages = RegionPages;
            Opts.Policy = Policy;
            Opts.ChargeMetadata = Charge;
            EXPECT_TRUE(Base.pushClustered(Opts) ==
                        ref::pushClustered(Base, Opts))
                << RegionPages << "-page regions x " << Regions
                << ", rate " << Rate << ", policy "
                << static_cast<int>(Policy) << ", charge " << Charge;
          }
      }
}

TEST(FailureMapWordKernelTest, ClusterLimitMatchesPerLineLoop) {
  uint64_t Seed = 400;
  for (size_t ClusterLines = 1; ClusterLines <= 256; ++ClusterLines)
    for (double Rate : KernelRates)
      for (bool Exact : {true, false}) {
        size_t NumLines = ClusterLines * 37;
        Rng Got(Seed), Want(Seed);
        ++Seed;
        ASSERT_TRUE(FailureMap::clusterLimit(NumLines, Rate, ClusterLines,
                                             Got, Exact) ==
                    ref::clusterLimit(NumLines, Rate, ClusterLines, Want,
                                      Exact))
            << ClusterLines << "-line clusters, rate " << Rate
            << ", exact " << Exact;
        ASSERT_EQ(Got.next(), Want.next());
      }
}

// Each generator's words at fixed seeds, and the draw the RNG makes next,
// pinned: generated maps feed every committed benchmark result, so they
// must not change by a bit.
TEST(FailureMapWordKernelTest, GeneratedWordsArePinned) {
  struct UniformCase {
    size_t NumLines;
    double Rate;
    uint64_t Seed;
    bool Exact;
    size_t Failed;
    uint64_t Hash;
    uint64_t NextDraw;
  };
  const UniformCase Uniform[] = {
      {6016 * 64, 0.25, 0x05EED, true, 96256, 0x628a83041eb7e7b4,
       0x6dc8b36f6636395a},
      {6016 * 64, 0.25, 0x05EED, false, 96065, 0x19b1243eef4c6c08,
       0x1df3c281cf289651},
      {100003, 0.3, 41, true, 30001, 0x43d52b5224e6dee5, 0xa9a4d82b27136145},
      {100003, 0.3, 41, false, 29912, 0xb7cb4c365c0cd335,
       0x257ce0d8a25cf43d},
      {4096, 0.9, 7, true, 3686, 0x7a54f37dc6467d25, 0x1443607521060557},
      {1000, 0.001, 8, true, 1, 0x10fe272015f12c43, 0x9ace999dbf3cc12e},
  };
  for (const UniformCase &C : Uniform) {
    Rng Rand(C.Seed);
    FailureMap Map = FailureMap::uniform(C.NumLines, C.Rate, Rand, C.Exact);
    EXPECT_EQ(Map.failedCount(), C.Failed) << C.NumLines << " " << C.Exact;
    EXPECT_EQ(lineHash(Map), C.Hash) << C.NumLines << " " << C.Exact;
    EXPECT_EQ(Rand.next(), C.NextDraw) << C.NumLines << " " << C.Exact;
  }

  struct ClusterCase {
    size_t NumLines;
    double Rate;
    size_t ClusterLines;
    uint64_t Seed;
    bool Exact;
    size_t Failed;
    uint64_t Hash;
    uint64_t NextDraw;
  };
  const ClusterCase Cluster[] = {
      {65536, 0.25, 16, 3, true, 16384, 0xde0b471d9324f80f,
       0x5a676333109fb2ac},
      {65536, 0.25, 16, 3, false, 16064, 0x252905f2b4572c79,
       0x0b58aa62f1db5a1b},
      {65536, 0.1, 1, 5, true, 6554, 0x78002957e44100d7, 0xbf6b8c153edf54d3},
      {65536, 0.5, 256, 6, true, 32768, 0x5d47e5d3fb8e82c3,
       0x3b43aa8c14121a86},
      {63000, 0.3, 63, 9, true, 18900, 0x17e69a4a35bdf14d,
       0x828c71142f7584f5},
      {63000, 0.3, 63, 9, false, 19278, 0x5e0187e4161b1eca,
       0xe389548a47c758b6},
  };
  for (const ClusterCase &C : Cluster) {
    Rng Rand(C.Seed);
    FailureMap Map = FailureMap::clusterLimit(C.NumLines, C.Rate,
                                              C.ClusterLines, Rand, C.Exact);
    EXPECT_EQ(Map.failedCount(), C.Failed) << C.ClusterLines << " " << C.Exact;
    EXPECT_EQ(lineHash(Map), C.Hash) << C.ClusterLines << " " << C.Exact;
    EXPECT_EQ(Rand.next(), C.NextDraw) << C.ClusterLines << " " << C.Exact;
  }
}
