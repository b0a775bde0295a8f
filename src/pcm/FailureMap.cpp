//===- pcm/FailureMap.cpp - Failure maps and distributions ---------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "pcm/FailureMap.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

using namespace wearmem;

/// Picks \p Want distinct indices out of [0, Total) and calls \p Fail on
/// each, deterministically given the RNG.
template <typename FailFn>
static void sampleDistinct(size_t Total, size_t Want, Rng &Rand,
                           FailFn Fail) {
  assert(Want <= Total && "cannot fail more units than exist");
  if (Want == 0)
    return;
  if (Want == Total) {
    for (size_t I = 0; I != Total; ++I)
      Fail(I);
    return;
  }
  // Partial Fisher-Yates over an index vector: exact and unbiased. Memory
  // is proportional to Total, which is at most a few million lines here.
  std::vector<uint32_t> Indices(Total);
  for (size_t I = 0; I != Total; ++I)
    Indices[I] = static_cast<uint32_t>(I);
  for (size_t I = 0; I != Want; ++I) {
    size_t J = I + static_cast<size_t>(Rand.nextBelow(Total - I));
    std::swap(Indices[I], Indices[J]);
    Fail(Indices[I]);
  }
}

FailureMap FailureMap::uniform(size_t NumLines, double Rate, Rng &Rand,
                               bool Exact) {
  assert(Rate >= 0.0 && Rate <= 1.0 && "failure rate out of range");
  FailureMap Map(NumLines);
  if (Exact) {
    size_t Want = static_cast<size_t>(
        std::llround(Rate * static_cast<double>(NumLines)));
    sampleDistinct(NumLines, Want, Rand,
                   [&Map](size_t Line) { Map.fail(Line); });
    return Map;
  }
  for (size_t Line = 0; Line != NumLines; ++Line)
    if (Rand.nextBool(Rate))
      Map.fail(Line);
  return Map;
}

FailureMap FailureMap::clusterLimit(size_t NumLines, double Rate,
                                    size_t ClusterLines, Rng &Rand,
                                    bool Exact) {
  assert(ClusterLines > 0 && NumLines % ClusterLines == 0 &&
         "cluster granularity must divide the map size");
  FailureMap Map(NumLines);
  size_t NumClusters = NumLines / ClusterLines;
  auto FailCluster = [&](size_t Cluster) {
    Map.Lines.setRange(Cluster * ClusterLines, ClusterLines);
  };
  if (Exact) {
    size_t Want = static_cast<size_t>(
        std::llround(Rate * static_cast<double>(NumClusters)));
    sampleDistinct(NumClusters, Want, Rand, FailCluster);
    return Map;
  }
  for (size_t Cluster = 0; Cluster != NumClusters; ++Cluster)
    if (Rand.nextBool(Rate))
      FailCluster(Cluster);
  return Map;
}

size_t FailureMap::perfectPageCount() const {
  size_t N = 0;
  for (PageIndex Page = 0, E = numPages(); Page != E; ++Page)
    N += pageWord(Page) == 0;
  return N;
}

unsigned FailureMap::metadataLines(unsigned RegionPages) {
  assert(isPowerOfTwo(RegionPages) && "region size must be a power of two");
  unsigned LinesPerRegion =
      RegionPages * static_cast<unsigned>(PcmLinesPerPage);
  unsigned BitsPerEntry = log2Exact(LinesPerRegion);
  // One redirection entry per line plus the boundary pointer.
  unsigned Bits = (LinesPerRegion + 1) * BitsPerEntry;
  unsigned BitsPerLine = static_cast<unsigned>(PcmLineSize) * 8;
  return (Bits + BitsPerLine - 1) / BitsPerLine;
}

FailureMap FailureMap::pushClustered(const ClusterOptions &Opts) const {
  assert(isPowerOfTwo(Opts.RegionPages) &&
         "region size must be a power of two");
  size_t LinesPerRegion = Opts.RegionPages * PcmLinesPerPage;
  assert(numLines() % LinesPerRegion == 0 &&
         "map must be a whole number of regions");
  size_t NumRegions = numLines() / LinesPerRegion;
  unsigned Meta =
      Opts.ChargeMetadata ? metadataLines(Opts.RegionPages) : 0;

  FailureMap Out(numLines());
  for (size_t Region = 0; Region != NumRegions; ++Region) {
    size_t Base = Region * LinesPerRegion;
    size_t Failed = 0;
    for (size_t Page = 0; Page != Opts.RegionPages; ++Page)
      Failed += static_cast<size_t>(
          std::popcount(pageWord(Region * Opts.RegionPages + Page)));
    if (Failed == 0)
      continue;
    // Unusable = wear failures plus the redirection map's metadata lines,
    // capped at the region size (a fully dead region stays fully dead).
    size_t Unusable = std::min(Failed + Meta, LinesPerRegion);
    bool ToStart = Opts.Policy == ClusterPolicy::AllToStart ||
                   (Region % 2 == 0);
    Out.Lines.setRange(ToStart ? Base : Base + LinesPerRegion - Unusable,
                       Unusable);
  }
  return Out;
}

std::vector<size_t> FailureMap::workingRunLengths() const {
  std::vector<size_t> Runs;
  size_t RunStart = 0;
  bool InRun = false;
  for (size_t Line = 0, E = numLines(); Line != E; ++Line) {
    bool Working = !Lines.get(Line);
    if (Working && !InRun) {
      InRun = true;
      RunStart = Line;
    } else if (!Working && InRun) {
      InRun = false;
      Runs.push_back(Line - RunStart);
    }
  }
  if (InRun)
    Runs.push_back(numLines() - RunStart);
  return Runs;
}

double FailureMap::meanWorkingRun() const {
  std::vector<size_t> Runs = workingRunLengths();
  if (Runs.empty())
    return 0.0;
  size_t Sum = 0;
  for (size_t R : Runs)
    Sum += R;
  return static_cast<double>(Sum) / static_cast<double>(Runs.size());
}
