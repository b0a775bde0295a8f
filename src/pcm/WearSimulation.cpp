//===- pcm/WearSimulation.cpp - Wear-pattern failure-map synthesis --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "pcm/WearSimulation.h"

#include "pcm/WearLeveler.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace wearmem;

WearSimResult wearmem::simulateWear(const WearSimConfig &Config,
                                    double TargetFailedFraction) {
  assert(TargetFailedFraction >= 0.0 && TargetFailedFraction <= 1.0);
  size_t NumLines = Config.NumLines;
  size_t NumSlots = Config.UseStartGap ? NumLines + 1 : NumLines;

  Rng Rand(Config.Seed);
  std::vector<uint64_t> Budget(NumSlots);
  double Mean = static_cast<double>(Config.MeanLineLifetime);
  for (uint64_t &B : Budget) {
    double Sample =
        Mean * (1.0 + Config.LifetimeVariation * Rand.nextGaussian());
    B = static_cast<uint64_t>(std::max(1.0, Sample));
  }

  StartGapLeveler Leveler(NumLines, Config.GapInterval);
  size_t HotLines = std::max<size_t>(
      1, static_cast<size_t>(Config.HotFraction *
                             static_cast<double>(NumLines)));

  std::vector<bool> Failed(NumSlots, false);
  size_t FailedCount = 0;
  size_t Target = static_cast<size_t>(TargetFailedFraction *
                                      static_cast<double>(NumLines));
  WearSimResult Result;

  auto WearSlot = [&](size_t Slot) {
    if (Failed[Slot])
      return; // Dead cells absorb writes without further effect.
    if (--Budget[Slot] == 0) {
      Failed[Slot] = true;
      ++FailedCount;
      if (FailedCount == 1)
        Result.WritesAtFirstFailure = Result.TotalWrites;
    }
  };

  while (FailedCount < Target && Result.TotalWrites < Config.MaxWrites) {
    ++Result.TotalWrites;
    // Skewed traffic: HotWeight of writes land uniformly in the hot
    // prefix, the rest uniformly in the cold suffix.
    size_t Logical;
    if (Rand.nextBool(Config.HotWeight))
      Logical = static_cast<size_t>(Rand.nextBelow(HotLines));
    else
      Logical = HotLines + static_cast<size_t>(
                               Rand.nextBelow(NumLines - HotLines));

    if (Config.UseStartGap) {
      WearSlot(Leveler.translate(Logical));
      size_t CopyTarget = Leveler.recordWrite();
      if (CopyTarget != SIZE_MAX)
        WearSlot(CopyTarget); // Gap movement costs one extra line write.
    } else {
      WearSlot(Logical);
    }
  }

  // Project physical failures back into the logical space under the final
  // mapping.
  Result.Map = FailureMap(NumLines);
  for (size_t L = 0; L != NumLines; ++L)
    if (Failed[Config.UseStartGap ? Leveler.translate(L) : L])
      Result.Map.fail(L);
  return Result;
}
