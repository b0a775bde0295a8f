//===- tests/FaultCampaignTest.cpp - Fault-campaign engine tests ----------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "gc/HeapAuditor.h"
#include "inject/FaultCampaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

using namespace wearmem;

namespace {

RuntimeConfig testConfig() {
  RuntimeConfig Config;
  Config.HeapBytes = 4 * MiB;
  Config.Seed = 0xC0FFEE;
  return Config;
}

/// Roots roughly \p Bytes of small live objects and runs a full
/// collection so their lines carry the current epoch mark (campaign
/// shapes target live lines).
std::vector<Handle> populate(Runtime &Rt, size_t Bytes) {
  std::vector<Handle> Roots;
  for (size_t Allocated = 0; Allocated < Bytes; Allocated += 80) {
    Roots.push_back(Rt.allocateRooted(48, 2));
    EXPECT_NE(Roots.back().get(), nullptr);
  }
  Rt.collect(true);
  return Roots;
}

/// Every failed Immix line as (block ordinal, line index), in iteration
/// order; two identical runs must produce identical sets.
std::vector<std::pair<size_t, unsigned>> failedLineSet(Runtime &Rt) {
  std::vector<std::pair<size_t, unsigned>> Out;
  size_t Ordinal = 0;
  Rt.heap().immixSpace()->forEachBlock([&](Block &B) {
    for (unsigned Line = 0; Line != B.lineCount(); ++Line)
      if (B.lineIsFailed(Line))
        Out.emplace_back(Ordinal, Line);
    ++Ordinal;
  });
  return Out;
}

/// Every line in the heap's failure ledger as (block creation sequence,
/// byte offset), sorted.
std::vector<std::pair<uint64_t, uint32_t>> ledgerLines(Runtime &Rt) {
  ImmixSpace &Space = *Rt.heap().immixSpace();
  std::vector<std::pair<uint64_t, uint32_t>> Out;
  Rt.heap().failureLedger().forEach([&](uintptr_t Base, size_t Offset) {
    Block *B = Space.blockOf(reinterpret_cast<uint8_t *>(Base));
    Out.emplace_back(B->creationSeq(), static_cast<uint32_t>(Offset));
  });
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// The drip and storm samplers as the engine first wrote them: list every
/// live (block, line) pair - or every occupied block's live lines - then
/// partially shuffle the list. Kept as the reference the engine's
/// count-then-pick samplers must reproduce draw for draw.
std::vector<uint8_t *> referenceSample(ImmixSpace &Space, uint8_t Epoch,
                                       const FaultTrigger &T, Rng &Rand) {
  std::vector<uint8_t *> Addrs;
  auto pcmLineWithin = [&](Block &B, unsigned Line) -> uint8_t * {
    size_t PerLine = std::max<size_t>(1, B.lineSize() / PcmLineSize);
    return B.lineAddr(Line) + Rand.nextBelow(PerLine) * PcmLineSize;
  };
  if (T.Shape == FaultShape::Drip) {
    std::vector<std::pair<Block *, unsigned>> Live;
    Space.forEachBlock([&](Block &B) {
      if (B.state() == BlockState::Retired)
        return;
      for (unsigned Line = 0; Line != B.lineCount(); ++Line)
        if (B.lineMark(Line) == Epoch)
          Live.emplace_back(&B, Line);
    });
    size_t Want = std::min<size_t>(T.Lines, Live.size());
    for (size_t I = 0; I != Want; ++I) {
      size_t J = I + Rand.nextBelow(Live.size() - I);
      std::swap(Live[I], Live[J]);
      Addrs.push_back(pcmLineWithin(*Live[I].first, Live[I].second));
    }
    return Addrs;
  }
  std::vector<std::pair<Block *, std::vector<unsigned>>> Occupied;
  Space.forEachBlock([&](Block &B) {
    if (B.state() == BlockState::Retired)
      return;
    std::vector<unsigned> LiveLines;
    for (unsigned Line = 0; Line != B.lineCount(); ++Line)
      if (B.lineMark(Line) == Epoch)
        LiveLines.push_back(Line);
    if (!LiveLines.empty())
      Occupied.emplace_back(&B, std::move(LiveLines));
  });
  if (Occupied.empty())
    return Addrs;
  size_t Target = 0;
  if (T.Hot) {
    for (size_t I = 1; I != Occupied.size(); ++I)
      if (Occupied[I].second.size() > Occupied[Target].second.size())
        Target = I;
  } else {
    Target = Rand.nextBelow(Occupied.size());
  }
  Block &B = *Occupied[Target].first;
  std::vector<unsigned> &LiveLines = Occupied[Target].second;
  size_t Want = std::min<size_t>(T.Lines, LiveLines.size());
  for (size_t I = 0; I != Want; ++I) {
    size_t J = I + Rand.nextBelow(LiveLines.size() - I);
    std::swap(LiveLines[I], LiveLines[J]);
    Addrs.push_back(pcmLineWithin(B, LiveLines[I]));
  }
  return Addrs;
}

} // namespace

//===----------------------------------------------------------------------===//
// Schedule parsing
//===----------------------------------------------------------------------===//

TEST(FaultCampaignParse, SingleDrip) {
  auto Triggers = FaultCampaign::parseSchedule("drip@alloc:1m+256k");
  ASSERT_TRUE(Triggers.has_value());
  ASSERT_EQ(Triggers->size(), 1u);
  const FaultTrigger &T = (*Triggers)[0];
  EXPECT_EQ(T.Shape, FaultShape::Drip);
  EXPECT_EQ(T.Clock, TriggerClock::AllocBytes);
  EXPECT_EQ(T.Start, 1u * MiB);
  EXPECT_EQ(T.Period, 256u * KiB);
  EXPECT_EQ(T.Repeats, 0u); // Unbounded.
  EXPECT_EQ(T.Lines, 1u);
  EXPECT_FALSE(T.Hot);
}

TEST(FaultCampaignParse, MultiEntryWithOptions) {
  auto Triggers = FaultCampaign::parseSchedule(
      "storm@gc:10+5x6:lines=24,hot; region@writes:8:pages=2");
  ASSERT_TRUE(Triggers.has_value());
  ASSERT_EQ(Triggers->size(), 2u);
  const FaultTrigger &Storm = (*Triggers)[0];
  EXPECT_EQ(Storm.Shape, FaultShape::Storm);
  EXPECT_EQ(Storm.Clock, TriggerClock::GcCount);
  EXPECT_EQ(Storm.Start, 10u);
  EXPECT_EQ(Storm.Period, 5u);
  EXPECT_EQ(Storm.Repeats, 6u);
  EXPECT_EQ(Storm.Lines, 24u);
  EXPECT_TRUE(Storm.Hot);
  const FaultTrigger &Region = (*Triggers)[1];
  EXPECT_EQ(Region.Shape, FaultShape::Region);
  EXPECT_EQ(Region.Clock, TriggerClock::Writes);
  EXPECT_EQ(Region.Start, 8u);
  EXPECT_EQ(Region.Period, 0u); // One-shot.
  EXPECT_EQ(Region.Pages, 2u);
}

TEST(FaultCampaignParse, RejectsMalformedEntries) {
  const char *Bad[] = {
      "",                    // Empty schedule.
      "drip:100",            // Missing @clock.
      "flood@gc:1",          // Unknown shape.
      "drip@time:1",         // Unknown clock.
      "drip@gc:x5",          // Bad start.
      "drip@gc:1+",          // Bad period.
      "drip@gc:1+2x0",       // Zero repeats.
      "drip@gc:1q",          // Trailing junk.
      "drip@gc:1:lines=0",   // Zero-valued option.
      "drip@gc:1:holes=3",   // Unknown option.
  };
  for (const char *Text : Bad) {
    std::string Error;
    EXPECT_FALSE(FaultCampaign::parseSchedule(Text, &Error).has_value())
        << "accepted '" << Text << "'";
    EXPECT_FALSE(Error.empty());
  }
}

//===----------------------------------------------------------------------===//
// Heap-targeted campaigns
//===----------------------------------------------------------------------===//

TEST(FaultCampaignTest, DripIsDeterministicForAFixedSeed) {
  auto Triggers = FaultCampaign::parseSchedule("drip@gc:1:lines=6");
  ASSERT_TRUE(Triggers.has_value());

  auto runOnce = [&](Runtime &Rt, FaultCampaign &Campaign) {
    auto Roots = populate(Rt, MiB);
    EXPECT_TRUE(Campaign.pump());
  };

  Runtime RtA(testConfig());
  FaultCampaign CampaignA(*Triggers, 99);
  CampaignA.attachRuntime(RtA);
  runOnce(RtA, CampaignA);

  Runtime RtB(testConfig());
  FaultCampaign CampaignB(*Triggers, 99);
  CampaignB.attachRuntime(RtB);
  runOnce(RtB, CampaignB);

  EXPECT_EQ(CampaignA.stats().LinesFailed, 6u);
  EXPECT_EQ(ledgerLines(RtA).size(), 6u);
  EXPECT_EQ(ledgerLines(RtA), ledgerLines(RtB));
  EXPECT_EQ(failedLineSet(RtA), failedLineSet(RtB));
}

TEST(FaultCampaignTest, SamplersPickTheReferenceVictims) {
  // The engine counts live lines and locates only the picks; the
  // reference lists every candidate first. Same heap, same stream: each
  // firing must add exactly the reference's lines to the heap's failure
  // ledger and leave the RNG at the same point. Collections and churn
  // between firings vary the census the next firing samples. The small
  // heap's drip wants nearly every live line, so the shuffle revisits
  // displaced positions.
  struct Case {
    const char *Schedule;
    size_t LiveBytes;
  };
  for (Case C : {Case{"drip@gc:1+1:lines=8", MiB},
                 Case{"drip@gc:1+1:lines=24", 2 * KiB},
                 Case{"storm@gc:1+1:lines=12,hot", MiB},
                 Case{"storm@gc:1+1:lines=12", MiB}}) {
    const char *Text = C.Schedule;
    auto Triggers = FaultCampaign::parseSchedule(Text);
    ASSERT_TRUE(Triggers.has_value());
    for (uint64_t Seed : {1u, 7u, 99u, 2024u}) {
      Runtime Rt(testConfig());
      FaultCampaign Campaign(*Triggers, Seed);
      Campaign.attachRuntime(Rt);
      std::vector<Handle> Roots = populate(Rt, C.LiveBytes);
      for (unsigned Firing = 0; Firing != 4; ++Firing) {
        SCOPED_TRACE(std::string(Text) + " seed " + std::to_string(Seed) +
                     " firing " + std::to_string(Firing));
        ImmixSpace &Space = *Rt.heap().immixSpace();
        Rng Reference = Campaign.rng();
        std::vector<std::pair<uint64_t, uint32_t>> Expected;
        for (uint8_t *Addr : referenceSample(Space, Rt.heap().epoch(),
                                             (*Triggers)[0], Reference)) {
          Block *B = Space.blockOf(Addr);
          Expected.emplace_back(B->creationSeq(),
                                static_cast<uint32_t>(Addr - B->base()));
        }
        ASSERT_FALSE(Expected.empty());
        std::sort(Expected.begin(), Expected.end());
        std::vector<std::pair<uint64_t, uint32_t>> Old = ledgerLines(Rt);
        ASSERT_TRUE(Campaign.pump());
        std::vector<std::pair<uint64_t, uint32_t>> New = ledgerLines(Rt);
        std::vector<std::pair<uint64_t, uint32_t>> Struck;
        std::set_difference(New.begin(), New.end(), Old.begin(), Old.end(),
                            std::back_inserter(Struck));
        EXPECT_EQ(Struck, Expected);
        Rng After = Campaign.rng();
        EXPECT_EQ(After.next(), Reference.next());
        // Drop every seventh root, root new objects in the holes, and
        // advance the gc clock to the next firing.
        for (size_t I = Firing; I < Roots.size(); I += 7)
          Roots[I] = Handle();
        for (size_t I = 0; I != C.LiveBytes / KiB; ++I)
          Roots.push_back(Rt.allocateRooted(48 + 16 * (I % 5), 2));
        Rt.collect(true);
      }
    }
  }
}

TEST(FaultCampaignTest, StormDefersRecoveryUntilNextCollection) {
  auto Triggers = FaultCampaign::parseSchedule("storm@gc:1:lines=8,hot");
  ASSERT_TRUE(Triggers.has_value());
  Runtime Rt(testConfig());
  FaultCampaign Campaign(*Triggers, 7);
  Campaign.attachRuntime(Rt);
  auto Roots = populate(Rt, MiB);

  ASSERT_TRUE(Campaign.pump());
  EXPECT_EQ(Campaign.stats().LinesFailed, 8u);
  // Below the emergency threshold the lines are fenced but recovery
  // waits for the collector.
  EXPECT_TRUE(Rt.heap().pendingFailureRecovery());
  EXPECT_EQ(Rt.stats().DynamicFailureBatches, 1u);
  EXPECT_EQ(Rt.stats().EmergencyDefrags, 0u);

  Rt.collect(true);
  EXPECT_FALSE(Rt.heap().pendingFailureRecovery());
  EXPECT_EQ(Rt.stats().DeferredFailureRecoveries, 1u);

  HeapAuditor Auditor(Rt.heap());
  AuditReport Report = Auditor.audit();
  EXPECT_TRUE(Report.passed())
      << (Report.Violations.empty() ? "" : Report.Violations[0]);
}

TEST(FaultCampaignTest, HugeBatchTriggersEmergencyDefrag) {
  // 64 lines in one burst crosses the default emergency threshold (32):
  // recovery must run immediately instead of waiting.
  auto Triggers = FaultCampaign::parseSchedule("storm@gc:1:lines=64,hot");
  ASSERT_TRUE(Triggers.has_value());
  Runtime Rt(testConfig());
  FaultCampaign Campaign(*Triggers, 7);
  Campaign.attachRuntime(Rt);
  auto Roots = populate(Rt, MiB);

  ASSERT_TRUE(Campaign.pump());
  EXPECT_GE(Campaign.stats().LinesFailed, 32u);
  EXPECT_GE(Rt.stats().EmergencyDefrags, 1u);
  EXPECT_FALSE(Rt.heap().pendingFailureRecovery());
}

TEST(FaultCampaignTest, EscalationReArmsAtDoubledIntensity) {
  auto Triggers = FaultCampaign::parseSchedule("storm@gc:1:lines=4,hot");
  ASSERT_TRUE(Triggers.has_value());
  Runtime Rt(testConfig());
  FaultCampaign Campaign(*Triggers, 7);
  Campaign.attachRuntime(Rt);
  Campaign.setEscalation(true);
  auto Roots = populate(Rt, MiB);

  ASSERT_TRUE(Campaign.pump());
  uint64_t FirstWave = Campaign.stats().LinesFailed;
  EXPECT_EQ(FirstWave, 4u);
  EXPECT_EQ(Campaign.stats().Escalations, 1u);

  // The next collection advances the gc clock past the re-armed
  // deadline; the second wave is twice as hard.
  Rt.collect(true);
  ASSERT_TRUE(Campaign.pump());
  EXPECT_EQ(Campaign.stats().LinesFailed, FirstWave + 8u);
  EXPECT_EQ(Campaign.stats().Escalations, 2u);
}
