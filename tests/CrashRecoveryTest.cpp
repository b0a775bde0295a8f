//===- tests/CrashRecoveryTest.cpp - Kill/recover roundtrip tests ---------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "gc/Heap.h"
#include "heap/ImmixSpace.h"
#include "os/MetadataJournal.h"
#include "os/Os.h"

#include <gtest/gtest.h>

using namespace wearmem;

namespace {

RuntimeConfig testConfig() {
  RuntimeConfig Config;
  Config.HeapBytes = 4 * MiB;
  Config.Seed = 0xC4A5;
  return Config;
}

std::vector<Handle> populate(Runtime &Rt, size_t Bytes) {
  std::vector<Handle> Roots;
  for (size_t Allocated = 0; Allocated < Bytes; Allocated += 80) {
    Roots.push_back(Rt.allocateRooted(48, 2));
    EXPECT_NE(Roots.back().get(), nullptr);
  }
  return Roots;
}

/// Addresses of \p Count distinct live lines (marked at the current
/// epoch), spread over distinct blocks where possible.
std::vector<uint8_t *> liveLineAddrs(Runtime &Rt, size_t Count) {
  std::vector<uint8_t *> Addrs;
  ImmixSpace *Space = Rt.heap().immixSpace();
  if (!Space)
    return Addrs;
  Space->forEachBlock([&](Block &B) {
    if (Addrs.size() >= Count)
      return;
    for (unsigned Line = 0; Line != B.lineCount(); ++Line) {
      if (B.lineMark(Line) == Rt.heap().epoch()) {
        Addrs.push_back(B.lineAddr(Line));
        return; // one line per block
      }
    }
  });
  return Addrs;
}

} // namespace

TEST(CrashRecoveryTest, RecoverAfterDynamicFailures) {
  auto Rt = std::make_unique<Runtime>(testConfig());
  Rt->attachDurableState(Rt->bootstrapDurableState());
  auto Roots = populate(*Rt, MiB);
  Rt->collect(true);

  std::vector<uint8_t *> Addrs = liveLineAddrs(*Rt, 4);
  ASSERT_GE(Addrs.size(), 2u);
  Rt->heap().injectDynamicFailureBatch(Addrs);
  Rt->collect(true);
  EXPECT_GT(Rt->journal()->sizeBytes(), 0u);

  // Power off: all volatile state dies with the Runtime.
  std::shared_ptr<DurableState> DS = Rt->journal()->durableState();
  RuntimeConfig Base = Rt->config();
  uint64_t FailedBefore = DS->DeviceTruth.failedCount();
  Roots.clear();
  Rt.reset();

  RecoveryReport Report;
  auto Rt2 = Runtime::recover(Base, DS, Report);
  EXPECT_GT(Report.RecordsReplayed, 0u);
  EXPECT_EQ(Report.ChecksumFailures, 0u);
  EXPECT_EQ(Report.Divergences, 0u);
  EXPECT_TRUE(Report.AuditPassed);
  EXPECT_EQ(Report.AuditViolations, 0u);

  // The new incarnation is provisioned from the reconciled map and the
  // journal restarts empty over it.
  EXPECT_EQ(Rt2->heap().os().budgetFailureMap().failedCount(),
            FailedBefore);
  EXPECT_EQ(Rt2->journal()->sizeBytes(), 0u);

  // The recovered runtime keeps working.
  auto MoreRoots = populate(*Rt2, MiB / 2);
  Rt2->collect(true);
  EXPECT_FALSE(Rt2->outOfMemory());
}

TEST(CrashRecoveryTest, CrashMidAppendThenRecover) {
  auto Rt = std::make_unique<Runtime>(testConfig());
  Rt->attachDurableState(Rt->bootstrapDurableState());
  auto Roots = populate(*Rt, MiB);
  Rt->collect(true);

  std::vector<uint8_t *> Addrs = liveLineAddrs(*Rt, 4);
  ASSERT_GE(Addrs.size(), 2u);
  Rt->journal()->armCrash(CrashPoint::JournalAppend);
  EXPECT_THROW(Rt->heap().injectDynamicFailureBatch(Addrs), CrashSignal);

  std::shared_ptr<DurableState> DS = Rt->journal()->durableState();
  RuntimeConfig Base = Rt->config();
  Roots.clear();
  Rt.reset();

  RecoveryReport Report;
  auto Rt2 = Runtime::recover(Base, DS, Report);
  EXPECT_EQ(Report.TornRecords, 1u);
  EXPECT_GT(Report.TornTailBytes, 0u);
  // The torn line comes back from the device rescan, not as a divergence.
  EXPECT_GT(Report.DeviceOnlyLines, 0u);
  EXPECT_EQ(Report.Divergences, 0u);
  EXPECT_TRUE(Report.AuditPassed);
  EXPECT_EQ(Rt2->heap().os().budgetFailureMap().failedCount(),
            DS->DeviceTruth.failedCount());
}

TEST(CrashRecoveryTest, CrashMidUpcallThenRecover) {
  auto Rt = std::make_unique<Runtime>(testConfig());
  Rt->attachDurableState(Rt->bootstrapDurableState());
  auto Roots = populate(*Rt, MiB);
  Rt->collect(true);

  std::vector<uint8_t *> Addrs = liveLineAddrs(*Rt, 4);
  ASSERT_GE(Addrs.size(), 4u);
  Rt->journal()->armCrash(CrashPoint::InterruptUpcall);
  // The batch dies half-processed: the first half's failures are
  // journaled, the rest reach neither the journal nor the heap.
  EXPECT_THROW(Rt->heap().injectDynamicFailureBatch(Addrs), CrashSignal);

  std::shared_ptr<DurableState> DS = Rt->journal()->durableState();
  RuntimeConfig Base = Rt->config();
  Roots.clear();
  Rt.reset();

  RecoveryReport Report;
  auto Rt2 = Runtime::recover(Base, DS, Report);
  EXPECT_GT(Report.RecordsReplayed, 0u);
  EXPECT_EQ(Report.Divergences, 0u);
  EXPECT_TRUE(Report.AuditPassed);
}

TEST(CrashRecoveryTest, CrashBetweenRecoveryPhasesThenRetry) {
  auto Rt = std::make_unique<Runtime>(testConfig());
  Rt->attachDurableState(Rt->bootstrapDurableState());
  auto Roots = populate(*Rt, MiB);
  Rt->collect(true);
  std::vector<uint8_t *> Addrs = liveLineAddrs(*Rt, 2);
  ASSERT_GE(Addrs.size(), 1u);
  Rt->heap().injectDynamicFailureBatch(Addrs);
  Rt->collect(true);

  std::shared_ptr<DurableState> DS = Rt->journal()->durableState();
  RuntimeConfig Base = Rt->config();
  Roots.clear();
  Rt.reset();

  // The kill point between journal replay and heap rebuild fires inside
  // recover(); the arm is consumed, so the retry replays the same journal
  // and succeeds - recovery is idempotent.
  DS->ArmedCrash = CrashPoint::RecoveryPhase;
  RecoveryReport Report;
  EXPECT_THROW(Runtime::recover(Base, DS, Report), CrashSignal);
  auto Rt2 = Runtime::recover(Base, DS, Report);
  EXPECT_TRUE(Report.AuditPassed);
  EXPECT_EQ(Report.Divergences, 0u);
}

// A journal record the device rescan denies is counted as a divergence and
// never applied to the recovered map.
TEST(CrashRecoveryTest, JournalOnlyClaimIsReportedNotApplied) {
  auto Rt = std::make_unique<Runtime>(testConfig());
  Rt->attachDurableState(Rt->bootstrapDurableState());
  auto Roots = populate(*Rt, MiB / 2);
  Rt->collect(true);

  // Raw append skips the device-truth update: the journal now claims a
  // failure the device will deny on rescan.
  Rt->journal()->append(JournalKind::FailureMapUpdate, 7, 0, 0);

  std::shared_ptr<DurableState> DS = Rt->journal()->durableState();
  RuntimeConfig Base = Rt->config();
  Roots.clear();
  Rt.reset();

  RecoveryReport Report;
  auto Rt2 = Runtime::recover(Base, DS, Report);
  EXPECT_EQ(Report.JournalOnlyLines, 1u);
  EXPECT_EQ(Report.Divergences, 1u);
  EXPECT_FALSE(Rt2->heap().os().budgetFailureMap().isFailed(7));
  EXPECT_TRUE(Report.AuditPassed);
}

// Pool transitions are write-ahead logged: DRAM borrows and perfect-stock
// returns appear as PoolTransition records.
TEST(CrashRecoveryTest, PoolTransitionsJournaled) {
  FailureConfig Failures;
  Failures.Rate = 0.30;
  Failures.Seed = 0xBEE5;
  FailureAwareOs Os(64, Failures, PcmPageSize);

  auto DS = std::make_shared<DurableState>();
  DS->DeviceTruth = Os.budgetFailureMap();
  DS->Baseline = DS->DeviceTruth;
  MetadataJournal J(DS);
  Os.attachJournal(&J);

  // Exhaust perfect PCM so a fussy request must borrow DRAM, then return
  // a grant to the stock.
  std::vector<PageGrant> Held;
  while (Os.stats().DramBorrowed == 0) {
    std::optional<PageGrant> G = Os.allocPerfect(4);
    ASSERT_TRUE(G.has_value());
    Held.push_back(std::move(*G));
  }
  Os.freePerfect(std::move(Held.back()));
  Held.pop_back();

  JournalScan Scan = J.scan();
  bool SawBorrow = false, SawReturn = false;
  for (const JournalRecord &R : Scan.Records) {
    if (R.Kind != JournalKind::PoolTransition)
      continue;
    if (R.Arg16 == static_cast<uint16_t>(PoolTransitionKind::DramBorrow))
      SawBorrow = true;
    if (R.Arg16 ==
        static_cast<uint16_t>(PoolTransitionKind::PerfectReturn))
      SawReturn = true;
  }
  EXPECT_TRUE(SawBorrow);
  EXPECT_TRUE(SawReturn);
  EXPECT_EQ(Scan.ChecksumFailures, 0u);
}
