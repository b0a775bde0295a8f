//===- tests/MetadataJournalTest.cpp - Metadata WAL tests -----------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "os/MetadataJournal.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace wearmem;

namespace {

constexpr size_t TestPages = 8;
constexpr size_t TestLines = TestPages * PcmLinesPerPage;

std::shared_ptr<DurableState> freshState() {
  auto DS = std::make_shared<DurableState>();
  DS->DeviceTruth = FailureMap(TestLines);
  DS->Baseline = DS->DeviceTruth;
  return DS;
}

} // namespace

TEST(MetadataJournalTest, RecordRoundtrip) {
  auto DS = freshState();
  MetadataJournal J(DS);
  J.recordLineFailure(3, 17);
  J.recordLedgerEntry(3, 17);
  J.recordPoolTransition(PoolTransitionKind::DramBorrow, 5);

  JournalScan Scan = J.scan();
  EXPECT_EQ(Scan.TornTailBytes, 0u);
  EXPECT_EQ(Scan.ChecksumFailures, 0u);
  ASSERT_EQ(Scan.Records.size(), 3u);

  EXPECT_EQ(Scan.Records[0].Kind, JournalKind::FailureMapUpdate);
  EXPECT_EQ(Scan.Records[0].A, 3u);
  EXPECT_EQ(Scan.Records[0].Arg16, 17u);
  EXPECT_EQ(Scan.Records[1].Kind, JournalKind::LedgerEntry);
  EXPECT_EQ(Scan.Records[2].Kind, JournalKind::PoolTransition);
  EXPECT_EQ(Scan.Records[2].Arg16,
            static_cast<uint16_t>(PoolTransitionKind::DramBorrow));
  EXPECT_EQ(Scan.Records[2].A, 5u);

  // Device truth moved before the append.
  EXPECT_TRUE(DS->DeviceTruth.isFailed(3 * PcmLinesPerPage + 17));
}

TEST(MetadataJournalTest, ReplayRebuildsFailureView) {
  auto DS = freshState();
  MetadataJournal J(DS);
  J.recordLineFailure(0, 1);
  J.recordLineFailure(5, 63);
  J.recordLedgerEntry(5, 63);

  ReconcileResult Rec =
      reconcileJournal(J.scan(), DS->Baseline, DS->DeviceTruth);
  EXPECT_EQ(Rec.RecordsReplayed, 3u);
  EXPECT_EQ(Rec.LedgerEntries, 1u);
  EXPECT_EQ(Rec.JournalOnlyLines, 0u);
  EXPECT_EQ(Rec.DeviceOnlyLines, 0u);
  EXPECT_TRUE(Rec.JournalView.isFailed(1));
  EXPECT_TRUE(Rec.JournalView.isFailed(5 * PcmLinesPerPage + 63));
  EXPECT_TRUE(Rec.Reconciled == DS->DeviceTruth);
}

// Satellite: truncate the journal at every byte offset of the last record.
// Whatever the tear length, only the torn record is dropped, every earlier
// record replays, and the divergence count stays zero (the lost line comes
// back from the device rescan as a device-only adoption).
TEST(MetadataJournalTest, TornTailAtEveryByteOffset) {
  for (size_t Keep = 0; Keep != MetadataJournal::RecordSize; ++Keep) {
    auto DS = freshState();
    MetadataJournal J(DS);
    J.recordLineFailure(1, 10);
    J.recordLineFailure(2, 20);
    J.recordLineFailure(4, 40); // the record that will tear

    std::vector<uint8_t> Bytes = DS->Journal;
    ASSERT_EQ(Bytes.size(), 3 * MetadataJournal::RecordSize);
    Bytes.resize(2 * MetadataJournal::RecordSize + Keep);

    JournalScan Scan = MetadataJournal::scanBytes(Bytes);
    EXPECT_EQ(Scan.Records.size(), 2u) << "keep=" << Keep;
    EXPECT_EQ(Scan.TornTailBytes, Keep) << "keep=" << Keep;
    EXPECT_EQ(Scan.TornRecords, Keep == 0 ? 0u : 1u);
    EXPECT_EQ(Scan.ChecksumFailures, 0u) << "keep=" << Keep;

    ReconcileResult Rec =
        reconcileJournal(Scan, DS->Baseline, DS->DeviceTruth);
    EXPECT_EQ(Scan.ChecksumFailures + Rec.JournalOnlyLines, 0u)
        << "keep=" << Keep;
    // The torn line was lost from the journal but the device knows it.
    EXPECT_EQ(Rec.DeviceOnlyLines, 1u) << "keep=" << Keep;
    EXPECT_TRUE(Rec.Reconciled.isFailed(4 * PcmLinesPerPage + 40));
    EXPECT_FALSE(Rec.JournalView.isFailed(4 * PcmLinesPerPage + 40));
  }
}

// A corrupted record is checksum-detected, skipped, and counted as a
// divergence - never silently applied.
TEST(MetadataJournalTest, CorruptedRecordDetectedNotApplied) {
  auto DS = freshState();
  MetadataJournal J(DS);
  J.recordLineFailure(1, 10);
  J.recordLineFailure(2, 20);
  J.recordLineFailure(3, 30);

  // Flip the page argument of the middle record without fixing its
  // checksum: the journal now "claims" a failure on page 7.
  DS->Journal[MetadataJournal::RecordSize + 4] = 7;

  JournalScan Scan = J.scan();
  EXPECT_EQ(Scan.ChecksumFailures, 1u);
  ASSERT_EQ(Scan.Records.size(), 2u);

  ReconcileResult Rec =
      reconcileJournal(Scan, DS->Baseline, DS->DeviceTruth);
  EXPECT_FALSE(Rec.JournalView.isFailed(7 * PcmLinesPerPage + 20));
  EXPECT_FALSE(Rec.Reconciled.isFailed(7 * PcmLinesPerPage + 20));
  // Scanner resynchronised: the record after the corrupt one replayed.
  EXPECT_TRUE(Rec.JournalView.isFailed(3 * PcmLinesPerPage + 30));
  // The divergence policy counts the checksum failure.
  EXPECT_EQ(Scan.ChecksumFailures + Rec.JournalOnlyLines, 1u);
  // Device truth (written before the corrupted append) still recovers
  // the real line.
  EXPECT_TRUE(Rec.Reconciled.isFailed(2 * PcmLinesPerPage + 20));
}

// The checksum is seeded with the cell index, so a bitwise-intact record
// copied into a different slot fails verification.
TEST(MetadataJournalTest, MisplacedRecordFailsChecksum) {
  auto DS = freshState();
  MetadataJournal J(DS);
  J.recordLineFailure(1, 10);
  J.recordLineFailure(2, 20);

  constexpr size_t R = MetadataJournal::RecordSize;
  std::vector<uint8_t> Swapped = DS->Journal;
  for (size_t I = 0; I != R; ++I)
    std::swap(Swapped[I], Swapped[R + I]);

  JournalScan Scan = MetadataJournal::scanBytes(Swapped);
  EXPECT_EQ(Scan.Records.size(), 0u);
  EXPECT_EQ(Scan.ChecksumFailures, 2u);
}

// Journal-only claims (device rescan denies them) are divergences and are
// dropped from the recovered map.
TEST(MetadataJournalTest, JournalOnlyLineIsDivergence) {
  auto DS = freshState();
  MetadataJournal J(DS);
  J.recordLineFailure(1, 10);
  // Simulate a stale journal claim: the device no longer confirms it.
  DS->DeviceTruth.clear(1 * PcmLinesPerPage + 10);

  ReconcileResult Rec =
      reconcileJournal(J.scan(), DS->Baseline, DS->DeviceTruth);
  EXPECT_EQ(Rec.JournalOnlyLines, 1u);
  EXPECT_FALSE(Rec.Reconciled.isFailed(1 * PcmLinesPerPage + 10));
}

// A PageRemap transition voids the page's earlier failure records in the
// journal's view, matching the cleared device truth.
TEST(MetadataJournalTest, PageRemapClearsJournalView) {
  auto DS = freshState();
  MetadataJournal J(DS);
  J.recordLineFailure(2, 5);
  J.recordLineFailure(2, 6);
  J.recordPageRemap(2);

  ReconcileResult Rec =
      reconcileJournal(J.scan(), DS->Baseline, DS->DeviceTruth);
  EXPECT_FALSE(Rec.JournalView.isFailed(2 * PcmLinesPerPage + 5));
  EXPECT_FALSE(Rec.JournalView.isFailed(2 * PcmLinesPerPage + 6));
  EXPECT_EQ(Rec.JournalOnlyLines, 0u);
  EXPECT_EQ(Rec.PoolTransitions, 1u);
  EXPECT_FALSE(DS->DeviceTruth.isFailed(2 * PcmLinesPerPage + 5));
}

// An armed JournalAppend kill point tears the in-flight record and throws;
// the torn tail is detected on the next scan.
TEST(MetadataJournalTest, ArmedAppendTearsRecord) {
  auto DS = freshState();
  MetadataJournal J(DS);
  J.recordLineFailure(1, 1);
  J.armCrash(CrashPoint::JournalAppend);
  EXPECT_THROW(J.recordLineFailure(2, 2), CrashSignal);
  EXPECT_FALSE(J.crashArmed());
  EXPECT_EQ(DS->Crashes, 1u);

  JournalScan Scan = J.scan();
  EXPECT_EQ(Scan.Records.size(), 1u);
  EXPECT_EQ(Scan.TornRecords, 1u);
  EXPECT_GT(Scan.TornTailBytes, 0u);
  EXPECT_LT(Scan.TornTailBytes, MetadataJournal::RecordSize);
  // Device truth committed before the torn append.
  EXPECT_TRUE(DS->DeviceTruth.isFailed(2 * PcmLinesPerPage + 2));
}

TEST(MetadataJournalTest, CrashPointOnlyFiresWhenArmed) {
  auto DS = freshState();
  MetadataJournal J(DS);
  EXPECT_NO_THROW(J.crashPoint(CrashPoint::Remap));
  J.armCrash(CrashPoint::Remap);
  EXPECT_NO_THROW(J.crashPoint(CrashPoint::InterruptUpcall));
  EXPECT_THROW(J.crashPoint(CrashPoint::Remap), CrashSignal);
  // The arm is consumed by firing.
  EXPECT_NO_THROW(J.crashPoint(CrashPoint::Remap));
}

TEST(MetadataJournalTest, CompactResetsBaselineAndJournal) {
  auto DS = freshState();
  MetadataJournal J(DS);
  J.recordLineFailure(4, 8);
  ReconcileResult Rec =
      reconcileJournal(J.scan(), DS->Baseline, DS->DeviceTruth);
  J.compact(Rec.Reconciled);

  EXPECT_EQ(J.sizeBytes(), 0u);
  EXPECT_TRUE(DS->Baseline == Rec.Reconciled);
  EXPECT_TRUE(DS->DeviceTruth == Rec.Reconciled);
  // A fresh scan over the compacted journal replays nothing but the
  // baseline already carries the failure.
  ReconcileResult Again =
      reconcileJournal(J.scan(), DS->Baseline, DS->DeviceTruth);
  EXPECT_EQ(Again.RecordsReplayed, 0u);
  EXPECT_TRUE(Again.Reconciled.isFailed(4 * PcmLinesPerPage + 8));
}

// The page remap's range clear, in the device map and in the replay, and
// the reconcile's divergence counts, against per-line loops: random
// device and baseline maps of equal and unequal lengths, whole pages and
// partial last words, failures and remaps on pages past either map's end.
TEST(MetadataJournalTest, RemapAndReconcileMatchPerLineLoops) {
  Rng Rand(0x10C);
  for (size_t DeviceLines : {64u, 100u, 512u, 577u})
    for (size_t BaselineLines : {64u, 100u, 512u, 577u}) {
      auto DS = std::make_shared<DurableState>();
      DS->DeviceTruth = FailureMap(DeviceLines);
      DS->Baseline = FailureMap(BaselineLines);
      for (size_t Line = 0; Line != DeviceLines; ++Line)
        if (Rand.nextBool(0.3))
          DS->DeviceTruth.fail(Line);
      for (size_t Line = 0; Line != BaselineLines; ++Line)
        if (Rand.nextBool(0.3))
          DS->Baseline.fail(Line);
      FailureMap WantDevice = DS->DeviceTruth;
      FailureMap WantView = DS->Baseline;
      auto Apply = [](FailureMap &Map, uint64_t Line, bool Fail) {
        if (Line >= Map.numLines())
          return;
        if (Fail)
          Map.fail(Line);
        else
          Map.clear(Line);
      };

      MetadataJournal J(DS);
      uint64_t Pages = std::max(DeviceLines, BaselineLines) / 64 + 2;
      for (unsigned Op = 0; Op != 80; ++Op) {
        auto Page = static_cast<uint32_t>(Rand.nextBelow(Pages));
        uint64_t First = uint64_t(Page) * PcmLinesPerPage;
        if (Rand.nextBelow(4) == 0) {
          J.recordPageRemap(Page);
          for (uint64_t I = 0; I != PcmLinesPerPage; ++I) {
            Apply(WantDevice, First + I, false);
            Apply(WantView, First + I, false);
          }
        } else {
          auto LineInPage = static_cast<uint32_t>(Rand.nextBelow(64));
          J.recordLineFailure(Page, LineInPage);
          Apply(WantDevice, First + LineInPage, true);
          Apply(WantView, First + LineInPage, true);
        }
      }
      // Stale journal claims: the device no longer confirms some lines.
      for (size_t Line = 0; Line != DeviceLines; ++Line)
        if (Rand.nextBelow(8) == 0) {
          DS->DeviceTruth.clear(Line);
          WantDevice.clear(Line);
        }
      ASSERT_TRUE(DS->DeviceTruth == WantDevice)
          << DeviceLines << " device lines";

      ReconcileResult Rec =
          reconcileJournal(J.scan(), DS->Baseline, DS->DeviceTruth);
      EXPECT_TRUE(Rec.Reconciled == WantDevice);
      EXPECT_TRUE(Rec.JournalView == WantView);
      uint64_t JournalOnly = 0, DeviceOnly = 0;
      for (size_t Line = 0; Line != std::min(DeviceLines, BaselineLines);
           ++Line) {
        bool Jf = WantView.isFailed(Line), Df = WantDevice.isFailed(Line);
        JournalOnly += Jf && !Df;
        DeviceOnly += Df && !Jf;
      }
      EXPECT_EQ(Rec.JournalOnlyLines, JournalOnly)
          << DeviceLines << " device lines, " << BaselineLines
          << " baseline lines";
      EXPECT_EQ(Rec.DeviceOnlyLines, DeviceOnly)
          << DeviceLines << " device lines, " << BaselineLines
          << " baseline lines";
    }
}
