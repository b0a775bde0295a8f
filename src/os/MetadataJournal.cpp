//===- os/MetadataJournal.cpp - Crash-consistent metadata WAL -------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "os/MetadataJournal.h"

#include "obs/Hooks.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace wearmem;

//===----------------------------------------------------------------------===//
// Record encoding
//===----------------------------------------------------------------------===//

uint32_t MetadataJournal::checksum(const uint8_t *Cell, uint64_t CellIndex) {
  // FNV-1a over the 12 payload bytes, seeded with the cell index so a
  // valid record copied to another slot still fails verification.
  uint32_t H = 2166136261u ^ static_cast<uint32_t>(CellIndex * 0x9E3779B9u);
  for (size_t I = 0; I != 12; ++I)
    H = (H ^ Cell[I]) * 16777619u;
  return H;
}

static void putLe16(uint8_t *P, uint16_t V) {
  P[0] = static_cast<uint8_t>(V);
  P[1] = static_cast<uint8_t>(V >> 8);
}

static void putLe32(uint8_t *P, uint32_t V) {
  P[0] = static_cast<uint8_t>(V);
  P[1] = static_cast<uint8_t>(V >> 8);
  P[2] = static_cast<uint8_t>(V >> 16);
  P[3] = static_cast<uint8_t>(V >> 24);
}

static uint16_t getLe16(const uint8_t *P) {
  return static_cast<uint16_t>(P[0] | (P[1] << 8));
}

static uint32_t getLe32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

/// Un-fails budget page \p Page's lines in \p Map, clipped to the map.
static void clearPage(FailureMap &Map, uint32_t Page) {
  uint64_t First = static_cast<uint64_t>(Page) * PcmLinesPerPage;
  if (First < Map.numLines())
    Map.clearRange(First, std::min<uint64_t>(PcmLinesPerPage,
                                             Map.numLines() - First));
}

void MetadataJournal::append(JournalKind Kind, uint16_t Arg16, uint32_t A,
                             uint32_t B) {
  uint8_t Cell[RecordSize];
  Cell[0] = Magic;
  Cell[1] = static_cast<uint8_t>(Kind);
  putLe16(Cell + 2, Arg16);
  putLe32(Cell + 4, A);
  putLe32(Cell + 8, B);
  uint64_t CellIndex = DS->Journal.size() / RecordSize;
  putLe32(Cell + 12, checksum(Cell, CellIndex));

  ++DS->AppendCount;
  if (DS->ArmedCrash == CrashPoint::JournalAppend) {
    // The process dies mid-append: a deterministic 1..15-byte prefix of
    // the record reaches the sidecar, leaving a torn tail for recovery to
    // detect and drop.
    DS->ArmedCrash.reset();
    ++DS->Crashes;
    size_t Torn = 1 + static_cast<size_t>(DS->AppendCount % (RecordSize - 1));
    DS->Journal.insert(DS->Journal.end(), Cell, Cell + Torn);
    throw CrashSignal{CrashPoint::JournalAppend};
  }
  DS->Journal.insert(DS->Journal.end(), Cell, Cell + RecordSize);
  // Observe only full appends: a torn append threw above and must not
  // read as a committed record.
  WEARMEM_COUNT_DET("journal.appends");
  WEARMEM_TRACE(JournalAppend, static_cast<uint64_t>(Kind), CellIndex);
}

//===----------------------------------------------------------------------===//
// Commit protocol
//===----------------------------------------------------------------------===//

void MetadataJournal::recordLineFailure(uint32_t BudgetPage,
                                        uint32_t LineInPage) {
  assert(LineInPage < PcmLinesPerPage && "line offset out of page");
  // Device truth first: the line is physically dead whether or not the
  // append below completes.
  uint64_t Line =
      static_cast<uint64_t>(BudgetPage) * PcmLinesPerPage + LineInPage;
  if (Line < DS->DeviceTruth.numLines())
    DS->DeviceTruth.fail(Line);
  append(JournalKind::FailureMapUpdate, static_cast<uint16_t>(LineInPage),
         BudgetPage, 0);
}

void MetadataJournal::recordLedgerEntry(uint32_t BudgetPage,
                                        uint32_t LineInPage) {
  append(JournalKind::LedgerEntry, static_cast<uint16_t>(LineInPage),
         BudgetPage, 0);
}

void MetadataJournal::recordPageRemap(uint32_t BudgetPage) {
  // The OS swapped in a perfect physical page: the budget slot's failed
  // lines are gone from the device's point of view.
  clearPage(DS->DeviceTruth, BudgetPage);
  // Kill point between the physical remap and its journal record: a crash
  // here leaves the device ahead of the journal, which recovery resolves
  // by the device-wins rescan.
  crashPoint(CrashPoint::Remap);
  append(JournalKind::PoolTransition,
         static_cast<uint16_t>(PoolTransitionKind::PageRemap), BudgetPage,
         0);
}

void MetadataJournal::recordPoolTransition(PoolTransitionKind K,
                                           uint32_t Count) {
  append(JournalKind::PoolTransition, static_cast<uint16_t>(K), Count, 0);
}

void MetadataJournal::recordDegradationTransition(uint8_t From, uint8_t To,
                                                  uint32_t GcCount,
                                                  bool Recovery) {
  append(JournalKind::DegradationTransition,
         static_cast<uint16_t>((static_cast<uint16_t>(From) << 8) | To),
         GcCount, Recovery ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// Scan, reconcile, compact
//===----------------------------------------------------------------------===//

JournalScan MetadataJournal::scanBytes(const std::vector<uint8_t> &Bytes) {
  JournalScan Scan;
  size_t FullCells = Bytes.size() / RecordSize;
  Scan.TornTailBytes = Bytes.size() % RecordSize;
  Scan.TornRecords = Scan.TornTailBytes != 0 ? 1 : 0;
  for (size_t Cell = 0; Cell != FullCells; ++Cell) {
    const uint8_t *P = Bytes.data() + Cell * RecordSize;
    if (P[0] != Magic || getLe32(P + 12) != checksum(P, Cell)) {
      // Corrupted cell: detected, reported, never applied. Fixed-size
      // cells let the scan resynchronise at the next cell.
      ++Scan.ChecksumFailures;
      continue;
    }
    JournalRecord R;
    R.Kind = static_cast<JournalKind>(P[1]);
    R.Arg16 = getLe16(P + 2);
    R.A = getLe32(P + 4);
    R.B = getLe32(P + 8);
    Scan.Records.push_back(R);
  }
  return Scan;
}

ReconcileResult wearmem::reconcileJournal(const JournalScan &Scan,
                                          const FailureMap &Baseline,
                                          const FailureMap &DeviceTruth) {
  ReconcileResult R;
  R.Reconciled = DeviceTruth;
  R.JournalView = Baseline;
  for (const JournalRecord &Rec : Scan.Records) {
    ++R.RecordsReplayed;
    switch (Rec.Kind) {
    case JournalKind::FailureMapUpdate: {
      uint64_t Line =
          static_cast<uint64_t>(Rec.A) * PcmLinesPerPage + Rec.Arg16;
      if (Line < R.JournalView.numLines())
        R.JournalView.fail(Line);
      break;
    }
    case JournalKind::LedgerEntry:
      ++R.LedgerEntries;
      break;
    case JournalKind::PoolTransition:
      ++R.PoolTransitions;
      if (static_cast<PoolTransitionKind>(Rec.Arg16) ==
          PoolTransitionKind::PageRemap) {
        clearPage(R.JournalView, Rec.A);
      }
      break;
    case JournalKind::DegradationTransition:
      // Informational: no failure-map delta to replay.
      ++R.DegradationTransitions;
      break;
    }
  }
  size_t NumLines =
      std::min(R.JournalView.numLines(), R.Reconciled.numLines());
  for (uint64_t Line = 0; Line != NumLines; ++Line) {
    bool J = R.JournalView.isFailed(Line);
    bool D = R.Reconciled.isFailed(Line);
    if (J && !D)
      ++R.JournalOnlyLines;
    else if (D && !J)
      ++R.DeviceOnlyLines;
  }
  return R;
}

void MetadataJournal::compact(const FailureMap &Reconciled) {
  DS->Baseline = Reconciled;
  DS->DeviceTruth = Reconciled;
  DS->Journal.clear();
}
