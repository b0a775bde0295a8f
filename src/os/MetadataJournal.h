//===- os/MetadataJournal.h - Crash-consistent metadata WAL -----*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A write-ahead journal for the failure metadata that makes "non-volatile"
/// memory actually usable after a restart. The paper keeps per-page failure
/// bitmaps, the page pools and the failure ledger in volatile OS/runtime
/// structures; this module gives them a crash-consistent shadow in a
/// reserved PCM sidecar region, modelled as a byte vector inside a
/// DurableState that outlives Runtime incarnations.
///
/// Record format: fixed 16-byte cells -
///
///   [0]     magic 0xA5
///   [1]     kind (JournalKind)
///   [2..3]  16-bit argument, little-endian
///   [4..7]  32-bit argument A, little-endian
///   [8..11] 32-bit argument B, little-endian
///   [12..15] FNV-1a checksum over bytes 0..11, seeded with the record's
///            cell index so a record copied to the wrong slot also fails
///            verification
///
/// Fixed-size cells make torn-tail detection trivial (a trailing partial
/// cell is a tear) and let the scanner resynchronise past a corrupted
/// record instead of abandoning the rest of the journal.
///
/// Commit protocol: physical wear is recorded in DurableState::DeviceTruth
/// *before* the journal append - the cell wore out whether or not the
/// append survives - so on recovery the device rescan is always ground
/// truth and the journal is measured against it (device wins; divergences
/// are counted, never silently applied).
///
/// The journal doubles as the kill-point switchboard for crash campaigns:
/// crashPoint(P) throws CrashSignal when a campaign armed point P, and an
/// armed JournalAppend kill tears the in-flight record at a deterministic
/// partial length.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_OS_METADATAJOURNAL_H
#define WEARMEM_OS_METADATAJOURNAL_H

#include "pcm/FailureMap.h"
#include "pcm/Geometry.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace wearmem {

/// Where a kill-point injector may terminate the process.
enum class CrashPoint : uint8_t {
  /// Mid journal append: the record tears at a partial length.
  JournalAppend,
  /// Mid page/cluster remap: durable truth updated, journal not yet.
  Remap,
  /// Mid OS failure-interrupt up-call: a batch half-processed.
  InterruptUpcall,
  /// Between batch-recovery phases: lines fenced, defrag not yet run.
  RecoveryPhase,
  /// Inside the stop-the-world handshake window: peer mutator threads
  /// parked, the trace not yet started.
  SafepointHandshake,
};

inline const char *crashPointName(CrashPoint P) {
  switch (P) {
  case CrashPoint::JournalAppend:
    return "journal-append";
  case CrashPoint::Remap:
    return "remap";
  case CrashPoint::InterruptUpcall:
    return "interrupt-upcall";
  case CrashPoint::RecoveryPhase:
    return "recovery-phase";
  case CrashPoint::SafepointHandshake:
    return "safepoint-handshake";
  }
  return "?";
}

/// Thrown by an armed kill point; models the process dying there. All
/// volatile state (Runtime, Heap, OS pools) must be discarded; only the
/// DurableState survives.
struct CrashSignal {
  CrashPoint Point;
};

/// What a journal record describes.
enum class JournalKind : uint8_t {
  /// A budget line wore out: A = budget page index, Arg16 = line within
  /// the page (0..63).
  FailureMapUpdate = 1,
  /// Failure-ledger entry for the same coordinates (the ledger's volatile
  /// key - block base + byte offset - does not survive a crash; budget
  /// coordinates do).
  LedgerEntry = 2,
  /// Perfect/imperfect pool transition: Arg16 = PoolTransitionKind,
  /// A = page index or page count.
  PoolTransition = 4,
  /// Degradation-ladder mode change: Arg16 = (From << 8) | To
  /// (DegradationMode values), A = GC count at the transition, B = 1 for
  /// a recovery (downward) step. Informational: carries no failure-map
  /// delta, so reconciliation replays nothing from it.
  DegradationTransition = 5,
};

/// Sub-kinds of PoolTransition records.
enum class PoolTransitionKind : uint16_t {
  /// A fussy request borrowed A DRAM pages (debt incurred).
  DramBorrow = 1,
  /// A pages of the recycled perfect stock repaid DRAM debt.
  DebtRepay = 2,
  /// The OS remapped budget page A to a perfect physical page (pinned
  /// object on a failed line); its failure bits are void.
  PageRemap = 3,
  /// A perfect pages returned to the recycled stock.
  PerfectReturn = 4,
};

/// One decoded journal record.
struct JournalRecord {
  JournalKind Kind = JournalKind::FailureMapUpdate;
  uint16_t Arg16 = 0;
  uint32_t A = 0;
  uint32_t B = 0;
};

/// Result of scanning raw journal bytes.
struct JournalScan {
  /// Records that passed magic + checksum verification, in order.
  std::vector<JournalRecord> Records;
  /// Bytes of trailing partial cell (a torn append), dropped.
  uint64_t TornTailBytes = 0;
  /// 1 if a torn tail was present, else 0.
  uint64_t TornRecords = 0;
  /// Full cells whose magic or checksum failed verification; skipped.
  uint64_t ChecksumFailures = 0;
};

/// The state that survives a process death: the journal sidecar plus the
/// physical failure truth a recovery rescan would read back from the
/// device. Shared (shared_ptr) across Runtime incarnations.
struct DurableState {
  /// Raw journal bytes (the reserved PCM sidecar region).
  std::vector<uint8_t> Journal;
  /// Ground truth: budget lines that have physically worn out. Updated
  /// *before* each journal append - wear is physics, not bookkeeping.
  FailureMap DeviceTruth;
  /// The provisioning map at the last boot; the journal's records are
  /// deltas against it.
  FailureMap Baseline;
  /// Process deaths survived so far (diagnostics).
  uint64_t Crashes = 0;

  // Kill-point harness state, NOT durable data: which crash is armed and
  // a deterministic counter that varies torn-tail lengths.
  std::optional<CrashPoint> ArmedCrash;
  uint64_t AppendCount = 0;
};

/// Reconciliation of a scanned journal against device ground truth.
struct ReconcileResult {
  /// The recovered provisioning map: exactly the device truth.
  FailureMap Reconciled;
  /// What the journal alone claims: baseline + replayed records.
  FailureMap JournalView;
  uint64_t RecordsReplayed = 0;
  /// Lines the journal claims failed but the device rescan denies -
  /// dropped, and counted as divergences (a journal must never introduce
  /// failures the hardware does not confirm).
  uint64_t JournalOnlyLines = 0;
  /// Lines the device reports failed that the journal never logged (e.g.
  /// lost to a torn tail) - adopted from the rescan; reported but NOT a
  /// divergence, because device-wins recovery handles them by design.
  uint64_t DeviceOnlyLines = 0;
  uint64_t PoolTransitions = 0;
  uint64_t LedgerEntries = 0;
  uint64_t DegradationTransitions = 0;
};

/// Replays \p Scan over \p Baseline and reconciles against \p DeviceTruth
/// (device wins).
ReconcileResult reconcileJournal(const JournalScan &Scan,
                                 const FailureMap &Baseline,
                                 const FailureMap &DeviceTruth);

/// The write-ahead journal bound to one DurableState.
class MetadataJournal {
public:
  static constexpr size_t RecordSize = 16;
  static constexpr uint8_t Magic = 0xA5;

  explicit MetadataJournal(std::shared_ptr<DurableState> DS)
      : DS(std::move(DS)) {}

  DurableState &durable() { return *DS; }
  const DurableState &durable() const { return *DS; }
  std::shared_ptr<DurableState> durableState() const { return DS; }

  //===--------------------------------------------------------------===//
  // Kill points
  //===--------------------------------------------------------------===//

  /// Arms one kill point; the next time execution reaches it, CrashSignal
  /// is thrown (and the arm consumed).
  void armCrash(CrashPoint P) { DS->ArmedCrash = P; }
  bool crashArmed() const { return DS->ArmedCrash.has_value(); }

  /// The kill-point hook: throws CrashSignal{P} if P is armed.
  void crashPoint(CrashPoint P) {
    if (DS->ArmedCrash == P) {
      DS->ArmedCrash.reset();
      ++DS->Crashes;
      throw CrashSignal{P};
    }
  }

  //===--------------------------------------------------------------===//
  // Commit protocol
  //===--------------------------------------------------------------===//

  /// Budget line (page, line-in-page) wore out: device truth first, then
  /// the FailureMapUpdate record.
  void recordLineFailure(uint32_t BudgetPage, uint32_t LineInPage);

  /// Failure-ledger shadow entry for the same coordinates.
  void recordLedgerEntry(uint32_t BudgetPage, uint32_t LineInPage);

  /// The OS remapped a budget page to a perfect physical page: its truth
  /// bits clear first, then the PoolTransition record. The Remap kill
  /// point sits between the two.
  void recordPageRemap(uint32_t BudgetPage);

  /// Perfect/imperfect pool transition (DRAM borrow, debt repayment,
  /// stock return).
  void recordPoolTransition(PoolTransitionKind K, uint32_t Count);

  /// Degradation-ladder mode change (From -> To at GC number GcCount;
  /// Recovery marks a downward step).
  void recordDegradationTransition(uint8_t From, uint8_t To,
                                   uint32_t GcCount, bool Recovery);

  /// Raw append (tests; the record* helpers are the commit protocol). An
  /// armed JournalAppend kill tears the record at a deterministic partial
  /// length of 1..15 bytes before throwing.
  void append(JournalKind Kind, uint16_t Arg16, uint32_t A, uint32_t B);

  //===--------------------------------------------------------------===//
  // Scan and compaction
  //===--------------------------------------------------------------===//

  JournalScan scan() const { return scanBytes(DS->Journal); }
  static JournalScan scanBytes(const std::vector<uint8_t> &Bytes);

  size_t sizeBytes() const { return DS->Journal.size(); }

  /// Post-recovery compaction: \p Reconciled becomes the new baseline
  /// (and the device truth, with which it must already agree) and the
  /// journal restarts empty.
  void compact(const FailureMap &Reconciled);

private:
  static uint32_t checksum(const uint8_t *Cell, uint64_t CellIndex);

  std::shared_ptr<DurableState> DS;
};

} // namespace wearmem

#endif // WEARMEM_OS_METADATAJOURNAL_H
