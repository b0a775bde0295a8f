//===- inject/FaultTrigger.h - Campaign trigger descriptions ----*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Descriptions of *when* and *how* a fault campaign wears lines out.
/// A trigger pairs a clock (what advances it) with a shape (what fails
/// when it fires); a campaign is a list of triggers plus a seed, making
/// whole failure histories scriptable and reproducible.
///
/// The textual schedule syntax (FaultCampaign::parseSchedule) is
///
///   shape@clock:start[+period][xN][:key=val,...]  joined by ';'
///
/// e.g. "drip@alloc:1m+256k" (one line every 256 KiB allocated after the
/// first MiB) or "storm@gc:10+5x6:lines=24,hot" (six storms of 24 lines
/// into the hottest block, every 5th GC from the 10th). Numbers accept
/// k/m/g suffixes (powers of 1024 for byte clocks, plain multipliers
/// elsewhere).
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_INJECT_FAULTTRIGGER_H
#define WEARMEM_INJECT_FAULTTRIGGER_H

#include "os/MetadataJournal.h"

#include <cstdint>

namespace wearmem {

/// What advances a trigger towards firing.
enum class TriggerClock : uint8_t {
  /// Line writes, approximated by allocated bytes / 64 (allocation
  /// dominates the write stream).
  Writes,
  /// Bytes allocated by the mutator.
  AllocBytes,
  /// Collections completed (nursery and full).
  GcCount,
};

/// What fails when a trigger fires.
enum class FaultShape : uint8_t {
  /// A steady drip: N random live lines, spread across the heap.
  Drip,
  /// A correlated burst into the hottest block (or one random block):
  /// wear concentrates where the write stream does.
  Storm,
  /// A whole aligned span of pages wears out together (a failing row or
  /// bank): every working PCM line in the span fails at once.
  Region,
  /// Arms a kill point (CrashAt) in the runtime's journal: the next time
  /// execution reaches it, CrashSignal is thrown and the process dies
  /// there. Requires a journal-attached runtime; a dry firing otherwise.
  Crash,
};

/// One scheduled wear-out pattern.
struct FaultTrigger {
  FaultShape Shape = FaultShape::Drip;
  TriggerClock Clock = TriggerClock::AllocBytes;
  /// Clock value of the first firing.
  uint64_t Start = 0;
  /// Clock distance between firings; 0 = fire once.
  uint64_t Period = 0;
  /// Maximum number of firings; 0 = unbounded (periodic triggers only).
  unsigned Repeats = 0;
  /// Lines to fail per firing (Drip and Storm).
  unsigned Lines = 1;
  /// Span size in pages (Region).
  unsigned Pages = 1;
  /// Storm only: target the hottest block (most lines marked live)
  /// instead of a random one.
  bool Hot = false;
  /// Storm only: target mutator lane K's current TLAB block (schedule
  /// option thread=K), where that thread's next writes land. -1 = no
  /// lane targeting. Dry-fires when the lane has no TLAB yet.
  int ThreadTarget = -1;
  /// Crash only: which kill point to arm (schedule option
  /// at=append|remap|upcall|recovery|handshake).
  CrashPoint CrashAt = CrashPoint::JournalAppend;
};

} // namespace wearmem

#endif // WEARMEM_INJECT_FAULTTRIGGER_H
