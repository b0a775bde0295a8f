//===- inject/FaultCampaign.h - Scriptable fault campaigns ------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault-campaign engine: scriptable schedules of
/// mid-run line wear-outs, driven by the clocks a real device would
/// advance (writes, allocation volume, collections). The paper injects
/// dynamic failures one at a time at random live lines; a campaign
/// generalizes that into drips, correlated storms targeting hot blocks,
/// whole-region wear-outs, and replay of a previously recorded failure
/// trace - all seeded, so any run (and any crash it provokes) can be
/// reproduced exactly.
///
/// A campaign attaches to a Runtime (failures enter through
/// Heap::injectDynamicFailureBatch, exercising deferred batch recovery)
/// or to a bare PcmDevice (failures enter through forceFailLine,
/// exercising the failure buffer, stall protocol, and OS kernel), or
/// both. pump() is called from the mutator loop between steps - never
/// during a collection.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_INJECT_FAULTCAMPAIGN_H
#define WEARMEM_INJECT_FAULTCAMPAIGN_H

#include "inject/FaultTrigger.h"
#include "support/Random.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace wearmem {

class Runtime;
class PcmDevice;
class MetadataJournal;

/// One injected line failure, in replayable coordinates: the ordinal of
/// the containing block (in space iteration order, which is creation
/// order) and the byte offset within it. Replays of the same workload
/// and seed see the same block sequence, so the trace lands on the same
/// logical memory.
struct FaultEvent {
  uint64_t ClockValue = 0;
  TriggerClock Clock = TriggerClock::AllocBytes;
  uint32_t BlockOrdinal = 0;
  uint32_t ByteOffset = 0;
};

/// Campaign-side counters (the heap and device keep their own).
struct CampaignStats {
  /// Trigger firings attempted.
  uint64_t Firings = 0;
  /// PCM lines failed through the heap interface.
  uint64_t LinesFailed = 0;
  /// Lines failed through the device interface.
  uint64_t DeviceLinesFailed = 0;
  /// Firings that found no candidate line (heap too empty, or the
  /// target region already dead).
  uint64_t DryFirings = 0;
  /// Replay events that no longer map onto the heap (block gone or
  /// offset out of range).
  uint64_t ReplayMisses = 0;
  /// Triggers re-armed at doubled intensity by escalation mode.
  uint64_t Escalations = 0;
  /// pump() calls declined because the attached runtime was inside a
  /// collection - the parallel mark phase is a no-mutator window, so
  /// campaigns hold their triggers until the next mutator step.
  uint64_t PumpsDeferredInGc = 0;
};

/// The campaign engine.
class FaultCampaign {
public:
  FaultCampaign(std::vector<FaultTrigger> Triggers, uint64_t Seed);

  /// Parses the schedule syntax described in FaultTrigger.h. Returns
  /// std::nullopt and sets \p Error on malformed input.
  static std::optional<std::vector<FaultTrigger>>
  parseSchedule(const std::string &Text, std::string *Error = nullptr);

  /// Targets the managed heap: firings become dynamic-failure batches
  /// with deferred recovery.
  void attachRuntime(Runtime &Rt) { this->Rt = &Rt; }

  /// Targets a device model: firings become forced wear-outs, and the
  /// Writes clock counts real line writes via the write observer.
  void attachDevice(PcmDevice &Device);

  /// Kill-point target for crash triggers on device-attached campaigns
  /// (runtime-attached campaigns find the journal through the runtime).
  void attachJournal(MetadataJournal *J) { this->Journal = J; }

  /// Escalation mode: a trigger that completes its repeats re-arms with
  /// doubled intensity instead of disarming, so a surviving heap faces
  /// ever-worse storms until something gives.
  void setEscalation(bool On) { Escalate = On; }

  /// Installs a recorded trace for replay (events must be in the order
  /// they were recorded). Replay runs alongside any scheduled triggers.
  void setReplay(std::vector<FaultEvent> Events);

  /// Advances the campaign: fires every due trigger and replay event.
  /// Must not be called during a collection. Returns true if anything
  /// fired.
  bool pump();

  /// True when no trigger or replay event can ever fire again.
  bool exhausted() const;

  const CampaignStats &stats() const { return Stats; }

  /// Every line failed through the heap so far, in injection order.
  const std::vector<FaultEvent> &trace() const { return Trace; }

  /// The victim-sampling stream (tests copy it to compare next draws).
  const Rng &rng() const { return Rand; }

  /// The current value of \p Clock (diagnostics; also used by the soak
  /// harness for survival-curve x-coordinates).
  uint64_t clockNow(TriggerClock Clock) const;

private:
  struct ArmedTrigger {
    FaultTrigger T;
    uint64_t NextAt = 0;
    unsigned FiredCount = 0;
    bool Armed = true;
  };

  void fire(ArmedTrigger &A);
  void fireHeap(const FaultTrigger &T);
  void fireDevice(const FaultTrigger &T);
  void pumpReplay(bool &AnyFired);
  void injectHeapBatch(std::vector<uint8_t *> &&Addrs, TriggerClock Clock,
                       bool Record);

  std::vector<ArmedTrigger> Armed;
  std::vector<FaultEvent> Replay;
  size_t ReplayNext = 0;
  std::vector<FaultEvent> Trace;
  Rng Rand;
  Runtime *Rt = nullptr;
  PcmDevice *Device = nullptr;
  MetadataJournal *Journal = nullptr;
  uint64_t ObservedWrites = 0;
  bool Escalate = false;
  CampaignStats Stats;
};

} // namespace wearmem

#endif // WEARMEM_INJECT_FAULTCAMPAIGN_H
