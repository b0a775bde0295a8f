//===- inject/FaultCampaign.h - Scriptable fault campaigns ------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault-campaign engine: scriptable schedules of
/// mid-run line wear-outs, driven by clocks that advance with the run
/// (line writes, allocation volume, collections). The paper injects
/// dynamic failures one at a time at random live lines; a campaign
/// generalizes that into drips, correlated storms targeting hot blocks,
/// whole-region wear-outs and crash kill points - all seeded, so any run
/// (and any crash it provokes) can be reproduced exactly.
///
/// A campaign attaches to a Runtime: failures enter through
/// Heap::routeDynamicFailureBatch, exercising deferred batch recovery.
/// pump() is called from the mutator loop between steps - never during a
/// collection.
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

class ImmixSpace;
class Runtime;

/// Campaign-side counters (the heap keeps its own).
struct CampaignStats {
  /// Trigger firings attempted.
  uint64_t Firings = 0;
  /// PCM lines failed through the heap interface.
  uint64_t LinesFailed = 0;
  /// Firings that found no candidate line (heap too empty, or the
  /// target region already dead).
  uint64_t DryFirings = 0;
  /// Triggers re-armed at doubled intensity by escalation mode.
  uint64_t Escalations = 0;
  /// pump() calls declined because the attached runtime was inside a
  /// collection - the parallel mark phase is a no-mutator window, so
  /// campaigns hold their triggers until the next mutator step.
  uint64_t PumpsDeferredInGc = 0;
};

/// The wear victim model shared by the drip shape and the lifetime
/// harness: up to \p Want distinct Immix lines marked live at \p Epoch,
/// drawn uniformly across the non-retired blocks of \p Space, each struck
/// at one uniformly chosen 64 B PCM line. Returns the struck PCM line
/// addresses in draw order.
std::vector<uint8_t *> sampleLiveLines(ImmixSpace &Space, uint8_t Epoch,
                                       size_t Want, Rng &Rand);

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

  /// Escalation mode: a trigger that completes its repeats re-arms with
  /// doubled intensity instead of disarming, so a surviving heap faces
  /// ever-worse storms until something gives.
  void setEscalation(bool On) { Escalate = On; }

  /// Advances the campaign: fires every due trigger. Must not be called
  /// during a collection. Returns true if anything fired.
  bool pump();

  const CampaignStats &stats() const { return Stats; }

  /// The victim-sampling stream (tests copy it to compare next draws).
  const Rng &rng() const { return Rand; }

private:
  struct ArmedTrigger {
    FaultTrigger T;
    uint64_t NextAt = 0;
    unsigned FiredCount = 0;
    bool Armed = true;
  };

  uint64_t clockNow(TriggerClock Clock) const;
  void fire(ArmedTrigger &A);
  void fireHeap(const FaultTrigger &T);

  std::vector<ArmedTrigger> Armed;
  Rng Rand;
  Runtime *Rt = nullptr;
  bool Escalate = false;
  CampaignStats Stats;
};

} // namespace wearmem

#endif // WEARMEM_INJECT_FAULTCAMPAIGN_H
