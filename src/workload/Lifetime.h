//===- workload/Lifetime.h - Fast-forward device-lifetime harness -*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compresses years of device wear into one run. Real PCM wears out over
/// years of traffic; the paper's curves terminate when the heap can no
/// longer absorb the holes. This harness fast-forwards that arc: between
/// fixed-size slices of offered mutator traffic ("checkpoints"), the wear
/// clock accelerates - the number of line failures injected per
/// checkpoint grows geometrically, mimicking the super-linear failure
/// onset of cells past their endurance rating. The result is a per-run
/// survival curve plus the milestone times an end-of-life study needs:
/// time to first retired block, to Throttled, to Emergency, to X% line
/// capacity loss, and to the diagnosed did-not-finish.
///
/// Everything is seeded and single-threaded per run, so the curve (and
/// its JSON rendering) is byte-for-byte deterministic for a fixed
/// (profile, collector, adversary, seed) cell - the rob01 gate compares
/// exactly that. Wear lands on live (current-epoch) lines, the same
/// victim model as the inject engine's drip shape, through the heap's
/// ordinary dynamic-failure interrupt path.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_WORKLOAD_LIFETIME_H
#define WEARMEM_WORKLOAD_LIFETIME_H

#include "core/Runtime.h"
#include "workload/Adversary.h"
#include "workload/Profile.h"

#include <cstdint>
#include <vector>

namespace wearmem {

class JsonWriter;

struct LifetimeOptions {
  CollectorKind Collector = CollectorKind::StickyImmix;
  AdversaryKind Adversary = AdversaryKind::None;
  uint64_t Seed = 42;
  double HeapFactor = 2.5;
  /// Offered mutator traffic per checkpoint, as a fraction of the
  /// profile's allocation volume.
  double VolumeScale = 0.05;
  /// Wear checkpoints; the simulated device age advances
  /// YearsPerCheckpoint at each.
  unsigned Checkpoints = 20;
  double YearsPerCheckpoint = 0.5;
  /// Live lines failed at the first checkpoint...
  unsigned BaseFailLines = 16;
  /// ...growing by this factor every checkpoint (the fast-forward).
  double WearGrowth = 1.6;
  unsigned GcThreads = 1;
};

/// One point on the survival curve, taken after a checkpoint's traffic
/// slice and wear batch have both landed.
struct LifetimeCheckpoint {
  double Years = 0.0;
  uint64_t WearLinesInjected = 0; ///< Cumulative lines struck.
  uint64_t FailedLinesDynamic = 0;
  uint64_t BlocksRetired = 0;
  uint64_t GcCount = 0;
  uint64_t AllocBytes = 0;
  uint64_t RefusedAllocs = 0;
  /// Fraction of the line budget lost to dynamic failures.
  double CapacityLoss = 0.0;
  DegradationMode Mode = DegradationMode::Normal;
  /// Heap recovery counter at this checkpoint; a backward Mode step
  /// between checkpoints must be matched by a recovery increment
  /// (the monotone-degradation gate).
  uint64_t Recoveries = 0;
};

/// Milestone ages in simulated years; negative = never reached.
struct LifetimeMilestones {
  double FirstRetiredBlock = -1.0;
  double Throttled = -1.0;
  double Emergency = -1.0;
  double CapacityLoss10 = -1.0;
  double CapacityLoss25 = -1.0;
  double CapacityLoss50 = -1.0;
  double Dnf = -1.0;
};

struct LifetimeResult {
  bool Survived = false;
  DnfReason Dnf = DnfReason::None;
  std::vector<LifetimeCheckpoint> Curve;
  LifetimeMilestones Milestones;
  /// Heap degradation-transition log (capped; see Heap).
  std::vector<DegradationTransition> Transitions;
  uint64_t TransitionsDropped = 0;
  /// No checkpoint stepped to a lower mode without a logged recovery.
  bool MonotoneDegradation = true;
  uint64_t WearLinesInjected = 0;
  size_t BudgetPages = 0;
  HeapStats Heap;
  OsStats Os;
};

/// Runs one lifetime cell to completion or did-not-finish.
LifetimeResult runLifetime(const Profile &P, const LifetimeOptions &Opt);

/// True if rerun \p B reproduced cell \p A: equal in everything a
/// determinism check compares (wall times never enter LifetimeResult).
bool sameLifetime(const LifetimeResult &A, const LifetimeResult &B);

/// Renders one cell as a JSON object (caller owns the surrounding
/// document structure).
void lifetimeToJson(JsonWriter &W, const Profile &P,
                    const LifetimeOptions &Opt, const LifetimeResult &R);

} // namespace wearmem

#endif // WEARMEM_WORKLOAD_LIFETIME_H
