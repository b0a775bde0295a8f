//===- pcm/WearSimulation.h - Wear-pattern failure-map synthesis -*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives skewed write traffic into a line array, with or without
/// Start-Gap wear leveling, until a target fraction of lines has worn out,
/// and returns the resulting logical failure map. This synthesizes the
/// failure *patterns* behind Section 7.2's argument: leveling produces
/// uniformly scattered failures (maximal fragmentation), while unleveled
/// skewed traffic concentrates failures in the hot region.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_PCM_WEARSIMULATION_H
#define WEARMEM_PCM_WEARSIMULATION_H

#include "pcm/FailureMap.h"
#include "pcm/Geometry.h"

#include <cstdint>

namespace wearmem {

/// Parameters for a wear-out run.
struct WearSimConfig {
  size_t NumLines = 64 * PcmLinesPerPage;
  /// Mean per-line write budget (kept small so runs are fast; only
  /// rescales time).
  uint64_t MeanLineLifetime = 2000;
  /// Coefficient of variation of per-line budgets.
  double LifetimeVariation = 0.15;
  /// Fraction of the logical address space that is "hot".
  double HotFraction = 0.1;
  /// Fraction of write traffic that targets the hot region.
  double HotWeight = 0.9;
  /// Route traffic through a Start-Gap leveler before it reaches lines.
  bool UseStartGap = false;
  /// Writes between gap movements (psi).
  uint64_t GapInterval = 100;
  uint64_t Seed = 0xF00DF00DULL;
  /// Safety bound on simulated writes.
  uint64_t MaxWrites = 1ULL << 32;
};

/// Result of a wear-out run.
struct WearSimResult {
  FailureMap Map;
  uint64_t TotalWrites = 0;
  /// Writes performed when the *first* line failed: leveling maximizes
  /// this (its selling point), at the cost of what the map then looks
  /// like.
  uint64_t WritesAtFirstFailure = 0;
};

/// Runs traffic until \p TargetFailedFraction of lines have failed (or
/// MaxWrites is hit) and returns the logical failure map.
WearSimResult simulateWear(const WearSimConfig &Config,
                           double TargetFailedFraction);

} // namespace wearmem

#endif // WEARMEM_PCM_WEARSIMULATION_H
