//===- obs/Snapshot.h - Wear heatmaps and heap snapshots --------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Point-in-time telemetry: where has wear concentrated, where have lines
/// failed, and what shape is the heap in. Everything here is derived from
/// deterministic runtime state (write counts, failure maps, block states),
/// so snapshot JSON participates in determinism comparisons - two runs of
/// the same seed must emit identical snapshots at the same GC counts,
/// regardless of GC worker count.
///
/// The wear heatmap buckets lines spatially (per-line resolution would be
/// megabytes of JSON for large devices) but keeps exact totals, so tests
/// can assert conservation: bucket wear sums to total writes.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_OBS_SNAPSHOT_H
#define WEARMEM_OBS_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <vector>

namespace wearmem {

class Heap;
class JsonWriter;
struct WearSimResult;

namespace obs {

/// One spatial bucket of the wear heatmap.
struct WearBucket {
  uint64_t Wear = 0;   ///< Sum of per-line write counts in the bucket.
  uint64_t Failed = 0; ///< Failed lines in the bucket.
  uint64_t Lines = 0;  ///< Lines covered (last bucket may be short).

  bool operator==(const WearBucket &O) const {
    return Wear == O.Wear && Failed == O.Failed && Lines == O.Lines;
  }
};

/// Per-region wear and failure heatmap over a line array.
struct WearHeatmap {
  uint64_t LinesPerBucket = 0;
  uint64_t TotalLines = 0;
  uint64_t FailedLines = 0;
  uint64_t TotalWear = 0; ///< Sum over all buckets (== all line writes).
  std::vector<WearBucket> Buckets;

  /// Logical-line wear of a WearSimulation run (requires the simulation's
  /// per-line WearCounts).
  static WearHeatmap fromWearSim(const WearSimResult &Result,
                                 uint64_t LinesPerBucket);

  /// Emits the heatmap's fields into the currently open JSON object.
  void toJson(JsonWriter &W) const;
  /// Standalone document (round-trips through fromJsonString).
  std::string toJsonString() const;
  /// Parses a toJsonString document; false on malformed input.
  static bool fromJsonString(const std::string &Text, WearHeatmap &Out);

  bool operator==(const WearHeatmap &O) const {
    return LinesPerBucket == O.LinesPerBucket && TotalLines == O.TotalLines &&
           FailedLines == O.FailedLines && TotalWear == O.TotalWear &&
           Buckets == O.Buckets;
  }
};

/// Line-state, block-state, and pool-occupancy summary of a heap.
struct HeapSnapshot {
  uint64_t GcCount = 0;
  uint64_t Blocks = 0;
  uint64_t FreeBlocks = 0;
  uint64_t RecyclableBlocks = 0;
  uint64_t InUseBlocks = 0;
  uint64_t FullBlocks = 0;
  uint64_t RetiredBlocks = 0;
  uint64_t EvacuatingBlocks = 0;
  uint64_t TotalLines = 0;
  uint64_t FreeLines = 0;
  uint64_t FailedLines = 0;
  uint64_t DynamicFailedLines = 0;
  uint64_t LosObjects = 0;
  uint64_t LosPages = 0;
  uint64_t LedgerFailedLines = 0;
  uint64_t OsRemainingPages = 0;
  uint64_t OsRemainingPerfectPages = 0;
  uint64_t OsPerfectStockPages = 0;
  uint64_t OsDebtPages = 0;

  static HeapSnapshot capture(const Heap &H);

  /// Emits the snapshot as one inline object in value position.
  void toJson(JsonWriter &W) const;
};

} // namespace obs
} // namespace wearmem

#endif // WEARMEM_OBS_SNAPSHOT_H
