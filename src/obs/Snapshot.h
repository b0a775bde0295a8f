//===- obs/Snapshot.h - Heap snapshots --------------------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Point-in-time telemetry: where have lines failed, and what shape is the
/// heap in. Everything here is derived from deterministic runtime state
/// (failure maps, block states, pool gauges), so snapshot JSON
/// participates in determinism comparisons - two runs of the same seed
/// must emit identical snapshots at the same GC counts, regardless of GC
/// worker count.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_OBS_SNAPSHOT_H
#define WEARMEM_OBS_SNAPSHOT_H

#include <cstdint>

namespace wearmem {

class Heap;
class JsonWriter;

namespace obs {

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
