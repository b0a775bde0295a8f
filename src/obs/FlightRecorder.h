//===- obs/FlightRecorder.h - Per-thread event rings ------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-free flight recorder: each thread appends fixed-size typed events
/// to its own bounded ring, so recording never blocks, never allocates
/// after ring creation, and keeps only the most recent window per thread.
/// exportChromeTrace writes the retained events as Chrome trace_event
/// JSON, loadable in chrome://tracing or Perfetto; GC phases become B/E
/// duration pairs, everything else instants.
///
/// Events carry two uint64 payload words whose meaning depends on the
/// kind (documented per enumerator). Timestamps are wall-clock and
/// therefore Timing-domain: traces never participate in determinism
/// comparisons.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_OBS_FLIGHTRECORDER_H
#define WEARMEM_OBS_FLIGHTRECORDER_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wearmem {
namespace obs {

enum class EventKind : uint16_t {
  None = 0,
  // PCM device. A = logical line, B = physical line (redirects: new line).
  WearFailure,
  WriteStall,
  ClusterRedirect,
  ClusterMapInstalled,
  ClusterRefused,
  BufferPush,       ///< A = physical line, B = buffer occupancy after push.
  BufferInvalidate, ///< A = physical line.
  // OS kernel. A = pending batch size.
  Interrupt,
  ReentrantInterrupt,
  PoolTransition, ///< A = transition kind (journal enum), B = pages.
  PageRemap,      ///< A = old page id, B = new page id.
  JournalAppend,  ///< A = record kind, B = journal cell index.
  // Collector. GcBegin/GcEnd A = gc count, B = full (1) / nursery (0).
  GcBegin,
  GcEnd,
  PhaseBegin, ///< A = phase (0 mark, 1 evacuate, 2 fixup, 3 sweep).
  PhaseEnd,
  Evacuation,          ///< A = object size in bytes.
  DynamicFailureBatch, ///< A = lines in batch, B = deferred (1) or not (0).
  // Fault injection. A = campaign shape, B = cumulative firings.
  CampaignFiring,
  SnapshotTaken, ///< A = gc count at capture.
  // Safepoint handshake. A = registered threads, B = threads to stop.
  SafepointBegin,
  SafepointEnd,   ///< A = registered threads, B = wait rounds spent.
  WatchdogFired,  ///< A = unacked threads, B = wait-round budget.
  InterruptRouted, ///< A = owner lane (or ~0 for orphan), B = batch size.
  // Degradation ladder. A = new mode (DegradationMode value), B = 1 for
  // a recovery (downward) transition.
  DegradationTransition,
};

const char *eventKindName(EventKind K);

/// One recorded event.
struct TraceEvent {
  uint64_t TsNs = 0; ///< Nanoseconds since recorder start.
  uint64_t A = 0;
  uint64_t B = 0;
  uint16_t Kind = 0;
  uint16_t Tid = 0; ///< Recorder-assigned thread index.
};

class FlightRecorder {
public:
  /// Events retained per thread before the ring wraps.
  static constexpr size_t DefaultCapacity = 16384;

  static FlightRecorder &instance();

  /// Appends to the calling thread's ring. Callers gate on
  /// obs::tracingOn(); record() itself is unconditional.
  static void record(EventKind K, uint64_t A = 0, uint64_t B = 0);

  /// All retained events, oldest first (stable-sorted by timestamp).
  /// Meant for quiesced export; concurrent writers may race the tail.
  std::vector<TraceEvent> collect() const;

  /// Drops all retained events and restarts the clock. Rings themselves
  /// stay alive so thread-local pointers remain valid.
  void reset();

  /// Chrome trace_event JSON to \p Out / \p Path (false on open failure).
  void exportChromeTrace(FILE *Out) const;
  bool exportChromeTrace(const std::string &Path) const;

private:
  FlightRecorder() = default;
  struct Impl;
  Impl &impl() const;
};

} // namespace obs
} // namespace wearmem

#endif // WEARMEM_OBS_FLIGHTRECORDER_H
