//===- heap/HeapConfig.h - Heap configuration and statistics ----*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration shared by the heap spaces and collectors. HeapPolicy
/// holds the knobs a user sets through RuntimeConfig: which collector
/// runs (the paper's Figure 3 compares MS, IX, S-MS and S-IX), the Immix
/// line/block geometry (Figures 6-7 sweep the line size), the
/// degradation ladder and the mark pacing. HeapConfig adds what
/// RuntimeConfig derives: the fixed page budget (heap size) and the
/// failure-injection setup.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_HEAP_HEAPCONFIG_H
#define WEARMEM_HEAP_HEAPCONFIG_H

#include "os/Os.h"
#include "pcm/Geometry.h"
#include "support/Units.h"

#include <algorithm>
#include <cstdint>
#include <functional>

namespace wearmem {

/// A parallel-for the GC layer hands down to the heap spaces: invoke
/// Fn(I) exactly once for each I in [0, Count), possibly concurrently.
/// An empty (default-constructed) function means "run serially". This
/// indirection keeps the heap library free of any dependency on the gc
/// library's worker pool.
using GcParallelFor =
    std::function<void(size_t Count, const std::function<void(size_t)> &Fn)>;

/// The memory-management algorithms of Figure 3.
enum class CollectorKind {
  /// Full-heap free-list mark-sweep.
  MarkSweep,
  /// Full-heap Immix mark-region.
  Immix,
  /// Sticky-mark-bits generational mark-sweep.
  StickyMarkSweep,
  /// Sticky-mark-bits generational Immix (the paper's base collector).
  StickyImmix,
};

inline bool isSticky(CollectorKind Kind) {
  return Kind == CollectorKind::StickyMarkSweep ||
         Kind == CollectorKind::StickyImmix;
}

inline bool isImmix(CollectorKind Kind) {
  return Kind == CollectorKind::Immix || Kind == CollectorKind::StickyImmix;
}

/// Line-mark byte values. Values 1..MaxEpoch are liveness epochs; full
/// collections advance the epoch so stale marks read as free. LineFailed
/// is the fourth line state the paper adds to Immix (Section 4).
constexpr uint8_t MaxEpoch = 250;
constexpr uint8_t LineFailed = 0xFF;

/// Advances a mark epoch, skipping 0 (unmarked) and the failed sentinel.
inline uint8_t nextEpoch(uint8_t Epoch) {
  return Epoch == MaxEpoch ? 1 : static_cast<uint8_t>(Epoch + 1);
}

/// Why a run stopped without finishing. The paper's curves simply
/// terminate (Figures 7-9); the runtime additionally diagnoses *why* so a
/// did-not-finish is a clean, attributable fail-stop rather than an abort.
enum class DnfReason : uint8_t {
  /// Still running, or completed.
  None,
  /// Ordinary exhaustion: the live set plus fragmentation no longer fits
  /// the page budget.
  HeapExhausted,
  /// The fussy pool ran dry: no perfect PCM pages remain and the DRAM
  /// debt cap refuses further borrowing, so page-grained allocation
  /// cannot proceed.
  PerfectPagesExhausted,
  /// Dynamic failures retired lines faster than defragmentation could
  /// compact around them; a large fraction of the heap is dead memory.
  FailureStormOverload,
};

inline const char *dnfReasonName(DnfReason Reason) {
  switch (Reason) {
  case DnfReason::None:
    return "none";
  case DnfReason::HeapExhausted:
    return "heap-exhausted";
  case DnfReason::PerfectPagesExhausted:
    return "perfect-pages-exhausted";
  case DnfReason::FailureStormOverload:
    return "failure-storm-overload";
  }
  return "?";
}

/// End-of-life degradation ladder. As dynamic wear retires blocks and
/// the perfect-page pool drains, the runtime steps through explicit,
/// observable modes instead of degrading silently until a crash. The
/// mode is recomputed from heap state at collection boundaries and
/// dynamic-failure batches (never per-allocation), so it is a pure
/// function of the deterministic heap evolution and the auditor can
/// recompute and assert it.
enum class DegradationMode : uint8_t {
  /// Full capacity: allocation proceeds without admission control.
  Normal,
  /// Capacity pressure: the perfect-page pool or the block budget is
  /// running low. Allocation admission control arms - the slow path
  /// spends a bounded extra full-collection retry budget before
  /// declaring exhaustion.
  Throttled,
  /// Near end-of-life: defragmentation is forced at the next collection
  /// and page-hungry allocations (large objects, medium overflow) are
  /// refused with a typed error instead of burning the last perfect
  /// pages.
  Emergency,
  /// Diagnosed fail-stop: OutOfMemory with a DnfReason attached.
  FailStop,
};

inline const char *degradationModeName(DegradationMode Mode) {
  switch (Mode) {
  case DegradationMode::Normal:
    return "normal";
  case DegradationMode::Throttled:
    return "throttled";
  case DegradationMode::Emergency:
    return "emergency";
  case DegradationMode::FailStop:
    return "fail-stop";
  }
  return "?";
}

/// Typed allocation refusal. In Emergency mode the heap refuses
/// page-hungry requests with one of these instead of crashing or
/// spiralling into a DNF; callers observe the reason via
/// Heap::lastRefusal() and may shed load or retry smaller.
enum class AllocRefusal : uint8_t {
  None,
  /// A large-object allocation was refused in Emergency mode.
  EmergencyLarge,
  /// A medium (overflow-prone) allocation was refused in Emergency mode.
  EmergencyMedium,
};

inline const char *allocRefusalName(AllocRefusal Refusal) {
  switch (Refusal) {
  case AllocRefusal::None:
    return "none";
  case AllocRefusal::EmergencyLarge:
    return "emergency-large";
  case AllocRefusal::EmergencyMedium:
    return "emergency-medium";
  }
  return "?";
}

/// One logged ladder transition. The heap keeps a bounded in-memory log
/// (DegradationLogCapacity) alongside the journal record so tools and
/// the rob01 gate can check monotonicity without replaying the journal.
struct DegradationTransition {
  uint64_t GcCount = 0;
  uint64_t AllocBytes = 0;
  DegradationMode From = DegradationMode::Normal;
  DegradationMode To = DegradationMode::Normal;
  /// True when the transition steps *down* the ladder (recovery): a
  /// backward mode change without this flag set is an invariant
  /// violation the rob01 gate rejects.
  bool Recovery = false;
};

/// Objects at least this large go to the page-grained large object
/// space. Never larger than a block.
constexpr size_t LargeObjectThreshold = 8 * KiB;

/// The policy knobs a RuntimeConfig hands its heap unchanged. HeapConfig
/// and RuntimeConfig both inherit them, so each knob is declared once
/// and RuntimeConfig::toHeapConfig copies them in one statement.
struct HeapPolicy {
  CollectorKind Collector = CollectorKind::StickyImmix;

  /// Immix block size (the paper uses 32 KB).
  size_t BlockSize = 32 * KiB;
  /// Immix logical line size; 256 B default, swept in Figures 6-7.
  size_t LineSize = 256;
  /// Conservative line marking: small objects mark only their first line
  /// and the sweep treats the following line as implicitly live.
  bool ConservativeLineMarking = true;

  /// Failure-aware allocation: consume the OS failure maps and skip holes.
  /// Must be true whenever there are failures; exposed so the
  /// zero-failure baseline can prove the failure-aware code adds no
  /// overhead (Figure 4's green bars).
  bool FailureAware = true;
  /// Make the free-list space failure-aware too (the Section 3.3.1
  /// discussion of native runtimes; off by default).
  bool FreeListFailureAware = false;

  /// Blocks whose free-line fraction is at least this are defragmentation
  /// candidates during a full collection.
  double DefragFreeFraction = 0.25;
  /// Cap on outstanding DRAM-borrow debt, in pages. 0 (the default)
  /// means uncapped: borrowed pages still count against the heap budget
  /// and each borrow carries the debit-credit space penalty, which is the
  /// paper's cost model. A finite cap is only used by ablations.
  size_t MaxDebtPages = 0;
  /// When allocation fails for good and at least this fraction of all
  /// Immix lines is failed, the fail-stop is classified as a failure
  /// storm rather than ordinary heap exhaustion.
  double StormOverloadFraction = 0.5;

  /// Degradation ladder thresholds. The heap enters Throttled when the
  /// perfect-page pool (unconsumed + recycled stock) drops below this
  /// fraction of its initial size, or when at least ThrottleRetiredBlocks
  /// blocks have been retired.
  double ThrottlePerfectFraction = 0.25;
  unsigned ThrottleRetiredBlocks = 4;
  /// Emergency arms when the perfect pool drops below this fraction of
  /// its initial size, or when the retired-block fraction reaches
  /// EmergencyRetiredFraction of all blocks.
  double EmergencyPerfectFraction = 0.05;
  double EmergencyRetiredFraction = 0.25;

  /// Number of GC worker threads for the parallel collection engine.
  /// 1 (the default) collects inline on the mutator thread with no pool;
  /// any value produces bit-identical post-collection heap state.
  unsigned GcThreads = 1;

  /// Incremental (SATB) marking: full-collection mark work may be split
  /// into fixed-budget increments that interleave with mutation (see
  /// Heap::beginIncrementalMarkCycle). Off by default; the stop-the-world
  /// paths are untouched when disabled. Requires an Immix collector.
  bool IncrementalMark = false;
  /// Mostly-concurrent marking: the increments of an open SATB cycle run
  /// on a dedicated marker thread overlapped with mutation instead of
  /// interleaved at mutator turns (see gc/ConcurrentMarker.h). Mutually
  /// exclusive with IncrementalMark; requires an Immix collector. The
  /// closing pause still drains to convergence, so the final heap state
  /// is bit-identical to both other modes.
  bool ConcurrentMark = false;
  /// Objects scanned per mark increment when a cycle is stepped
  /// (Heap::incrementalMarkStep), or per concurrent marker slice; 0
  /// means unbounded (one step finishes the trace; the marker bounds its
  /// slices at a default quota so quiescence stays prompt). An increment
  /// scans at most this many objects (see gc/GcWorkers.h on the quota
  /// accounting); the final marked set is the snapshot closure under any
  /// budget.
  unsigned MarkBudget = 512;
};

/// Static heap configuration: the shared policy plus the page budget and
/// failure setup that RuntimeConfig::toHeapConfig derives.
struct HeapConfig : HeapPolicy {
  /// Heap size, in 4 KB pages. This is the *total* page budget; callers
  /// apply failure compensation (h / (1 - f)) before setting it.
  size_t BudgetPages = 2048;

  /// Failure injection between the OS and VM allocators (Section 5).
  FailureConfig Failures;

  size_t linesPerBlock() const { return BlockSize / LineSize; }
  size_t pagesPerBlock() const { return BlockSize / PcmPageSize; }
  size_t maxDebtPages() const {
    return MaxDebtPages != 0 ? MaxDebtPages : BudgetPages;
  }
};

/// Monotonic activity counters. Wall time is the headline metric (as in
/// the paper); these deterministic counters explain *why* a configuration
/// is slower and are reported alongside.
struct HeapStats {
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesAllocated = 0;
  uint64_t AllocSlowPaths = 0;
  uint64_t HoleSearches = 0;
  uint64_t LinesSkippedFailed = 0;
  uint64_t OverflowAllocs = 0;
  uint64_t OverflowSearches = 0;
  uint64_t PerfectBlockRequests = 0;
  uint64_t LargeObjectAllocs = 0;

  uint64_t GcCount = 0;
  uint64_t FullGcCount = 0;
  uint64_t NurseryGcCount = 0;
  uint64_t GcTriggerSmallMedium = 0;
  uint64_t GcTriggerLarge = 0;
  uint64_t ObjectsMarked = 0;
  uint64_t BytesTraced = 0;
  uint64_t ObjectsEvacuated = 0;
  uint64_t BytesEvacuated = 0;
  uint64_t LinesSwept = 0;

  uint64_t DynamicFailuresHandled = 0;
  uint64_t DynamicFailurePageCopies = 0;
  uint64_t PinnedFailurePageRemaps = 0;
  uint64_t WriteBarrierLogs = 0;

  /// Incremental (SATB) marking activity. Opened/closed counts and the
  /// increment count are driven by the caller's schedule; SatbLogged
  /// counts overwritten references recorded by the deletion barrier and
  /// SatbDrained the entries handed to the tracer - all deterministic
  /// functions of the mutation history (claim deduplication makes the
  /// *marked set* schedule-independent, so these totals are too).
  uint64_t IncrementalCyclesOpened = 0;
  uint64_t IncrementalCyclesClosed = 0;
  uint64_t MarkIncrements = 0;
  uint64_t SatbLogged = 0;
  uint64_t SatbDrained = 0;

  uint64_t DynamicFailureBatches = 0;
  /// Dynamic-failure batches that arrived while a (parallel) mark phase
  /// was running and were parked until the end of the collection - the
  /// safepoint deferral contract: never lost, never applied mid-trace.
  uint64_t MarkPhaseDeferredInterrupts = 0;
  uint64_t DeferredFailureRecoveries = 0;
  uint64_t EmergencyDefrags = 0;
  uint64_t BlocksRetired = 0;
  uint64_t FailedLinesDynamic = 0;

  /// Dynamic failures that could not be journaled in budget coordinates
  /// (recycled/DRAM-backed blocks without page provenance, or pages
  /// already remapped to perfect physical pages). They still fence and
  /// recover normally; they are just invisible to crash recovery.
  uint64_t UnjournaledFailures = 0;

  /// Thread-targeted interrupt routing (multi-lane mutators). All three
  /// are deterministic - they depend only on the lane schedule - and the
  /// no-lost-interrupts ledger check is Routed == Delivered + Orphaned
  /// with every lane mailbox empty.
  uint64_t InterruptsRouted = 0;    ///< Addresses entering the router.
  uint64_t InterruptsDelivered = 0; ///< Delivered to an owning lane.
  uint64_t InterruptsOrphaned = 0;  ///< Unowned; deferred to a safepoint.
  /// Stop-the-world handshakes that actually had peer threads to stop.
  uint64_t SafepointStops = 0;

  /// Degradation-ladder activity. All deterministic: the mode is a pure
  /// function of heap state recomputed at collection boundaries.
  uint64_t DegradationTransitions = 0; ///< Mode changes (either way).
  uint64_t DegradationRecoveries = 0;  ///< Downward (recovery) changes.
  uint64_t ThrottleRetries = 0;        ///< Extra admission-control GCs.
  uint64_t RefusedLargeAllocs = 0;     ///< Emergency large refusals.
  uint64_t RefusedMediumAllocs = 0;    ///< Emergency medium refusals.
};

} // namespace wearmem

#endif // WEARMEM_HEAP_HEAPCONFIG_H
