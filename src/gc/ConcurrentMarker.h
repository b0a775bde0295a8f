//===- gc/ConcurrentMarker.h - Dedicated concurrent mark thread -*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mostly-concurrent half of SATB marking (HeapConfig::ConcurrentMark),
/// in the lineage of bdwgc's incremental/generational machinery: a single
/// dedicated marker thread drains the open cycle's mark frontier and the
/// sealed SATB segments *while mutators run*, so the only stop-the-world
/// pieces left are the cycle open, the flush-only safepoint handshakes,
/// and the closing drain-to-convergence pause.
///
/// Concurrency contract (what keeps this TSan-clean and deterministic):
///
///  * The marker owns MarkWorker slot 0 and the cycle's MarkWorkList
///    exclusively between cycleOpened() and the next quiesce(). The open
///    seeds roots before arming the marker; the close quiesces it before
///    touching any mark state; the GC worker pool never runs mid-cycle
///    in concurrent mode.
///  * The marker never marks Immix *lines*: line marks feed the
///    allocators' availability caches, which mutators rebuild with plain
///    writes mid-cycle. Non-candidate claims park on the per-worker
///    DeferredLineMarks list instead and are applied - idempotent, in
///    any order - inside the world-stopped windows: each flush
///    handshake drains the list accumulated so far (amortizing the
///    O(live) cost across the cycle), the closing pause drains the
///    remainder (Heap::concurrentMarkSlice / satbFlushHandshake /
///    finishIncrementalMarkCycle).
///  * Mutator-side publication is a release store in Heap::writeRef; the
///    marker reads reference slots with acquire loads, so a freshly
///    allocated object is fully initialized by the time the marker can
///    reach it. Header claims go through the same CAS the parallel
///    mark phase already uses.
///  * quiesce()/cycleOpened() exchange all marker-touched state through
///    one mutex, giving the open/close code happens-before over the
///    marker's counters, deferred lists, and frontier state.
///
/// The marker never stops the world and never triggers a collection; it
/// is a pure consumer. Everything it influences that could vary with
/// scheduling - slices run, refs drained concurrently vs. at the close,
/// park/wake counts - is Timing-domain only ("gc.cm.*" metrics). The
/// final marked set is schedule-independent: the closing pause rescans
/// roots and drains SATB + frontier to convergence, so concurrent claims
/// only ever *prepay* work the close would otherwise do.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_GC_CONCURRENTMARKER_H
#define WEARMEM_GC_CONCURRENTMARKER_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace wearmem {

class Heap;

/// The dedicated marker thread. Owned by the Heap (created lazily on the
/// first concurrent cycle), joined on shutdown/destruction.
class ConcurrentMarker {
public:
  explicit ConcurrentMarker(Heap &H);
  ~ConcurrentMarker();

  ConcurrentMarker(const ConcurrentMarker &) = delete;
  ConcurrentMarker &operator=(const ConcurrentMarker &) = delete;

  /// Arms the marker for the cycle just opened and wakes it. Must be
  /// called after beginIncrementalMarkCycle has seeded the roots and
  /// resumed the world (the marker starts from a fully published
  /// frontier).
  void cycleOpened();

  /// Re-arms the marker after a mid-cycle quiesce (the flush
  /// handshake's brief exclusive window). The cycle is unchanged, so
  /// this is exactly cycleOpened() under a name that says why.
  void resume() { cycleOpened(); }

  /// Parks the marker and returns once it holds no mark state: after
  /// this, the caller owns MarkWorker slot 0, the work list, and the
  /// SATB log (with happens-before over everything the marker wrote).
  /// Idempotent; a no-op when the marker was never armed.
  void quiesce();

  /// Requests exit and joins the thread (destructor calls this).
  void shutdown();

private:
  void threadMain();

  Heap &H;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Armed = false;         ///< A cycle is open and not being closed.
  bool WorkHint = false;      ///< Work may be visible; run slices.
  bool QuiesceWanted = false; ///< A quiesce() is waiting on Quiet.
  bool Quiet = true;          ///< Marker holds no mark state.
  bool ShutdownFlag = false;
  std::thread Thread;
};

} // namespace wearmem

#endif // WEARMEM_GC_CONCURRENTMARKER_H
